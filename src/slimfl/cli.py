"""Command line entry points: run, analyze, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import ConfigError, override, parse_config
from .engine import HelperError
from .experiment import analyze_experiment, run_all
from .metrics import write_json

EXIT_BAD_CONFIG = 2


def _read(path: str) -> str:
    """The config file's text; a ConfigError when there is no such file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file: {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_run(args) -> int:
    cfg = parse_config(_read(args.config))
    combined = run_all(cfg)
    for run in combined["runs"]:
        conv = run["convergence_round"]
        print(
            f"seed {run['seed']}: {run['rounds']} rounds, "
            f"convergence {'none' if conv is None else f'round {conv}'}, "
            f"csv {run['metrics_csv']}"
        )
    print(f"summary {os.path.join(cfg.output_dir, 'summary.json')}")
    return 0


def cmd_analyze(args) -> int:
    cfg = parse_config(_read(args.config))
    report = analyze_experiment(cfg)
    if args.output:
        write_json(args.output, report)
        print(f"analysis {args.output}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_widths(args) -> int:
    """Width-selection table: widest configuration meeting an IPS target."""
    from .analysis import SIX_WIDTH_COST_TABLE, ips_width_selection

    peaks = [float(v) for v in args.peaks.split(",") if v.strip()]
    print("r_peak_mflops,chosen_width,ips")
    for peak in peaks:
        chosen = ips_width_selection(peak, SIX_WIDTH_COST_TABLE, args.target)
        if chosen is None:
            print(f"{peak:g},none,")
        else:
            cost = dict(SIX_WIDTH_COST_TABLE)[chosen]
            print(f"{peak:g},{chosen},{peak / cost:.1f}")
    return 0


def cmd_sweep(args) -> int:
    base_text = _read(args.config)
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep values: need at least one value")
    for value in values:
        text = override(base_text, args.param, value.strip())
        cfg = parse_config(text)
        subdir = os.path.join(
            cfg.output_dir, f"sweep_{args.param.replace('.', '_')}", value.strip()
        )
        cfg = dataclasses.replace(cfg, output_dir=subdir)
        if args.mode == "analyze":
            write_json(os.path.join(subdir, "analysis.json"), analyze_experiment(cfg))
        else:
            run_all(cfg)
        print(f"{args.param} = {value.strip()}: {subdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimfl",
        description="Simulate federated learning of width-slimmable networks "
        "over a superposition-coded uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment for every seed")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="emit the closed-form analysis report as JSON")
    p_an.add_argument("config")
    p_an.add_argument("--output", default="", help="write JSON here instead of stdout")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="repeat run/analyze over values of one config key")
    p_sw.add_argument("config")
    p_sw.add_argument("--param", required=True, help="section.key to vary")
    p_sw.add_argument(
        "--values",
        required=True,
        help="comma-separated values; write a list led by a minus sign as --values=-172,-169",
    )
    p_sw.add_argument("--mode", choices=("run", "analyze"), default="run")
    p_sw.set_defaults(func=cmd_sweep)

    p_w = sub.add_parser(
        "widths", help="pick the widest configuration meeting an images/sec target"
    )
    p_w.add_argument("--peaks", required=True, help="comma-separated peak MFLOPS values")
    p_w.add_argument("--target", type=float, default=100.0, help="required images/sec")
    p_w.set_defaults(func=cmd_widths)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (OSError, ValueError, HelperError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
