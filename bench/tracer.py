"""Spans around slimfl's public functions, recorded from outside the package.

``Tracer.install()`` replaces each traced name at the site where its caller
looks it up (a module attribute, a class attribute or a ``STEP_FUNCTIONS``
entry) and ``Tracer.restore()`` puts every original back.  A span is
``(name, start, end, parent)``; spans stay in memory until ``save``.  Self
time is a span's duration minus that of its direct children: calls are
nested on one thread, so the children never overlap.
"""

from __future__ import annotations

import time

import numpy as np

# (module, attribute, span name).  Each name is patched where it is looked
# up: federation and training import forward/backward/sample_fading by
# name, and experiment imports the dataset and CSV helpers by name.
MODULE_TARGETS = (
    ("slimfl.experiment", "build_task", "experiment.build_task"),
    ("slimfl.experiment", "synth_dataset", "datasets.synth_dataset"),
    ("slimfl.experiment", "dirichlet_partition", "datasets.dirichlet_partition"),
    ("slimfl.experiment", "summarize", "experiment.summarize"),
    ("slimfl.experiment", "write_metrics_csv", "metrics.write_csv"),
    ("slimfl.federation", "aggregate", "federation.aggregate"),
    ("slimfl.federation", "evaluate", "federation.evaluate"),
    ("slimfl.federation", "forward", "slimnet.forward"),
    ("slimfl.federation", "sample_fading", "channel.sample_fading"),
    ("slimfl.training", "forward", "slimnet.forward"),
    ("slimfl.training", "backward", "slimnet.backward"),
    ("slimfl.training", "cross_entropy", "training.cross_entropy"),
    ("slimfl.training", "cross_entropy_grad", "training.cross_entropy_grad"),
    ("slimfl.training", "ipkd_loss", "training.ipkd_loss"),
    ("slimfl.training", "ipkd_grad", "training.ipkd_grad"),
)
LOSS_SPANS = (
    "training.cross_entropy",
    "training.cross_entropy_grad",
    "training.ipkd_loss",
    "training.ipkd_grad",
)
STEP_SPAN = "training.{}_step"


def matmul_flops(layout) -> int:
    """Multiply-adds (2 flops each) of one sample's forward matmuls.

    The masked network multiplies full-size masked weight matrices, so the
    count depends on the layout alone, not on the width.
    """
    return sum(2 * spec.in_dim * spec.out_dim for spec in layout.layers)


def forward_flops(args) -> int:
    params, _, batch = args[:3]
    return len(batch) * matmul_flops(params.layout)


def backward_flops(args) -> int:
    """The seed's backward re-runs the forward, then forms weight gradients
    for every layer and input gradients for every layer but the first."""
    params, _, batch = args[:3]
    layers = params.layout.layers
    fwd = matmul_flops(params.layout)
    first = 2 * layers[0].in_dim * layers[0].out_dim
    return len(batch) * (3 * fwd - first)


class _TracedGenerator:
    """A numpy Generator whose ``choice`` (batch sampling) is a span."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self.choice = tracer.wrap("rng.batch_choice", gen.choice)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.flops: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn, flops=None):
        """``fn`` recorded as a span called ``name``; ``flops(args)`` is summed."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        if flops is not None:
            self.flops.setdefault(name, 0)
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.flops

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                if flops is not None:
                    counts[name] += flops(args)

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` once inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced name; ``restore`` undoes it."""
        import importlib

        from slimfl import experiment, rng, training

        flops = {"slimnet.forward": forward_flops, "slimnet.backward": backward_flops}
        for module_name, attr, name in MODULE_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), flops.get(name)))

        stream = rng.stream
        wrapped_stream = self.wrap("rng.stream", stream)
        self._patch(rng, "stream", lambda *a: _TracedGenerator(wrapped_stream(*a), self))
        self._patch(
            training.LocalOptimizer,
            "apply",
            self.wrap("training.optimizer", training.LocalOptimizer.apply),
        )
        for rule, fn in list(training.STEP_FUNCTIONS.items()):
            self._saved.append((training.STEP_FUNCTIONS, rule, fn))
            training.STEP_FUNCTIONS[rule] = self.wrap(STEP_SPAN.format(rule), fn)

        make_run = experiment.make_run

        def traced_make_run(*args, **kwargs):
            run = make_run(*args, **kwargs)
            run.run_round = self.wrap("federation.round", run.run_round)
            return run

        self._patch(experiment, "make_run", self.wrap("experiment.make_run", traced_make_run))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def arrays(self):
        """Spans as arrays: name id, start, end (seconds), parent index."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        table = np.array([s[:3] for s in self.spans], dtype=np.float64).reshape(-1, 3)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        return table[:, 0].astype(np.int64), table[:, 1], table[:, 2], parent

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time (duration minus direct children)."""
        _, start, end, parent = self.arrays()
        duration = end - start
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return duration, duration - children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        name_id, _, _, _ = self.arrays()
        duration, self_time = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(duration[sel].sum() * 1e3),
                "self_ms": float(self_time[sel].sum() * 1e3),
            }
        return out

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_id=name_id, start=start, end=end,
            parent=parent,
        )
