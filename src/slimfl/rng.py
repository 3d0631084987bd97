"""Deterministic named RNG streams derived from a single master seed.

Every source of randomness in a run (partitioning, init, fading, batching)
pulls from its own stream so that results do not depend on execution order
and changing one stream leaves the others untouched.
"""

import hashlib
from functools import lru_cache

import numpy as np


# Runs derive a stream per device and round from a few recurring labels, so
# each label is hashed once.  typed=True keeps 1, 1.0 and True apart: they
# compare equal but have different reprs, hence different words.
@lru_cache(maxsize=None, typed=True)
def _label_word(label) -> int:
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *labels).

    Same key gives the same stream on every platform; any label change
    decorrelates it from all other streams.
    """
    words = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    words.extend(_label_word(label) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(words))
