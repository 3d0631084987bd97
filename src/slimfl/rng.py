"""Deterministic named RNG streams derived from a single master seed.

Every source of randomness in a run (partitioning, init, fading, batching)
pulls from its own stream so that results do not depend on execution order
and changing one stream leaves the others untouched.

``stream`` is the definition.  ``StreamFamily`` yields the same generators
for many label prefixes at once (one per device), without building a
SeedSequence and a Generator for each.
"""

import hashlib
from collections import Counter
from functools import lru_cache

import numpy as np

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1


# Runs derive a stream per device and round from a few recurring labels, so
# each label is hashed once.  typed=True keeps 1, 1.0 and True apart: they
# compare equal but have different reprs, hence different words.
@lru_cache(maxsize=None, typed=True)
def _label_word(label) -> int:
    digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _words(master_seed: int, labels) -> list[int]:
    return [int(master_seed) & MASK64, *(_label_word(label) for label in labels)]


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *labels).

    Same key gives the same stream on every platform; any label change
    decorrelates it from all other streams.
    """
    return np.random.default_rng(np.random.SeedSequence(_words(master_seed, labels)))


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def uint32_words(entropy) -> list[int]:
    """SeedSequence's uint32 words of a list of ints below 2**64: each int's
    low word, then its high word unless that is zero."""
    out = []
    for n in entropy:
        out.append(n & MASK32)
        if n >> 32:
            out.append(n >> 32)
    return out


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` hash constants of a SeedSequence mixing loop,
    as a uint32 column: its i-th hash xors by entry i and multiplies by
    entry i + 1.  They depend on the number of hashes alone."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# SeedSequence's mixing, vectorised over rows: numpy's uint32 arithmetic
# wraps modulo 2**32 as its C code does.
def _hashmix(values: np.ndarray, start: int, init=INIT_A, mult=MULT_A) -> np.ndarray:
    """Hashes ``start``, ``start + 1``, ... of a mixing loop, one per row of ``values``."""
    consts = _hash_consts(init, mult, start + len(values))
    values = values ^ consts[start:-1]
    values *= consts[start + 1 :]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = MIX_MULT_L * x - MIX_MULT_R * y
    result ^= result >> 16
    return result


def mix_entropy(words: np.ndarray) -> tuple[np.ndarray, int]:
    """SeedSequence's entropy pool of each row of a (rows, n) uint32 array,
    n >= 4, as a (4, rows) array, and the number of hashes it took."""
    pool = _hashmix(words[:, :POOL_SIZE].T, 0)
    hashes = POOL_SIZE
    for src in range(POOL_SIZE):
        # every other word mixes in a hash of this one, which stays as it is
        dst = [i for i in range(POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[[src] * len(dst)], hashes))
        hashes += len(dst)
    return mix_more(pool, hashes, words[:, POOL_SIZE:].T)


def mix_more(pool: np.ndarray, hashes: int, words) -> tuple[np.ndarray, int]:
    """A (4, rows) pool after ``hashes`` hashes with more entropy words mixed
    in, each an int shared by every row or one uint32 per row; the new pool
    and hash count."""
    for word in words:
        word = np.broadcast_to(np.asarray(word, dtype=np.uint32), (POOL_SIZE, np.size(word)))
        pool = _mix(pool, _hashmix(word, hashes))
        hashes += POOL_SIZE
    return pool, hashes


def generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of each row of a
    (4, rows) pool, as (rows, 4)."""
    value = _hashmix(np.concatenate([pool, pool]), 0, INIT_B, MULT_B)
    return (value[1::2].astype(np.uint64) << np.uint64(32) | value[0::2]).T


def pcg64_state(seed: list[int]) -> dict:
    """The PCG64 state that a SeedSequence's four uint64 seed words give."""
    initstate = seed[0] << 64 | seed[1]
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & MASK128
    # from state 0: one LCG step, add initstate, one more step
    state = ((inc + initstate) * PCG64_MULT + inc) & MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class StreamFamily:
    """``stream(master_seed, *prefix, *labels)`` for each of many label
    prefixes, under one set of trailing labels at a time.

    SeedSequence's pool after each prefix is mixed once, vectorised over the
    prefixes; ``generators(*labels)`` mixes in the labels' words and loads
    each prefix's PCG64 state into one reused Generator.  A prefix of
    another word count than the most common one (an int with a zero high
    32-bit word is one word shorter) takes ``stream`` itself.
    """

    def __init__(self, master_seed: int, prefixes):
        self.master_seed = master_seed
        self.prefixes = [tuple(prefix) for prefix in prefixes]
        rows = [uint32_words(_words(master_seed, prefix)) for prefix in self.prefixes]
        length = Counter(map(len, rows)).most_common(1)[0][0] if rows else 0
        self.mixed = [i for i, row in enumerate(rows) if len(row) == length >= POOL_SIZE]
        words = np.array([rows[i] for i in self.mixed], dtype=np.uint32)
        words = words.reshape(len(self.mixed), max(length, POOL_SIZE))
        self.pool, self.hashes = mix_entropy(words)
        self.generator = np.random.Generator(np.random.PCG64(0))

    def generators(self, *labels):
        """Each prefix's generator, in order.  The mixed prefixes share one
        Generator object: draw from each before taking the next."""
        pool, _ = mix_more(self.pool, self.hashes, uint32_words(map(_label_word, labels)))
        seeds = dict(zip(self.mixed, generate_state(pool).tolist()))
        bit_generator = self.generator.bit_generator
        for i, prefix in enumerate(self.prefixes):
            if i in seeds:
                bit_generator.state = pcg64_state(seeds[i])
                yield self.generator
            else:
                yield stream(self.master_seed, *prefix, *labels)
