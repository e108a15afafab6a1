"""Deterministic random streams.

All randomness flows through PCG64 generators keyed by a seed plus an
integer path, and runs reproduce bit-for-bit on any platform with the same
numpy version. Each stream is numpy's ``PCG64(SeedSequence(entropy))`` for
the key's flat entropy, bit for bit; numpy's stream policy freezes both the
SeedSequence hash and PCG64 seeding.

Streams are independent only for distinct keys, so `cli` alone picks the
first path component of a run's keys and every consumer only extends the
prefix it is handed. SeedSequence pads its four-word pool with zeros, so
keys of up to four words that differ only by trailing zeros, such as (7, 3)
and (7, 3, 0, 0), are one stream.

The seeding path and its costs. There is one seeding path, `spawn_rngs`,
and `spawn_rng` is its one-key case. It runs the SeedSequence hash as
uint32 array operations over all keys at once (about 70 µs per call), then
seeds each PCG64 from its precomputed words (about 1-5 µs per stream, key
parsing included), where a SeedSequence object per stream costs about
20 µs. So every loop that builds streams makes one call for all of them
(the replications of a race, the classes of an iteration, the layers, the
desk subsample's classes), or one per chunk of
`population.SEEDING_CHUNK` keys where holding every generator at once, at
about 0.8 kB each, would cost megabytes (the strata-rounds of every
replication of a generated population stack).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 8  # generate_state(4, uint64), as PCG64 asks for it


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n calls and after the last: init * mult**i.

    Read-only, since the arrays are shared module constants and cache entries.
    """
    out = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(n + 1)],
                   dtype=np.uint32)
    out.flags.writeable = False
    return out


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)
# the pool words that each pool word is mixed into
_OTHER_WORDS = [np.array([i for i in range(_POOL_SIZE) if i != src])
                for src in range(_POOL_SIZE)]


@functools.lru_cache(maxsize=None)
def _mix_constants(n_words: int) -> np.ndarray:
    """Hash constants of the entropy-pool mixing for n_words of entropy.

    The pool takes 4 hashmix calls to fill and 12 to mix; each word past the
    pool size takes 4 more.
    """
    n_extra = max(0, n_words - _POOL_SIZE)
    return _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + n_extra))


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix with running constant c_i: ((v ^ c_i) * c_(i+1)) xorshift.

    `constants` holds c_i..c_(i+m) for the m trailing columns of `values`.
    """
    out = (values ^ constants[:-1]) * constants[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word x with hashed word y: (L*x - R*y) xorshift."""
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> _XSHIFT
    return out


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words, (S, 4) uint64, for S entropy rows of equal length.

    Row s gives ``SeedSequence(entropy[s]).generate_state(4, np.uint64)``:
    the entropy-pool mixing and the output hash, each as a few array
    operations over all rows. uint32 products wrap by design; arrays wrap
    without a warning.
    """
    n_keys, n_words = entropy.shape
    consts = _mix_constants(n_words)
    pool = np.zeros((n_keys, _POOL_SIZE), dtype=np.uint32)
    head = min(n_words, _POOL_SIZE)
    pool[:, :head] = entropy[:, :head]
    pool = _hashmix(pool, consts[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    # Each source word stays fixed while it is mixed into the other three.
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[:, src, None], consts[at:at + _POOL_SIZE])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        at += _POOL_SIZE - 1
    # Entropy past the pool size is mixed into every pool word.
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[:, src, None], consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    state = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_CONSTANTS)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _HashedSeed(ISeedSequence):
    """A seed sequence whose PCG64 words were already hashed by `_seed_words`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {self.words.size} {self.words.dtype} words, "
                             f"not {n_words} {np.dtype(dtype)}")
        return self.words


def _entropy_words(key) -> list[int]:
    """The flat uint32 entropy of one (seed, *path) key, as SeedSequence splits it.

    A tuple seed is spliced into the key. Components at or above 2**32
    split into little-endian 32-bit words.
    """
    if type(key) is not tuple:
        raise TypeError(f"a stream key is a (seed, *path) tuple, got {type(key).__name__}")
    parts = (*key[0], *key[1:]) if key and type(key[0]) is tuple else key
    entropy = list(map(operator.index, parts))
    if not entropy or 0 <= min(entropy) and max(entropy) <= _MASK32:
        return entropy
    if min(entropy) < 0:
        raise ValueError(f"seed components must be non-negative, got {min(entropy)}")
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def spawn_rngs(keys: Iterable[tuple]) -> list[np.random.Generator]:
    """One generator per (seed, *path) key, in key order, all seeded in one pass.

    `seed` is an int or a flat tuple of ints, every component non-negative;
    the path extends it, so the keys (7, 2, 3), ((7, 2), 3) and ((7, 2, 3),)
    address the same stream. Anything else that is not an integer (a nested
    tuple, a list, a float) raises TypeError. Every key is checked before
    any generator is built. Keys are hashed in groups of equal word count.
    """
    entropy = [_entropy_words(key) for key in keys]
    groups: dict[int, list[int]] = {}
    for i, words in enumerate(entropy):
        groups.setdefault(len(words), []).append(i)
    seeds = [None] * len(entropy)
    for n_words, members in groups.items():
        block = np.fromiter(itertools.chain.from_iterable(entropy[i] for i in members),
                            dtype=np.uint32, count=len(members) * n_words)
        for i, words in zip(members, _seed_words(block.reshape(len(members), n_words))):
            seeds[i] = words
    return [np.random.Generator(np.random.PCG64(_HashedSeed(words))) for words in seeds]


def spawn_rng(seed, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path): `spawn_rngs`' one-key case."""
    return spawn_rngs([(seed, *path)])[0]
