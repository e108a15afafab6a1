"""Deterministic random streams.

All randomness flows through PCG64 generators keyed by a seed plus an
integer path, and runs reproduce bit-for-bit on any platform with the same
numpy version. Each stream is numpy's ``PCG64(SeedSequence(entropy))`` for
the key's flat entropy; numpy's stream policy freezes both the SeedSequence
hash and PCG64 seeding.

Streams are independent only for distinct keys, so `cli` alone picks the
first path component of a run's keys; every other module extends a prefix
it is handed or reads generators it is handed. SeedSequence pads its pool
with zeros, so keys of up to four words that differ only by trailing zeros,
such as (7, 3) and (7, 3, 0, 0), are one stream.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np
from numpy.random import PCG64, SeedSequence


def _entropy_words(key) -> list[int]:
    """The flat entropy of one (seed, *path) key: non-negative ints.

    A tuple seed is spliced into the key. SeedSequence splits components at
    or above 2**32 into little-endian 32-bit words.
    """
    if type(key) is not tuple:
        raise TypeError(f"a stream key is a (seed, *path) tuple, got {type(key).__name__}")
    parts = (*key[0], *key[1:]) if key and type(key[0]) is tuple else key
    entropy = list(map(operator.index, parts))
    if entropy and min(entropy) < 0:
        raise ValueError(f"seed components must be non-negative, got {min(entropy)}")
    return entropy


def spawn_rngs(keys: Iterable[tuple]) -> list[np.random.Generator]:
    """One generator per (seed, *path) key, in key order.

    `seed` is an int or a flat tuple of ints, every component non-negative;
    the path extends it, so the keys (7, 2, 3), ((7, 2), 3) and ((7, 2, 3),)
    address the same stream. Anything else that is not an integer (a nested
    tuple, a list, a float) raises TypeError. Every key is checked before
    any generator is built.
    """
    entropy = [_entropy_words(key) for key in keys]
    return [np.random.Generator(PCG64(SeedSequence(words))) for words in entropy]


def spawn_rng(seed, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path): `spawn_rngs`' one-key case."""
    return spawn_rngs([(seed, *path)])[0]
