"""Deterministic random streams.

All randomness flows through PCG64 generators keyed by a seed plus an
integer path, so every (experiment, round, stratum) combination gets its own
decoupled stream and runs reproduce bit-for-bit on any platform with the
same numpy version.
"""

from __future__ import annotations

import operator

import numpy as np


def spawn_rng(seed, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    `seed` is an int or a flat tuple of ints, every component non-negative;
    the path extends it, so spawn_rng(7, 2, 3) and spawn_rng((7, 2), 3)
    address the same stream. Anything else that is not an integer (a nested
    tuple, a list, a float) raises TypeError.
    """
    parts = (*seed, *path) if type(seed) is tuple else (seed, *path)
    entropy = [operator.index(part) for part in parts]
    if min(entropy, default=0) < 0:
        raise ValueError(f"seed components must be non-negative, got {min(entropy)}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
