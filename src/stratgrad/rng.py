"""Deterministic random streams.

All randomness flows through PCG64 generators keyed by a seed plus an
integer path, so every (experiment, round, stratum) combination gets its own
decoupled stream and runs reproduce bit-for-bit on any platform with the
same numpy version.
"""

from __future__ import annotations

import numpy as np


def _flatten(seed) -> list[int]:
    if isinstance(seed, (tuple, list)):
        out: list[int] = []
        for part in seed:
            out.extend(_flatten(part))
        return out
    value = int(seed)
    if value < 0:
        raise ValueError(f"seed components must be non-negative, got {value}")
    return [value]


def spawn_rng(seed, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *path).

    `seed` may be an int or a tuple of ints; the path extends it, so
    spawn_rng(7, 2, 3) and spawn_rng((7, 2), 3) address the same stream.
    """
    parts = (*seed, *path) if type(seed) is tuple else (seed, *path)
    if all(type(part) is int and part >= 0 for part in parts):
        entropy = list(parts)  # already flat: what _flatten would return
    else:
        entropy = _flatten(seed) + _flatten(path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
