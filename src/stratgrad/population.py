"""Stratified scalar populations and the synthetic drift families.

A population is a finite set of scalar values split into C strata; the
estimators sample from it and are judged against its exact pooled mean. A
round sequence (`PopulationRound`) bundles K populations that share the same
stratum layout, modelling a quantity whose per-round distribution drifts
(mean or spread, up or down) between consecutive sampling rounds. It is
stored as one (K, N) array with the strata as contiguous column slices, and
computes every round's stratum statistics and pooled mean once, when built;
`sample_strata` draws from all of its rounds at once, and `generate_family`
builds each drift family's sequence. Sequences with the same stratum sizes
and round count can be raced together as replications
(`estimators.trace_estimators`).

All statistics use the finite-population convention: a stratum's mean and
variance are exact properties of its values (variance divides by n, not
n - 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import spawn_rngs

# One interval per round for the two uniform drift families; midpoints move
# from 10 down to 1.5 (and the reverse for the increasing family).
DECREASING_MEAN_INTERVALS: tuple[tuple[float, float], ...] = (
    (8, 12), (8, 10), (6, 9), (5, 8), (4, 7),
    (3, 6), (3, 5), (2, 4), (2, 3), (0, 3),
)
INCREASING_MEAN_INTERVALS: tuple[tuple[float, float], ...] = tuple(
    reversed(DECREASING_MEAN_INTERVALS)
)

N_STRATA = 4
DEFAULT_N_ROUNDS = 10

# Normal-family parameter ranges: the "random" family draws (mu, sigma)
# uniformly from this interval per round; the four trend families sweep one
# parameter linearly across it while pinning the other.
RANDOM_PARAM_RANGE = (1.0, 20.0)
TREND_SWEEP = (20.0, 2.0)
TREND_FIXED_SIGMA = 5.0
TREND_FIXED_MU = 10.0

_PARAM_STREAM_TAG = 104729  # reserved path component for (mu, sigma) draws


class Trend(enum.Enum):
    """The seven synthetic drift families."""

    UNIFORM_DEC = "uniform-dec"
    UNIFORM_INC = "uniform-inc"
    NORMAL_RANDOM = "normal-random"
    NORMAL_MEAN_DEC = "normal-mean-dec"
    NORMAL_MEAN_INC = "normal-mean-inc"
    NORMAL_VAR_DEC = "normal-var-dec"
    NORMAL_VAR_INC = "normal-var-inc"


NORMAL_TRENDS = (
    Trend.NORMAL_MEAN_DEC,
    Trend.NORMAL_MEAN_INC,
    Trend.NORMAL_VAR_DEC,
    Trend.NORMAL_VAR_INC,
)


@dataclass
class PopulationRound:
    """K populations sharing one stratum layout, in sampling order.

    Row k of the (K, N) `values` array is round k's population, stratum by
    stratum: stratum j is the column slice ``offsets[j]:offsets[j + 1]``,
    whose length is ``sizes[j]``. The exact statistics are computed once, on
    construction: `weights` (w_j = N_j / N), the (K, C) stratum `means` and
    `variances`, and each round's pooled mean `truth`.
    """

    values: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    means: np.ndarray = field(init=False)
    variances: np.ndarray = field(init=False)
    truth: np.ndarray = field(init=False)

    def __post_init__(self):
        # contiguous rows, so each stratum slice reduces the way a 1-D block does
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.sizes = np.asarray(self.sizes)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("round sequence must be a non-empty (rounds, values) array")
        if (self.sizes.ndim != 1 or self.sizes.size == 0 or self.sizes.dtype.kind not in "iu"
                or self.sizes.min() < 1 or self.sizes.sum() != self.values.shape[1]):
            raise ValueError(f"stratum sizes {self.sizes.tolist()} must be positive and sum "
                             f"to the {self.values.shape[1]} values of a round")
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        total = self.sizes.astype(np.float64)
        self.weights = total / total.sum()
        shape = (self.n_rounds, self.n_strata)
        self.means, self.variances = np.empty(shape), np.empty(shape)
        for j in range(self.n_strata):
            block = self.values[:, self.offsets[j]:self.offsets[j + 1]]
            self.means[:, j] = block.mean(axis=1)
            self.variances[:, j] = block.var(axis=1)  # divides by n
        if not (np.isfinite(self.means).all() and np.isfinite(self.variances).all()):
            raise ValueError("stratum statistics must be finite")
        self.truth = np.array([np.dot(self.weights, m) for m in self.means])

    @property
    def n_rounds(self) -> int:
        return self.values.shape[0]

    @property
    def n_strata(self) -> int:
        return self.sizes.size


def sample_strata(rounds: PopulationRound, per_stratum: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement draws, `per_stratum` from every stratum of every round.

    Returns a (K, C, per_stratum) array. The stream is consumed round by
    round and stratum by stratum, as one ``rng.choice(N_j, per_stratum,
    replace=False)`` call per stratum would. A single draw per stratum takes
    one ``rng.integers`` call over every round instead, which reads the same
    values from the stream as those choice calls.
    """
    if per_stratum < 1:
        raise ValueError("per_stratum must be at least 1")
    smallest = int(rounds.sizes.min())
    if per_stratum > smallest:
        raise ValueError(f"cannot draw {per_stratum} values from a stratum of size {smallest}")
    k = rounds.n_rounds
    if per_stratum == 1:
        picks = rng.integers(0, np.tile(rounds.sizes, k)).reshape(k, -1, 1)
    else:
        sizes = rounds.sizes.tolist()
        picks = np.array([[rng.choice(n, size=per_stratum, replace=False) for n in sizes]
                          for _ in range(k)])
    columns = rounds.offsets[:-1, None] + picks
    return rounds.values[np.arange(k)[:, None, None], columns]


def _draw_rounds(draw, params: Sequence[tuple[float, float]], n_per_round: int,
                 streams: Sequence[np.random.Generator]) -> PopulationRound:
    """One round per parameter pair, in N_STRATA equal strata of fresh draws.

    Stratum j of round k holds n_per_round / N_STRATA values of
    draw(rng, a_k, b_k, size) from ``streams[k * N_STRATA + j]``, where draw
    is a Generator method such as ``np.random.Generator.uniform``; the
    families pass the streams (seed, k, j).
    """
    if n_per_round <= 0 or n_per_round % N_STRATA != 0:
        raise ValueError(f"n_per_round={n_per_round} must be a positive multiple of "
                         f"{N_STRATA} strata")
    per = n_per_round // N_STRATA
    values = np.empty((len(params), n_per_round))
    streams = iter(streams)
    for k, (a, b) in enumerate(params):
        for j in range(N_STRATA):
            values[k, j * per:(j + 1) * per] = draw(next(streams), a, b, per)
    return PopulationRound(values, np.full(N_STRATA, per))


def trend_schedules(family: Trend, n_rounds: int = DEFAULT_N_ROUNDS) -> list[tuple[float, float]]:
    """(mu, sigma) per round for the four deterministic normal trends.

    Mean trends sweep mu linearly across TREND_SWEEP with sigma pinned;
    variance trends sweep sigma the same way with mu pinned.
    """
    hi, lo = TREND_SWEEP
    down = np.linspace(hi, lo, n_rounds)
    up = np.linspace(lo, hi, n_rounds)
    if family is Trend.NORMAL_MEAN_DEC:
        return [(float(m), TREND_FIXED_SIGMA) for m in down]
    if family is Trend.NORMAL_MEAN_INC:
        return [(float(m), TREND_FIXED_SIGMA) for m in up]
    if family is Trend.NORMAL_VAR_DEC:
        return [(TREND_FIXED_MU, float(s)) for s in down]
    if family is Trend.NORMAL_VAR_INC:
        return [(TREND_FIXED_MU, float(s)) for s in up]
    raise ValueError(f"{family} has no deterministic schedule")


def generate_family(family: Trend, seed, n_per_round: int = 40,
                    n_rounds: int = DEFAULT_N_ROUNDS) -> PopulationRound:
    """Build any of the seven families with its canonical configuration.

    The uniform families draw round k from U(lo_k, hi_k) over one interval
    per round in a fixed table, so they run at most
    ``len(DECREASING_MEAN_INTERVALS)`` rounds. The normal families draw
    N(mu_k, sigma_k): the random family draws both parameters uniformly
    from RANDOM_PARAM_RANGE per round, the trend families follow
    `trend_schedules`. Stratum j of round k draws from the stream
    (seed, k, j) and the random family's parameters from (seed,
    _PARAM_STREAM_TAG); one `spawn_rngs` call seeds them all.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    keys = [(seed, k, j) for k in range(n_rounds) for j in range(N_STRATA)]
    if family in (Trend.UNIFORM_DEC, Trend.UNIFORM_INC):
        table = DECREASING_MEAN_INTERVALS if family is Trend.UNIFORM_DEC \
            else INCREASING_MEAN_INTERVALS
        if n_rounds > len(table):
            raise ValueError(f"{family.value} has intervals for {len(table)} rounds, "
                             f"not {n_rounds}")
        return _draw_rounds(np.random.Generator.uniform, table[:n_rounds], n_per_round,
                            spawn_rngs(keys))
    if family is Trend.NORMAL_RANDOM:
        prng, *streams = spawn_rngs([(seed, _PARAM_STREAM_TAG), *keys])
        lo, hi = RANDOM_PARAM_RANGE
        params = [(prng.uniform(lo, hi), prng.uniform(lo, hi)) for _ in range(n_rounds)]
    else:
        streams = spawn_rngs(keys)
        params = trend_schedules(family, n_rounds)
    return _draw_rounds(np.random.Generator.normal, params, n_per_round, streams)
