"""Stratified scalar populations and the synthetic drift families.

A population is a finite set of scalar values split into C strata; the
estimators sample from it and are judged against its exact pooled mean. A
round sequence bundles K populations that share the same stratum layout,
modelling a quantity whose per-round distribution drifts (mean or spread,
up or down) between consecutive sampling rounds.

All statistics use the finite-population convention: a stratum's mean and
variance are exact properties of its values (variance divides by n, not
n - 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import spawn_rng

# One interval per round for the two uniform drift families; midpoints move
# from 10 down to 1.5 (and the reverse for the increasing family).
DECREASING_MEAN_INTERVALS: tuple[tuple[float, float], ...] = (
    (8, 12), (8, 10), (6, 9), (5, 8), (4, 7),
    (3, 6), (3, 5), (2, 4), (2, 3), (0, 3),
)
INCREASING_MEAN_INTERVALS: tuple[tuple[float, float], ...] = tuple(
    reversed(DECREASING_MEAN_INTERVALS)
)

DEFAULT_N_STRATA = 4
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
class Stratum:
    """One sub-population: a non-empty block of scalars with an index label."""

    values: np.ndarray
    label: int

    def __post_init__(self):
        self.values = np.array(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError(f"stratum {self.label} must hold a non-empty 1-D value block")
        self.label = int(self.label)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class StratumStats:
    """Exact mean and population variance of one stratum."""

    mean: float
    variance: float

    def __post_init__(self):
        if not np.isfinite(self.mean) or not np.isfinite(self.variance):
            raise ValueError("stratum statistics must be finite")
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")


@dataclass
class StratifiedPopulation:
    """C strata plus their share weights w_j = N_j / N."""

    strata: list[Stratum]
    weights: np.ndarray

    def __post_init__(self):
        if not self.strata:
            raise ValueError("population needs at least one stratum")
        labels = [s.label for s in self.strata]
        if len(set(labels)) != len(labels):
            raise ValueError(f"stratum labels must be unique, got {labels}")
        self.weights = np.array(self.weights, dtype=np.float64)
        sizes = np.array([s.size for s in self.strata], dtype=np.float64)
        expected = sizes / sizes.sum()
        if self.weights.shape != expected.shape or not np.array_equal(self.weights, expected):
            raise ValueError("weights must equal stratum_size / total_size exactly")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @classmethod
    def from_strata(cls, strata: Sequence[Stratum]) -> "StratifiedPopulation":
        strata = list(strata)
        sizes = np.array([s.size for s in strata], dtype=np.float64)
        return cls(strata, sizes / sizes.sum())

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    def pooled_values(self) -> np.ndarray:
        return np.concatenate([s.values for s in self.strata])


@dataclass
class PopulationRound:
    """K populations sharing one stratum layout, in sampling order.

    `trend` names the synthetic family that produced the rounds; it is None
    for rounds built from recorded data (e.g. gradient-matrix columns).
    """

    rounds: list[StratifiedPopulation]
    trend: Optional[Trend] = None

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("round sequence must be non-empty")
        first = self.rounds[0]
        for k, pop in enumerate(self.rounds):
            if pop.n_strata != first.n_strata:
                raise ValueError(f"round {k} has {pop.n_strata} strata, expected {first.n_strata}")
            if not np.array_equal(pop.weights, first.weights):
                raise ValueError(f"round {k} weights differ from round 0")

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def weights(self) -> np.ndarray:
        return self.rounds[0].weights


def stratum_stats(s: Stratum) -> StratumStats:
    """Exact mean and population variance (divide by n) of a stratum."""
    return StratumStats(float(np.mean(s.values)), float(np.var(s.values)))


def population_mean(p: StratifiedPopulation) -> float:
    """Weighted stratum-mean sum, identical to the pooled mean of all values."""
    means = np.array([np.mean(s.values) for s in p.strata])
    return float(np.dot(p.weights, means))


def draw_stratified(p: StratifiedPopulation, per_stratum: int, seed) -> list[tuple[int, float]]:
    """Uniform without-replacement draws, `per_stratum` from every stratum.

    Returns (label, value) pairs grouped stratum by stratum. An int seed
    derives one decoupled stream per stratum; passing a Generator consumes
    it sequentially instead (the fast path for replication loops).
    """
    if per_stratum < 1:
        raise ValueError("per_stratum must be at least 1")
    for s in p.strata:
        if per_stratum > s.size:
            raise ValueError(
                f"cannot draw {per_stratum} values from stratum {s.label} of size {s.size}"
            )
    shared = isinstance(seed, np.random.Generator)
    pairs: list[tuple[int, float]] = []
    for j, s in enumerate(p.strata):
        rng = seed if shared else spawn_rng(seed, j)
        values = rng.choice(s.values, size=per_stratum, replace=False)
        pairs.extend((s.label, float(v)) for v in values)
    return pairs


def _draw_rounds(draw, params: list[tuple[float, float]], n_per_round: int, seed,
                 n_strata: int) -> list[StratifiedPopulation]:
    """One population per parameter pair, in equal strata of fresh draws.

    Stratum j of round k holds n_per_round / n_strata values of
    draw(rng, a_k, b_k, size) from the stream (seed, k, j), where draw is
    a Generator method such as ``np.random.Generator.uniform``.
    """
    if not params:
        raise ValueError("need at least one round of distribution parameters")
    if n_per_round <= 0 or n_per_round % n_strata != 0:
        raise ValueError(
            f"n_per_round={n_per_round} must be a positive multiple of n_strata={n_strata}"
        )
    per = n_per_round // n_strata
    pops = []
    for k, (a, b) in enumerate(params):
        strata = [Stratum(draw(spawn_rng(seed, k, j), a, b, per), j) for j in range(n_strata)]
        pops.append(StratifiedPopulation.from_strata(strata))
    return pops


def gen_uniform_rounds(
    intervals: Sequence[tuple[float, float]],
    n_per_round: int,
    seed,
    n_strata: int = DEFAULT_N_STRATA,
) -> PopulationRound:
    """One round of uniform draws per interval, cut into contiguous strata.

    Round k holds n_per_round draws from U(lo_k, hi_k), partitioned into
    n_strata equal contiguous blocks. The family tag follows the interval
    midpoints: non-increasing midpoints mean the decreasing-mean family.
    """
    intervals = [(float(lo), float(hi)) for lo, hi in intervals]
    for lo, hi in intervals:
        if lo > hi:
            raise ValueError(f"interval ({lo}, {hi}) has lo > hi")
    pops = _draw_rounds(np.random.Generator.uniform, intervals, n_per_round, seed, n_strata)
    mids = [0.5 * (lo + hi) for lo, hi in intervals]
    decreasing = all(b <= a for a, b in zip(mids, mids[1:]))
    return PopulationRound(pops, Trend.UNIFORM_DEC if decreasing else Trend.UNIFORM_INC)


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


def gen_normal_rounds(
    params: Optional[Sequence[tuple[float, float]]],
    n_per_round: int,
    seed,
    family: Trend,
    n_strata: int = DEFAULT_N_STRATA,
    n_rounds: int = DEFAULT_N_ROUNDS,
) -> PopulationRound:
    """One round of N(mu, sigma) draws per (mu, sigma) pair.

    With params=None the pairs come from the family: the random family
    draws both parameters uniformly from RANDOM_PARAM_RANGE per round, the
    trend families use their linear schedules.
    """
    if family not in (Trend.NORMAL_RANDOM, *NORMAL_TRENDS):
        raise ValueError(f"{family} is not a normal family")
    if params is None:
        if family is Trend.NORMAL_RANDOM:
            prng = spawn_rng(seed, _PARAM_STREAM_TAG)
            lo, hi = RANDOM_PARAM_RANGE
            params = [(prng.uniform(lo, hi), prng.uniform(lo, hi)) for _ in range(n_rounds)]
        else:
            params = trend_schedules(family, n_rounds)
    params = [(float(mu), float(sg)) for mu, sg in params]
    for mu, sg in params:
        if sg <= 0:
            raise ValueError(f"sigma must be positive, got {sg}")
    return PopulationRound(
        _draw_rounds(np.random.Generator.normal, params, n_per_round, seed, n_strata), family)


def generate_family(family: Trend, seed, n_per_round: int = 40,
                    n_rounds: int = DEFAULT_N_ROUNDS) -> PopulationRound:
    """Build any of the seven families with its canonical configuration."""
    if family is Trend.UNIFORM_DEC:
        return gen_uniform_rounds(DECREASING_MEAN_INTERVALS[:n_rounds], n_per_round, seed)
    if family is Trend.UNIFORM_INC:
        return gen_uniform_rounds(INCREASING_MEAN_INTERVALS[:n_rounds], n_per_round, seed)
    return gen_normal_rounds(None, n_per_round, seed, family, n_rounds=n_rounds)
