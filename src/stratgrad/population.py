"""Stratified scalar populations and the synthetic drift families.

A population is a finite set of scalar values split into C strata; the
estimators sample from it and are judged against its exact pooled mean. A
round sequence bundles K populations that share the same stratum layout,
modelling a quantity whose per-round distribution drifts (mean or spread,
up or down) between consecutive sampling rounds. `PopulationRound` stacks R
replications of such a sequence, which the estimators race together
(`estimators.trace_estimators`). `trend_schedules` holds the per-round
parameters of the two uniform families and the four normal trends;
`generate_family` draws `normal-random`'s from each replication's generator.

All statistics use the finite-population convention: a stratum's mean and
variance are exact properties of its values (variance divides by n).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# One interval per round for the two uniform drift families; midpoints move
# from 10 down to 1.5 (and the reverse for the increasing family).
DECREASING_MEAN_INTERVALS: tuple[tuple[float, float], ...] = (
    (8, 12), (8, 10), (6, 9), (5, 8), (4, 7),
    (3, 6), (3, 5), (2, 4), (2, 3), (0, 3),
)
INCREASING_MEAN_INTERVALS = DECREASING_MEAN_INTERVALS[::-1]

N_STRATA = 4
DEFAULT_N_ROUNDS = 10

RANDOM_PARAM_RANGE = (1.0, 20.0)
TREND_SWEEP = (20.0, 2.0)
TREND_FIXED_SIGMA = 5.0
TREND_FIXED_MU = 10.0


class Trend(enum.Enum):
    """The seven synthetic drift families."""

    UNIFORM_DEC = "uniform-dec"
    UNIFORM_INC = "uniform-inc"
    NORMAL_RANDOM = "normal-random"
    NORMAL_MEAN_DEC = "normal-mean-dec"
    NORMAL_MEAN_INC = "normal-mean-inc"
    NORMAL_VAR_DEC = "normal-var-dec"
    NORMAL_VAR_INC = "normal-var-inc"


UNIFORM_TRENDS = (Trend.UNIFORM_DEC, Trend.UNIFORM_INC)


@dataclass
class PopulationRound:
    """R replications of K populations sharing one stratum layout, in sampling order.

    Row ``values[r, k]`` of the (R, K, N) `values` array is replication r's
    round k population, stratum by stratum: stratum j is the column slice
    ``offsets[j]:offsets[j + 1]``, whose length is ``sizes[j]``. The exact
    statistics are computed once, on construction, over the whole stack:
    `weights` (w_j = N_j / N), the (R, K, C) stratum `means` and
    `variances`, and each round's pooled mean `truth`, (R, K).
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
        if self.values.ndim != 3 or self.values.size == 0:
            raise ValueError("a population stack must be a non-empty "
                             "(replications, rounds, values) array")
        n_values = self.values.shape[2]
        if (self.sizes.ndim != 1 or self.sizes.size == 0 or self.sizes.dtype.kind not in "iu"
                or self.sizes.min() < 1 or self.sizes.sum() != n_values):
            raise ValueError(f"stratum sizes {self.sizes.tolist()} must be positive and sum "
                             f"to the {n_values} values of a round")
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        total = self.sizes.astype(np.float64)
        self.weights = total / total.sum()
        shape = (self.n_reps, self.n_rounds, self.n_strata)
        self.means, self.variances = np.empty(shape), np.empty(shape)
        for j in range(self.n_strata):
            block = self.values[..., self.offsets[j]:self.offsets[j + 1]]
            self.means[..., j] = block.mean(axis=2)
            self.variances[..., j] = block.var(axis=2)  # divides by n
        if not (np.isfinite(self.means).all() and np.isfinite(self.variances).all()):
            raise ValueError("stratum statistics must be finite")
        # one 1-D dot product per row, as estimators.gst_estimate forms it
        self.truth = np.matmul(self.means[..., None, :], self.weights[:, None])[..., 0, 0]

    @property
    def n_reps(self) -> int:
        return self.values.shape[0]

    @property
    def n_rounds(self) -> int:
        return self.values.shape[1]

    @property
    def n_strata(self) -> int:
        return self.sizes.size


def draw_stratified(rng: np.random.Generator, sizes, m: int) -> np.ndarray:
    """(len(sizes), m) indices: m uniform draws without replacement in every stratum.

    The indices run over the strata laid end to end, so stratum j's row lies
    in ``start_j:start_j + sizes[j]`` with start_j the sum of the sizes
    before it. The strata read `rng` in order, each as one
    ``rng.choice(sizes[j], m, replace=False)`` call would. A single draw per
    stratum takes one ``rng.integers`` call over every stratum instead, which
    reads the same values from the stream as per-stratum
    ``rng.choice(sizes[j])`` calls.
    """
    starts = np.cumsum(sizes) - sizes
    if m == 1:
        return (rng.integers(0, sizes) + starts)[:, None]
    return np.array([rng.choice(n, size=m, replace=False) for n in sizes]) + starts[:, None]


def sample_strata(rounds: PopulationRound, per_stratum: int,
                  rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Uniform without-replacement draws, `per_stratum` from every stratum of every round.

    Replication r draws from ``rngs[r]``, one `draw_stratified` call over
    every round's strata, round by round, whose indices run over the
    replication's (K * N) values laid end to end; a stack of one replication
    is shared by every stream, as a broadcast view. Returns an (R, K, C,
    per_stratum) array for R = len(rngs).
    """
    if per_stratum < 1:
        raise ValueError("per_stratum must be at least 1")
    smallest = int(rounds.sizes.min())
    if per_stratum > smallest:
        raise ValueError(f"cannot draw {per_stratum} values from a stratum of size {smallest}")
    n_reps, k = len(rngs), rounds.n_rounds
    flat = np.broadcast_to(rounds.values, (n_reps, *rounds.values.shape[1:])).reshape(n_reps, -1)
    bounds = np.tile(rounds.sizes, k)
    picks = np.array([draw_stratified(rng, bounds, per_stratum) for rng in rngs])
    return flat[np.arange(n_reps)[:, None, None], picks].reshape(n_reps, k, -1, per_stratum)


def trend_schedules(family: Trend, n_rounds: int = DEFAULT_N_ROUNDS) -> list[tuple[float, float]]:
    """The per-round parameters of every deterministic family, the draws' (a, b).

    The uniform families take their (lo, hi) intervals from the first
    n_rounds rows of their table, so they run at most
    ``len(DECREASING_MEAN_INTERVALS)`` rounds. The four normal trends take
    (mu, sigma): mean trends sweep mu linearly across TREND_SWEEP with sigma
    pinned; variance trends sweep sigma the same way with mu pinned.
    """
    if family in UNIFORM_TRENDS:
        table = DECREASING_MEAN_INTERVALS if family is Trend.UNIFORM_DEC \
            else INCREASING_MEAN_INTERVALS
        if not 0 <= n_rounds <= len(table):
            raise ValueError(f"{family.value} has intervals for {len(table)} rounds, "
                             f"not {n_rounds}")
        return list(table[:n_rounds])
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


def generate_family(family: Trend, rngs: Sequence[np.random.Generator], n_per_round: int = 40,
                    n_rounds: int = DEFAULT_N_ROUNDS) -> PopulationRound:
    """Build R = len(rngs) replications of any of the seven families in one stack.

    The uniform families draw round k from U(lo_k, hi_k), the normal
    families from N(mu_k, sigma_k). The random family draws both parameters
    uniformly from RANDOM_PARAM_RANGE per round and replication; every other
    family follows `trend_schedules`. Every round has N_STRATA equal strata
    of n_per_round / N_STRATA fresh draws.

    Replication r draws from ``rngs[r]``: the random family's (mu, sigma)
    pairs first, mu then sigma round by round, then its whole (K, N) block
    of values in one call, round by round.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    if n_per_round <= 0 or n_per_round % N_STRATA != 0:
        raise ValueError(f"n_per_round={n_per_round} must be a positive multiple of "
                         f"{N_STRATA} strata")
    if family is not Trend.NORMAL_RANDOM:
        params = np.array(trend_schedules(family, n_rounds))  # (a, b) of each round
    values = np.empty((len(rngs), n_rounds, n_per_round))
    for replication, rng in zip(values, rngs):
        if family is Trend.NORMAL_RANDOM:
            params = rng.uniform(*RANDOM_PARAM_RANGE, (n_rounds, 2))
        draw = rng.uniform if family in UNIFORM_TRENDS else rng.normal
        replication[...] = draw(params[:, :1], params[:, 1:], replication.shape)
    return PopulationRound(values, np.full(N_STRATA, n_per_round // N_STRATA))
