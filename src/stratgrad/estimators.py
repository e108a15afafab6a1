"""Stratified mean estimators and their variance calculus.

Four designs are compared throughout the package:

* ``sgd``   - a single pooled draw;
* ``batch`` - the mean of a pooled mini-batch;
* ``gst``   - the classic stratified estimator, a weighted mean of one
  (or more) draws per stratum;
* ``gmst``  - the memory-carrying variant: each stratum keeps a running
  value that is blended with a fresh draw as ``p * old + q * fresh``.

The mixing pair (p, q) is chosen per stratum so that the blend stays an
unbiased estimate of the current stratum mean, ``p / (1 - q) =
mean_curr / mean_prev``, while minimizing the blended variance. Under that
choice the combined estimator's variance is strictly below the memoryless
stratified one whenever all stratum variances are positive, and the part
of the variance carried in memory decays geometrically while the means
stay put.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .population import PopulationRound, StratumStats, draw_stratified, population_mean, stratum_stats
from .rng import spawn_rng

# Relative scale for the guarded-denominator branch of the mixing formula.
DENOMINATOR_GUARD = 1e-12


class Degenerate(enum.Enum):
    """How a coefficient pair was produced.

    NONE: the plain minimum-variance formula.
    ZERO_OVER_ZERO: both means were zero, so the 0/0 := 1 limit form applied.
    GUARDED_DENOMINATOR: the formula was unusable (vanishing denominator,
    a zero previous mean against a nonzero current one, or |p| >= 1) and the
    pair fell back to (0, 1), i.e. the fresh draw alone.
    """

    NONE = "none"
    ZERO_OVER_ZERO = "zero-over-zero"
    GUARDED_DENOMINATOR = "guarded-denominator"


@dataclass(frozen=True)
class Coefficients:
    """Per-stratum mixing pair with its provenance flag."""

    p: float
    q: float
    degenerate: Degenerate = Degenerate.NONE

    @property
    def is_fallback(self) -> bool:
        return self.degenerate is Degenerate.GUARDED_DENOMINATOR


_FALLBACK = Coefficients(0.0, 1.0, Degenerate.GUARDED_DENOMINATOR)


def optimal_coefficients(mean_prev: float, var_prev: float,
                         mean_curr: float, var_curr: float) -> Coefficients:
    """Minimum-variance unbiased mixing pair for one stratum.

    p = mean_curr * mean_prev * var_curr / d and
    q = mean_curr**2 * var_prev / d with
    d = mean_curr**2 * var_prev + mean_prev**2 * var_curr.

    Degenerate inputs fall through to explicit branches: both means zero
    uses the 0/0 := 1 limit p = var_curr / (var_prev + var_curr); a
    vanishing denominator, an unsatisfiable mean ratio (mean_prev = 0 with
    mean_curr != 0) or a blend with |p| >= 1 all fall back to (0, 1), the
    pure fresh draw, and are flagged as such.
    """
    if var_prev < 0 or var_curr < 0:
        raise ValueError(f"variances must be non-negative, got ({var_prev}, {var_curr})")
    if mean_curr == 0.0 and mean_prev == 0.0 and var_curr > 0.0:
        total = var_prev + var_curr
        coeffs = Coefficients(var_curr / total, var_prev / total, Degenerate.ZERO_OVER_ZERO)
    else:
        if mean_prev == 0.0 and mean_curr != 0.0:
            return _FALLBACK
        cc = mean_curr * mean_curr * var_prev
        pp = mean_prev * mean_prev * var_curr
        den = cc + pp
        if den < DENOMINATOR_GUARD * max(1.0, cc, pp):
            return _FALLBACK
        coeffs = Coefficients(mean_curr * mean_prev * var_curr / den, cc / den)
    if abs(coeffs.p) >= 1.0:
        return _FALLBACK
    return coeffs


class CoefficientBuffers(NamedTuple):
    """Preallocated arrays for :func:`optimal_coefficients_elementwise`.

    ``p`` and ``q`` receive the mixing pair; ``work`` and the three boolean
    masks are scratch. Every array has the statistics' (broadcast) shape.
    """

    p: np.ndarray
    q: np.ndarray
    work: np.ndarray
    fallback: np.ndarray
    both_zero: np.ndarray
    mask: np.ndarray

    @classmethod
    def empty(cls, shape) -> "CoefficientBuffers":
        return cls(*(np.empty(shape) for _ in range(3)),
                   *(np.empty(shape, dtype=bool) for _ in range(3)))


def optimal_coefficients_elementwise(mean_prev, var_prev, mean_curr, var_curr,
                                     out: Optional[CoefficientBuffers] = None):
    """Vectorized mixing pairs for parameter-shaped statistics.

    Applies exactly the branch logic of :func:`optimal_coefficients` to
    every element and returns (p, q, n_fallback) where n_fallback counts
    the elements that fell back to the pure fresh draw. Pass `out` to run
    without allocating: p and q are then ``out.p`` and ``out.q``, and the
    arithmetic is the same whether or not `out` is given.
    """
    mean_prev, var_prev, mean_curr, var_curr = np.broadcast_arrays(
        np.asarray(mean_prev, dtype=np.float64),
        np.asarray(var_prev, dtype=np.float64),
        np.asarray(mean_curr, dtype=np.float64),
        np.asarray(var_curr, dtype=np.float64),
    )
    if out is None:
        out = CoefficientBuffers.empty(mean_prev.shape)
    p, q, work, fallback, both_zero, mask = out
    np.less(var_prev, 0.0, out=mask)
    np.less(var_curr, 0.0, out=fallback)
    if mask.any() or fallback.any():
        raise ValueError("variances must be non-negative")
    # q holds cc and p holds pp until the divisions below; work holds den.
    np.multiply(mean_curr, mean_curr, out=q)
    q *= var_prev
    np.multiply(mean_prev, mean_prev, out=p)
    p *= var_curr
    np.add(q, p, out=work)
    np.maximum(q, p, out=p)
    np.maximum(1.0, p, out=p)
    np.multiply(DENOMINATOR_GUARD, p, out=p)
    np.less(work, p, out=fallback)  # den < eps
    np.equal(mean_prev, 0.0, out=mask)
    np.not_equal(mean_curr, 0.0, out=both_zero)
    both_zero &= mask  # unsatisfiable mean ratio
    fallback |= both_zero
    np.equal(mean_curr, 0.0, out=both_zero)
    both_zero &= mask
    np.greater(var_curr, 0.0, out=mask)
    both_zero &= mask
    np.invert(both_zero, out=mask)
    fallback &= mask  # the guarded branch
    with np.errstate(divide="ignore", invalid="ignore"):
        np.greater(work, 0.0, out=mask)
        np.invert(mask, out=mask)
        np.copyto(work, 1.0, where=mask)
        np.divide(q, work, out=q)
        np.multiply(mean_curr, mean_prev, out=p)
        p *= var_curr
        p /= work
        np.copyto(p, 0.0, where=fallback)
        np.copyto(q, 1.0, where=fallback)
        np.add(var_prev, var_curr, out=work)
        np.greater(work, 0.0, out=mask)
        np.invert(mask, out=mask)
        np.copyto(work, 1.0, where=mask)
        np.divide(var_curr, work, out=p, where=both_zero)
        np.divide(var_prev, work, out=q, where=both_zero)
    np.abs(p, out=work)
    np.greater_equal(work, 1.0, out=mask)  # blend with |p| >= 1
    np.copyto(p, 0.0, where=mask)
    np.copyto(q, 1.0, where=mask)
    fallback |= mask
    return p, q, int(np.count_nonzero(fallback))


def unbiased_condition_holds(c: Coefficients, mean_prev: float, mean_curr: float,
                             tol: float = 1e-9) -> bool:
    """Whether p / (1 - q) matches mean_curr / mean_prev within relative tol.

    Both means zero counts as satisfied (the 0/0 convention); a zero
    previous mean against a nonzero current one is unsatisfiable and
    returns False, as does q = 1 (the blend ratio is undefined there).
    """
    if mean_prev == 0.0:
        return mean_curr == 0.0
    if c.q == 1.0:
        return False
    ratio = mean_curr / mean_prev
    return abs(c.p / (1.0 - c.q) - ratio) <= tol * abs(ratio)


def gst_estimate(samples: Sequence, weights) -> float:
    """Weighted mean of per-stratum sample means: sum_j w_j * mean(samples_j)."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(samples) != weights.size:
        raise ValueError(f"got {len(samples)} strata of samples for {weights.size} weights")
    means = np.empty(weights.size)
    for j, block in enumerate(samples):
        block = np.atleast_1d(np.asarray(block, dtype=np.float64))
        if block.size == 0:
            raise ValueError(f"stratum {j} has no samples")
        means[j] = block.mean()
    return float(np.dot(weights, means))


def sgd_estimate(sample: float) -> float:
    """Single-draw estimate: the sample itself."""
    return float(sample)


def batch_estimate(samples) -> float:
    """Plain mean of a pooled mini-batch."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("batch must be non-empty")
    return float(samples.mean())


@dataclass
class MemoryState:
    """Per-stratum memory of the gmst estimator.

    Holds the blended value per stratum, the previous round's exact stats
    (needed for the next mixing pair), the 1-based round index, and a
    cumulative count of strata that fell back to the pure fresh draw.
    """

    memory: np.ndarray
    prev_stats: tuple[StratumStats, ...]
    iteration: int
    fallbacks: int = 0

    def __post_init__(self):
        self.memory = np.asarray(self.memory, dtype=np.float64)
        if self.memory.ndim != 1 or self.memory.size != len(self.prev_stats):
            raise ValueError("one memory entry and one stats entry per stratum")
        if self.iteration < 1:
            raise ValueError("iteration counts from 1")


def _stratum_means(samples: Sequence, n: int) -> np.ndarray:
    if len(samples) != n:
        raise ValueError(f"got samples for {len(samples)} strata, expected {n}")
    out = np.empty(n)
    for j, block in enumerate(samples):
        block = np.atleast_1d(np.asarray(block, dtype=np.float64))
        if block.size == 0:
            raise ValueError(f"stratum {j} has no samples")
        out[j] = block.mean()
    return out


def gmst_init(first_samples: Sequence, stats: Sequence[StratumStats], weights):
    """Seed the memory from one (or more) draws per stratum.

    The first estimate is exactly the memoryless stratified estimate of the
    same samples; `stats` are the current round's stats, stored for the
    next step's mixing pair.
    """
    weights = np.asarray(weights, dtype=np.float64)
    memory = _stratum_means(first_samples, weights.size)
    if len(stats) != weights.size:
        raise ValueError("need stats for every stratum")
    estimate = gst_estimate(first_samples, weights)
    return MemoryState(memory, tuple(stats), iteration=1), estimate


def gmst_step(state: MemoryState, fresh: Sequence, stats: Sequence[StratumStats], weights):
    """Advance the memory one round with one fresh draw per stratum.

    Per stratum: compute the mixing pair from (previous stats, current
    stats), blend memory and fresh draw, then report the weighted memory
    mean. Returns the advanced state (the input state is left untouched)
    and the estimate.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = state.memory.size
    if weights.size != n or len(stats) != n:
        raise ValueError("stratum count is fixed over the life of a MemoryState")
    fresh_means = _stratum_means(fresh, n)
    new_memory = np.empty(n)
    fallbacks = 0
    for j in range(n):
        prev = state.prev_stats[j]
        curr = stats[j]
        c = optimal_coefficients(prev.mean, prev.variance, curr.mean, curr.variance)
        if c.is_fallback:
            fallbacks += 1
        new_memory[j] = c.p * state.memory[j] + c.q * fresh_means[j]
    estimate = float(np.dot(weights, new_memory))
    next_state = MemoryState(new_memory, tuple(stats), state.iteration + 1,
                             state.fallbacks + fallbacks)
    return next_state, estimate


def _blended_variance_term(mean_prev: float, var_prev: float,
                           mean_curr: float, var_curr: float) -> float:
    """One stratum's minimum blended variance (without its weight factor)."""
    if mean_prev == 0.0 and mean_curr == 0.0:
        total = var_prev + var_curr
        return 0.0 if total == 0.0 else var_prev * var_curr / total
    den = mean_curr * mean_curr * var_prev + mean_prev * mean_prev * var_curr
    if den > 0.0:
        return mean_curr * mean_curr * var_prev * var_curr / den
    # den == 0 with means not both zero: the blend is exact (a zero-variance
    # side covers the target) except when no unbiased blend exists at all.
    if mean_prev == 0.0 and mean_curr != 0.0 and var_curr > 0.0:
        raise ValueError(
            "variance prediction undefined: previous mean 0 with a nonzero current mean"
        )
    return 0.0


def predicted_variance_vsp(stats_prev: Sequence[StratumStats],
                           stats_curr: Sequence[StratumStats], weights) -> float:
    """Predicted variance of the memory estimator under optimal mixing.

    sum_j w_j^2 * m_c^2 V_p V_c / (m_c^2 V_p + m_p^2 V_c), with the 0/0
    limit handled per stratum.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(stats_prev) != weights.size or len(stats_curr) != weights.size:
        raise ValueError("need previous and current stats for every stratum")
    total = 0.0
    for j in range(weights.size):
        term = _blended_variance_term(stats_prev[j].mean, stats_prev[j].variance,
                                      stats_curr[j].mean, stats_curr[j].variance)
        total += weights[j] * weights[j] * term
    return float(total)


def stratified_variance(stats: Sequence[StratumStats], weights) -> float:
    """Variance of the memoryless stratified estimator: sum_j w_j^2 V_j."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(stats) != weights.size:
        raise ValueError("need stats for every stratum")
    variances = np.array([s.variance for s in stats])
    return float(np.dot(weights * weights, variances))


def variance_bound(v_mst_k: float, v_st_seq: Sequence[float], p: float, q: float,
                   t: int) -> float:
    """Geometric decay envelope for the memory estimator's variance.

    p^(2t) * v_mst_k + sum_{i=1..t} p^(2(t-i)) * q^2 * v_st_seq[i-1],
    valid for mixing bounds 0 < p, q < 1.
    """
    if not (0.0 < p < 1.0) or not (0.0 < q < 1.0):
        raise ValueError(f"bound requires 0 < p, q < 1, got p={p}, q={q}")
    v_st_seq = [float(v) for v in v_st_seq]
    if len(v_st_seq) != t:
        raise ValueError(f"need exactly t={t} stratified variances, got {len(v_st_seq)}")
    bound = (p ** (2 * t)) * float(v_mst_k)
    for i, v_st in enumerate(v_st_seq, start=1):
        bound += (p ** (2 * (t - i))) * q * q * v_st
    return float(bound)


@dataclass(frozen=True)
class EstimateTrace:
    """One estimator output against the exact population mean."""

    iteration: int
    estimate: float
    truth: float
    sq_dev: float

    @classmethod
    def from_estimate(cls, iteration: int, estimate: float, truth: float) -> "EstimateTrace":
        dev = estimate - truth
        return cls(iteration, float(estimate), float(truth), float(dev * dev))


ESTIMATOR_NAMES = ("gmst", "gst", "batch", "sgd")


def _stratum_draws(pop, per_stratum: int, rng) -> list[np.ndarray]:
    pairs = draw_stratified(pop, per_stratum, rng)
    values = np.array([v for _, v in pairs])
    return list(values.reshape(pop.n_strata, per_stratum))


def trace_estimators(rounds: PopulationRound, per_stratum: int = 1, batch_size: int = 4,
                     seed=0, counters: Optional[dict] = None) -> dict[str, list[EstimateTrace]]:
    """Run all four estimators across the rounds and trace their errors.

    Sampling budgets per round: gmst and gst take `per_stratum` draws per
    stratum (without replacement), batch takes `batch_size` pooled draws
    with replacement, sgd takes one. gmst spends round 1 on initialization,
    where its estimate coincides with a gst draw; every estimator reports
    one trace entry per round. Mixing pairs use the exact per-round stats.

    Each estimator gets its own decoupled stream, so adding or removing one
    never perturbs the others. If `counters` is given, the number of
    strata-rounds where gmst fell back to the pure fresh draw is added
    under ``"gmst_fallbacks"``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    rngs = {name: spawn_rng(seed, idx) for idx, name in enumerate(ESTIMATOR_NAMES)}
    traces: dict[str, list[EstimateTrace]] = {name: [] for name in ESTIMATOR_NAMES}
    weights = rounds.weights
    state: Optional[MemoryState] = None
    for k, pop in enumerate(rounds.rounds, start=1):
        truth = population_mean(pop)
        stats = [stratum_stats(s) for s in pop.strata]
        pooled = pop.pooled_values()

        draws = _stratum_draws(pop, per_stratum, rngs["gmst"])
        if state is None:
            state, est = gmst_init(draws, stats, weights)
        else:
            state, est = gmst_step(state, draws, stats, weights)
        traces["gmst"].append(EstimateTrace.from_estimate(k, est, truth))

        draws = _stratum_draws(pop, per_stratum, rngs["gst"])
        traces["gst"].append(
            EstimateTrace.from_estimate(k, gst_estimate(draws, weights), truth))

        picks = rngs["batch"].choice(pooled, size=batch_size, replace=True)
        traces["batch"].append(
            EstimateTrace.from_estimate(k, batch_estimate(picks), truth))

        pick = pooled[rngs["sgd"].integers(pooled.size)]
        traces["sgd"].append(
            EstimateTrace.from_estimate(k, sgd_estimate(pick), truth))
    if counters is not None:
        counters["gmst_fallbacks"] = counters.get("gmst_fallbacks", 0) + state.fallbacks
    return traces


def summarize_traces(traces_by_seed: Mapping[str, Sequence[EstimateTrace]] | list) -> dict:
    """Pooled mean/std of squared deviation per estimator.

    Accepts either a single trace dict or a list of per-seed trace dicts;
    the std is the sample standard deviation over all pooled sq_dev values.
    """
    if isinstance(traces_by_seed, Mapping):
        traces_by_seed = [traces_by_seed]
    summary = {}
    for name in ESTIMATOR_NAMES:
        devs = np.array([t.sq_dev for traces in traces_by_seed for t in traces[name]])
        std = float(devs.std(ddof=1)) if devs.size > 1 else 0.0
        summary[name] = {"mean_sq_dev": float(devs.mean()), "std_sq_dev": std,
                         "n": int(devs.size)}
    return summary
