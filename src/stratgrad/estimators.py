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

:func:`trace_estimators` races the four over a :class:`PopulationRound`:
it draws each estimator's samples for all rounds at once, runs the
per-round kernels (:func:`gmst_init`/:func:`gmst_step`,
:func:`gst_estimate`, :func:`batch_estimate`, :func:`sgd_estimate`) on
per-stratum arrays, and returns (estimator, round) arrays of estimates and
squared deviations that :func:`summarize_traces` pools.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .population import PopulationRound, StratumStats, sample_strata
from .rng import spawn_rng


class Degenerate(enum.Enum):
    """How a coefficient pair was produced.

    NONE: the plain minimum-variance formula.
    ZERO_OVER_ZERO: both means were zero, so the 0/0 := 1 limit form applied.
    GUARDED_DENOMINATOR: the formula was unusable (zero denominator,
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
    zero denominator, an unsatisfiable mean ratio (mean_prev = 0 with
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
        if den == 0.0:
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
    np.equal(work, 0.0, out=fallback)  # zero denominator
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


def gst_estimate(sample_means, weights) -> float:
    """Weighted sum of per-stratum sample means: sum_j w_j * mean(samples_j)."""
    weights = np.asarray(weights, dtype=np.float64)
    sample_means = np.asarray(sample_means, dtype=np.float64)
    if sample_means.shape != weights.shape:
        raise ValueError(f"need one sample mean per stratum for {weights.size} strata, "
                         f"got shape {sample_means.shape}")
    return float(np.dot(weights, sample_means))


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

    Holds the blended value per stratum, the previous round's exact stratum
    means and variances (needed for the next mixing pair), the 1-based round
    index, and a cumulative count of strata that fell back to the pure fresh
    draw.
    """

    memory: np.ndarray
    prev_means: np.ndarray
    prev_variances: np.ndarray
    iteration: int
    fallbacks: int = 0

    def __post_init__(self):
        self.memory = np.asarray(self.memory, dtype=np.float64)
        self.prev_means = np.asarray(self.prev_means, dtype=np.float64)
        self.prev_variances = np.asarray(self.prev_variances, dtype=np.float64)
        if self.memory.ndim != 1 or not (
                self.memory.shape == self.prev_means.shape == self.prev_variances.shape):
            raise ValueError("one memory entry, mean and variance per stratum")
        if self.iteration < 1:
            raise ValueError("iteration counts from 1")


def gmst_init(sample_means, means, variances, weights):
    """Seed the memory from the first round's per-stratum sample means.

    The first estimate is exactly the memoryless stratified estimate of the
    same samples; `means` and `variances` are the current round's exact
    stratum statistics, stored for the next step's mixing pair.
    """
    estimate = gst_estimate(sample_means, weights)
    return MemoryState(np.array(sample_means, dtype=np.float64), means, variances,
                       iteration=1), estimate


def gmst_step(state: MemoryState, sample_means, means, variances, weights):
    """Advance the memory one round with a fresh sample mean per stratum.

    Per stratum: compute the mixing pair from (previous stats, current
    stats), blend memory and fresh sample mean, then report the weighted
    memory mean. Returns the advanced state (the input state is left
    untouched) and the estimate.
    """
    weights = np.asarray(weights, dtype=np.float64)
    fresh = np.asarray(sample_means, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    shape = state.memory.shape
    if not (weights.shape == fresh.shape == means.shape == variances.shape == shape):
        raise ValueError("stratum count is fixed over the life of a MemoryState")
    new_memory = np.empty(shape)
    fallbacks = 0
    for j, (old, new, mp, vp, mc, vc) in enumerate(zip(
            state.memory.tolist(), fresh.tolist(), state.prev_means.tolist(),
            state.prev_variances.tolist(), means.tolist(), variances.tolist())):
        c = optimal_coefficients(mp, vp, mc, vc)
        fallbacks += c.is_fallback
        new_memory[j] = c.p * old + c.q * new
    estimate = float(np.dot(weights, new_memory))
    next_state = MemoryState(new_memory, means, variances, state.iteration + 1,
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


ESTIMATOR_NAMES = ("gmst", "gst", "batch", "sgd")


class Race(NamedTuple):
    """The four estimators' outputs over one round sequence.

    `estimates` and `sq_dev` are (E, K) arrays, one row per name in
    ESTIMATOR_NAMES and one column per round; `truth` holds each round's
    exact pooled mean, and `fallbacks` counts the strata-rounds where gmst
    fell back to the pure fresh draw.
    """

    estimates: np.ndarray
    sq_dev: np.ndarray
    truth: np.ndarray
    fallbacks: int


def trace_estimators(rounds: PopulationRound, per_stratum: int = 1, batch_size: int = 4,
                     seed=0) -> Race:
    """Run all four estimators across the rounds and trace their errors.

    Sampling budgets per round: gmst and gst take `per_stratum` draws per
    stratum (without replacement), batch takes `batch_size` pooled draws
    with replacement, sgd takes one. gmst spends round 1 on initialization,
    where its estimate coincides with a gst draw; every estimator reports
    one estimate per round. Mixing pairs use the exact per-round stats.

    Each estimator gets its own decoupled stream, so adding or removing one
    never perturbs the others; each stream is drawn for all rounds at once,
    in round order, so the draws equal a round-by-round loop's.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    gmst_rng, gst_rng, batch_rng, sgd_rng = (
        spawn_rng(seed, idx) for idx in range(len(ESTIMATOR_NAMES)))
    n_rounds, n_values = rounds.values.shape
    rows = np.arange(n_rounds)
    gmst_means = sample_strata(rounds, per_stratum, gmst_rng).mean(axis=2)
    gst_means = sample_strata(rounds, per_stratum, gst_rng).mean(axis=2)
    # integers(0, N, size) reads the stream as choice(pooled, size, replace=True)
    batches = rounds.values[rows[:, None],
                            batch_rng.integers(0, n_values, size=(n_rounds, batch_size))]
    picks = rounds.values[rows, sgd_rng.integers(n_values, size=n_rounds)]

    weights = rounds.weights
    estimates = np.empty((len(ESTIMATOR_NAMES), n_rounds))
    state = None
    for k in range(n_rounds):
        stats = rounds.means[k], rounds.variances[k]
        if state is None:
            state, estimates[0, k] = gmst_init(gmst_means[k], *stats, weights)
        else:
            state, estimates[0, k] = gmst_step(state, gmst_means[k], *stats, weights)
        estimates[1, k] = gst_estimate(gst_means[k], weights)
        estimates[2, k] = batch_estimate(batches[k])
        estimates[3, k] = sgd_estimate(picks[k])
    dev = estimates - rounds.truth
    return Race(estimates, dev * dev, rounds.truth, state.fallbacks)


def summarize_traces(sq_dev) -> dict:
    """Pooled mean/std of squared deviation per estimator.

    `sq_dev` stacks the races' (E, K) arrays into (R, E, K). Each
    estimator's values are pooled replication by replication, and the std
    is the sample standard deviation over all of them.
    """
    sq_dev = np.asarray(sq_dev, dtype=np.float64)
    if sq_dev.ndim != 3 or sq_dev.shape[1] != len(ESTIMATOR_NAMES):
        raise ValueError(f"need (R, E, K) squared deviations, got shape {sq_dev.shape}")
    summary = {}
    for e, name in enumerate(ESTIMATOR_NAMES):
        devs = sq_dev[:, e].reshape(-1)
        std = float(devs.std(ddof=1)) if devs.size > 1 else 0.0
        summary[name] = {"mean_sq_dev": float(devs.mean()), "std_sq_dev": std,
                         "n": int(devs.size)}
    return summary
