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

One kernel, :func:`optimal_coefficients_elementwise`, forms the mixing
pairs for every caller: the trainer's parameter-shaped statistics, the
race's (replication, stratum) arrays and the variance oracle's strata.
:func:`blended_variance` gives the variance of the optimal blend on the
same element-wise statistics, which the variance oracle checks against
Monte Carlo.

:func:`trace_estimators` races the four on the R replications of one
`population.PopulationRound` stack, or on one replication that R seeds
share as a broadcast view: it draws each replication's samples for all
rounds at once from its own streams, gathers them once over the stack,
then runs the rounds once over (replication, stratum) arrays
(:func:`gmst_step`, :func:`gst_estimate`), and returns (replication,
estimator, round) arrays of estimates and squared deviations that
:func:`summarize_traces` pools.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .population import PopulationRound, sample_strata
from .rng import spawn_rngs


def _pair_terms(mean_prev, var_prev, mean_curr, var_curr):
    """The main branch's numerators and denominator: (u, cc, den).

    u = mean_curr * mean_prev * var_curr, cc = mean_curr**2 * var_prev and
    den = cc + mean_prev**2 * var_curr, in fresh arrays of the (common)
    shape of the four statistics, so p = u / den and q = cc / den.
    """
    u, cc, den = (np.empty(mean_prev.shape) for _ in range(3))
    np.multiply(mean_curr, mean_curr, out=cc)
    cc *= var_prev
    np.multiply(mean_prev, mean_prev, out=den)
    den *= var_curr
    np.add(cc, den, out=den)
    np.multiply(mean_curr, mean_prev, out=u)
    u *= var_curr
    return u, cc, den


def _degenerate_pairs(mean_prev, var_prev, mean_curr, var_curr):
    """Every branch of the mixing pair, for elements the main branch does not settle.

    A denominator that is not positive (zero or NaN) stands for 1 in the
    division; a zero denominator or an unsatisfiable mean ratio falls back
    to (0, 1) unless both means are zero with var_curr > 0, which takes the
    limit (var_curr, var_prev) / (var_prev + var_curr); any |p| >= 1 left
    then falls back too. Returns (p, q, n_fallback).

    A trainer block leaves a few hundred elements here, where numpy's
    per-call cost dominates, so the steps make few calls: non-positive
    denominators are skipped rather than replaced by 1, the both-zero limit
    is formed only when some element takes it, and fallbacks are written
    once. Nothing divides by zero, and the limit meets inf / inf only
    through an infinite variance, whose products in `_pair_terms` have
    already raised the invalid-value state, so no errstate is needed.
    """
    p, q, den = _pair_terms(mean_prev, var_prev, mean_curr, var_curr)
    prev_zero = mean_prev == 0.0
    fallback = (den == 0.0) | (prev_zero & (mean_curr != 0.0))
    positive = den > 0.0
    np.divide(p, den, out=p, where=positive)  # elsewhere p / 1, bit for bit
    np.divide(q, den, out=q, where=positive)
    both_zero = prev_zero & (mean_curr == 0.0) & (var_curr > 0.0)
    if both_zero.any():
        fallback &= ~both_zero
        total = var_prev + var_curr
        np.copyto(total, 1.0, where=~(total > 0.0))
        np.divide(var_curr, total, out=p, where=both_zero)
        np.divide(var_prev, total, out=q, where=both_zero)
    fallback |= np.abs(p) >= 1.0  # a fallback's own p does not matter
    p[fallback] = 0.0
    q[fallback] = 1.0
    return p, q, int(np.count_nonzero(fallback))


def optimal_coefficients_elementwise(mean_prev, var_prev, mean_curr, var_curr):
    """Minimum-variance unbiased mixing pairs, element by element.

    p = mean_curr * mean_prev * var_curr / d and
    q = mean_curr**2 * var_prev / d with
    d = mean_curr**2 * var_prev + mean_prev**2 * var_curr, on the
    broadcast shape of the four statistics.

    Elements with degenerate statistics take explicit branches: both means
    zero (with var_curr > 0) uses the 0/0 := 1 limit p = var_curr /
    (var_prev + var_curr); a zero denominator, an unsatisfiable mean ratio
    (mean_prev = 0 with mean_curr != 0) or a blend with |p| >= 1 all fall
    back to (0, 1), the pure fresh draw. Returns (p, q, n_fallback) where
    n_fallback counts the elements that fell back; negative variances raise
    ValueError.

    The main branch is formed over every element. Only the elements it
    leaves with |p| >= 1 (which takes in a zero denominator and any NaN)
    or with mean_prev = 0 are gathered and go through the branches, so on
    trainer-sized blocks, where a few percent are such, a call costs little
    more than the main branch's passes. Every element gets the same bits
    as when all of them go through the branches.
    """
    mean_prev, var_prev, mean_curr, var_curr = np.broadcast_arrays(
        np.asarray(mean_prev, dtype=np.float64),
        np.asarray(var_prev, dtype=np.float64),
        np.asarray(mean_curr, dtype=np.float64),
        np.asarray(var_curr, dtype=np.float64),
    )
    if np.less(var_prev, 0.0).any() or np.less(var_curr, 0.0).any():
        raise ValueError("variances must be non-negative")
    p, q, den = _pair_terms(mean_prev, var_prev, mean_curr, var_curr)
    with np.errstate(divide="ignore", invalid="ignore"):  # unsettled: see below
        p /= den
        q /= den
    settled = np.empty(p.shape, dtype=bool)
    np.less(np.abs(p, out=den), 1.0, out=settled)  # den is spent; a NaN p is unsettled
    settled &= mean_prev != 0.0
    rest = np.flatnonzero(~settled)  # flat indices gather and scatter faster than a mask
    if not rest.size:
        return p, q, 0
    p_rest, q_rest, n_fallback = _degenerate_pairs(
        *(np.take(a, rest) for a in (mean_prev, var_prev, mean_curr, var_curr)))
    np.put(p, rest, p_rest)
    np.put(q, rest, q_rest)
    return p, q, n_fallback


def gst_estimate(sample_means, weights):
    """Weighted sum of per-stratum sample means over the last axis.

    Every leading axis is a separate estimate. Each one is formed as a 1-D
    dot product, so it has the bits of ``np.dot(weights, sample_means)``
    for that row (``sample_means @ weights`` and ``einsum`` do not).
    """
    weights = np.asarray(weights, dtype=np.float64)
    sample_means = np.asarray(sample_means, dtype=np.float64)
    if weights.ndim != 1 or sample_means.shape[-1:] != weights.shape:
        raise ValueError(f"need one sample mean per stratum for {weights.size} strata, "
                         f"got shape {sample_means.shape}")
    return np.matmul(sample_means[..., None, :], weights[:, None])[..., 0, 0]


def gmst_step(memory, fresh, mean_prev, var_prev, mean_curr, var_curr, weights):
    """Advance the per-stratum memory one round with a fresh sample mean per stratum.

    Per entry: the mixing pair from (previous stats, current stats), then
    ``p * memory + q * fresh``; the estimate is the weighted blend over the
    last (stratum) axis. Every leading axis is a separate replication.
    Returns the new memory (the input is left untouched), the estimate and
    the number of entries that fell back to the pure fresh draw.
    """
    memory = np.asarray(memory, dtype=np.float64)
    fresh = np.asarray(fresh, dtype=np.float64)
    if fresh.shape != memory.shape:
        raise ValueError(f"fresh means {fresh.shape} do not match the memory {memory.shape}")
    p, q, fallbacks = optimal_coefficients_elementwise(mean_prev, var_prev, mean_curr, var_curr)
    memory = p * memory + q * fresh
    return memory, gst_estimate(memory, weights), fallbacks


def blended_variance(mean_prev, var_prev, mean_curr, var_curr) -> np.ndarray:
    """Variance of the optimal blend ``p * old + q * fresh``, element by element.

    m_c**2 V_p V_c / (m_c**2 V_p + m_p**2 V_c) on the broadcast shape of the
    four statistics. Both means zero takes the 0/0 limit V_p V_c / (V_p +
    V_c), or 0 when both variances are 0; any other zero denominator means
    a zero-variance side covers the target exactly, so the variance is 0.
    This is the optimum even where `optimal_coefficients_elementwise` falls
    back to the fresh draw (|p| >= 1). Negative variances raise ValueError,
    as does a zero denominator from a zero previous mean against a nonzero
    current one with V_c > 0, where no blend is unbiased.
    """
    mean_prev, var_prev, mean_curr, var_curr = np.broadcast_arrays(
        np.asarray(mean_prev, dtype=np.float64),
        np.asarray(var_prev, dtype=np.float64),
        np.asarray(mean_curr, dtype=np.float64),
        np.asarray(var_curr, dtype=np.float64),
    )
    if (var_prev < 0.0).any() or (var_curr < 0.0).any():
        raise ValueError("variances must be non-negative")
    cc = mean_curr * mean_curr * var_prev
    den = cc + mean_prev * mean_prev * var_curr
    prev_zero = mean_prev == 0.0
    if (prev_zero & (mean_curr != 0.0) & (var_curr > 0.0) & ~(den > 0.0)).any():
        raise ValueError(
            "blended variance undefined: previous mean 0 with a nonzero current mean")
    both_zero = prev_zero & (mean_curr == 0.0)
    total = var_prev + var_curr
    with np.errstate(divide="ignore", invalid="ignore"):
        formula = np.where(~both_zero & (den > 0.0), cc * var_curr / den, 0.0)
        return np.where(both_zero & (total != 0.0), var_prev * var_curr / total, formula)


ESTIMATOR_NAMES = ("gmst", "gst", "batch", "sgd")


class Race(NamedTuple):
    """The four estimators' outputs over R replications.

    `estimates` and `sq_dev` are (R, E, K) arrays: one block per
    replication, one row per name in ESTIMATOR_NAMES and one column per
    round. `truth` is (R, K), each replication's exact pooled mean per round,
    and `fallbacks` counts the replication-strata-rounds where gmst fell
    back to the pure fresh draw.
    """

    estimates: np.ndarray
    sq_dev: np.ndarray
    truth: np.ndarray
    fallbacks: int


def trace_estimators(rounds: PopulationRound, seeds, per_stratum: int = 1,
                     batch_size: int = 4) -> Race:
    """Run all four estimators on R replications of a population stack and trace their errors.

    Replication r races on ``rounds.values[r]`` with the streams of
    ``seeds[r]``; a stack of one replication is raced by every seed, as a
    broadcast view. Sampling budgets per round: gmst and gst take
    `per_stratum` draws per stratum (without replacement), batch takes
    `batch_size` pooled draws with replacement, sgd takes one. gmst spends
    round 1 on initialization, where its estimate is the gst estimate of
    its own draws; every estimator reports one estimate per round. Mixing
    pairs use the exact per-round stats.

    Each estimator of a replication gets its own decoupled stream, so
    adding or removing one never perturbs the others; each stream is drawn
    for all rounds at once, in round order, so the draws equal a
    round-by-round loop's. The draws are gathered once over the stack, and
    the rounds then run once over every replication.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    n_reps = len(seeds)
    if not n_reps or rounds.n_reps not in (1, n_reps):
        raise ValueError(f"need one seed per replication, got {n_reps} seeds for "
                         f"{rounds.n_reps} replications")
    n_est = len(ESTIMATOR_NAMES)
    streams = spawn_rngs([(seed, idx) for seed in seeds for idx in range(n_est)])
    gmst_rngs, gst_rngs, batch_rngs, sgd_rngs = (streams[e::n_est] for e in range(n_est))
    gmst_means = sample_strata(rounds, per_stratum, gmst_rngs).mean(axis=3)
    gst_means = sample_strata(rounds, per_stratum, gst_rngs).mean(axis=3)
    values, means, variances, truth = (
        np.broadcast_to(a, (n_reps, *a.shape[1:]))
        for a in (rounds.values, rounds.means, rounds.variances, rounds.truth))
    n_rounds, n_values = values.shape[1:]
    # integers(0, N, size) reads the stream as choice(pooled, size, replace=True)
    batch = np.array([rng.integers(0, n_values, size=(n_rounds, batch_size))
                      for rng in batch_rngs])
    sgd = np.array([rng.integers(n_values, size=n_rounds) for rng in sgd_rngs])
    reps, rows = np.arange(n_reps)[:, None], np.arange(n_rounds)
    estimates = np.empty((n_reps, n_est, n_rounds))
    estimates[:, 2] = values[reps[..., None], rows[:, None], batch].mean(axis=2)
    estimates[:, 3] = values[reps, rows, sgd]

    weights = rounds.weights
    memory = gmst_means[:, 0]
    estimates[:, 0, 0] = gst_estimate(memory, weights)
    fallbacks = 0
    for k in range(1, n_rounds):
        memory, estimates[:, 0, k], n = gmst_step(
            memory, gmst_means[:, k], means[:, k - 1], variances[:, k - 1],
            means[:, k], variances[:, k], weights)
        fallbacks += n
    estimates[:, 1] = gst_estimate(gst_means, weights)
    dev = estimates - truth[:, None, :]
    return Race(estimates, dev * dev, np.array(truth), fallbacks)


def summarize_traces(sq_dev) -> dict:
    """Pooled mean/std of squared deviation per estimator.

    `sq_dev` is a race's (R, E, K) array. Each estimator's values are pooled
    replication by replication, and the std is the sample standard deviation
    over all of them.
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
