"""Stratified mean estimators and their variance calculus.

Four designs are raced throughout the package: ``sgd``, a single pooled
draw; ``batch``, the mean of a pooled mini-batch; ``gst``, the classic
stratified estimator, a weighted mean of one (or more) draws per stratum;
and ``gmst``, its memory-carrying variant, where each stratum keeps a
running value that is blended with a fresh draw as ``p * old + q * fresh``.

The mixing pair (p, q) is chosen per stratum so that the blend stays an
unbiased estimate of the current stratum mean, ``p / (1 - q) =
mean_curr / mean_prev``, while minimizing the blended variance. Under that
choice the combined estimator's variance is strictly below the memoryless
stratified one whenever all stratum variances are positive, and the part
of the variance carried in memory decays geometrically while the means
stay put.

The public functions that take the four statistics (mean_prev, var_prev,
mean_curr, var_curr) work element by element on their broadcast shape, in
float64, and raise ValueError on a negative variance. One kernel,
:func:`optimal_coefficients_elementwise`, forms the mixing pairs for every
caller: the trainer, the race and the variance oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .population import PopulationRound, sample_strata
from .rng import spawn_rngs


def _statistics(mean_prev, var_prev, mean_curr, var_curr):
    """The four statistics as float64 arrays of their broadcast shape."""
    stats = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64)
                                  for a in (mean_prev, var_prev, mean_curr, var_curr)))
    if np.less(stats[1], 0.0).any() or np.less(stats[3], 0.0).any():
        raise ValueError("variances must be non-negative")
    return stats


def _pair_terms(mean_prev, var_prev, mean_curr, var_curr):
    """The main branch's numerators of p and q and their denominator, in fresh arrays."""
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
    """The kernel's branches, for the elements its main branch does not settle.

    A denominator that is not positive (zero or NaN) stands for 1 in the
    division. A trainer block leaves a few hundred elements here, where
    numpy's per-call cost dominates, so the steps make few calls:
    non-positive denominators are skipped rather than replaced by 1, the
    both-zero limit is formed only when some element takes it, and fallbacks
    are written once. Nothing divides by zero, and the limit meets inf / inf
    only through an infinite variance, whose products in `_pair_terms` have
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
    """Minimum-variance unbiased mixing pairs.

    p = mean_curr * mean_prev * var_curr / d and
    q = mean_curr**2 * var_prev / d with
    d = mean_curr**2 * var_prev + mean_prev**2 * var_curr.

    Elements with degenerate statistics take explicit branches: both means
    zero (with var_curr > 0) uses the 0/0 := 1 limit p = var_curr /
    (var_prev + var_curr); a zero denominator, an unsatisfiable mean ratio
    (mean_prev = 0 with mean_curr != 0) or a blend with |p| >= 1 all fall
    back to (0, 1), the pure fresh draw. Returns (p, q, n_fallback) where
    n_fallback counts the elements that fell back.

    The main branch is formed over every element. Only the elements it
    leaves with |p| >= 1 (which takes in a zero denominator and any NaN)
    or with mean_prev = 0 are gathered and go through the branches, so on
    trainer-sized blocks, where a few percent are such, a call costs little
    more than the main branch's passes. Every element gets the same bits
    as when all of them go through the branches.
    """
    mean_prev, var_prev, mean_curr, var_curr = _statistics(mean_prev, var_prev, mean_curr,
                                                           var_curr)
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
    """Variance of the optimal blend ``p * old + q * fresh``: the variance oracle's prediction.

    m_c**2 V_p V_c / (m_c**2 V_p + m_p**2 V_c). Both means zero takes the
    0/0 limit V_p V_c / (V_p + V_c), or 0 when both variances are 0; any
    other zero denominator means a zero-variance side covers the target
    exactly, so the variance is 0. This is the optimum even where
    `optimal_coefficients_elementwise` falls back to the fresh draw
    (|p| >= 1). A zero denominator from a zero previous mean against a
    nonzero current one with V_c > 0, where no blend is unbiased, raises
    ValueError.
    """
    mean_prev, var_prev, mean_curr, var_curr = _statistics(mean_prev, var_prev, mean_curr,
                                                           var_curr)
    _, cc, den = _pair_terms(mean_prev, var_prev, mean_curr, var_curr)
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


def trace_estimators(rounds: PopulationRound, seeds, per_stratum: int = 1) -> Race:
    """Run all four estimators on R replications of a population stack and trace their errors.

    Replication r races on ``rounds.values[r]`` with the streams of
    ``seeds[r]``; a stack of one replication is raced by every seed, as a
    broadcast view. Sampling budgets per round: gmst and gst take
    `per_stratum` draws per stratum (without replacement), batch spends the
    same ``per_stratum * n_strata`` on pooled draws with replacement, and sgd
    takes one. gmst spends round 1 on initialization, where its estimate is
    the gst estimate of its own draws; every estimator reports one estimate
    per round. Mixing pairs use the exact per-round stats.

    Each estimator of a replication gets its own decoupled stream, so
    adding or removing one never perturbs the others; each stream is drawn
    for all rounds at once, in round order, so the draws equal a
    round-by-round loop's.
    """
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
    # per_stratum >= 1 here, as sample_strata checks it first. integers(0, N,
    # size) reads the stream as choice(pooled, size, replace=True)
    batch = np.array([rng.integers(0, n_values, size=(n_rounds, per_stratum * rounds.n_strata))
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
    """The summary CSV's columns: each estimator's mean and spread of squared deviation.

    `sq_dev` is a race's (R, E, K) array. Each estimator's R * K values are
    pooled replication by replication; the std is their sample standard
    deviation, or 0 for a single value.
    """
    sq_dev = np.asarray(sq_dev, dtype=np.float64)
    if sq_dev.ndim != 3 or sq_dev.shape[1] != len(ESTIMATOR_NAMES):
        raise ValueError(f"need (R, E, K) squared deviations, got shape {sq_dev.shape}")
    n_reps, n_est, n_rounds = sq_dev.shape
    pooled = sq_dev.transpose(1, 0, 2).reshape(n_est, -1)
    return {"estimator": list(ESTIMATOR_NAMES), "mean_sq_dev": pooled.mean(axis=1),
            "std_sq_dev": pooled.std(axis=1, ddof=int(pooled.shape[1] > 1)),
            "n_rounds": [n_rounds] * n_est, "n_seeds": [n_reps] * n_est}
