"""Shared independent oracles for gradient and variance checks.

Also home to the scalar mixing-coefficient reference (`optimal_coefficients`
with its `Coefficients`/`Degenerate` provenance flags) and the scalar
blended-variance reference (`blended_variance_term`, summed over
`StratumStats` by `predicted_variance_vsp`), which the vectorised
`stratgrad.estimators` kernels are checked against, and of
`uniform_rounds`/`normal_rounds`, one replication of rounds with
caller-chosen intervals or (mu, sigma) pairs, which
`population.generate_family` fixes per family; they draw each stratum of
each round from its own stream. `family_reference` is that generator as a
per-seed, per-round loop over 1-D strata from one stream per seed, which
the stacked `generate_family` must match bit for bit. The unstreamed
whole-batch passes (`unstreamed_*`) hold every row's activations at once, as `mlp` did
before it streamed row blocks, on their own forward pass
(`reference_forward`: `a @ w + b` and the two-branch sigmoid, never
`mlp`'s in-place one).
`coefficients_elementwise_reference` is the coefficient kernel with every
element taken down every branch by mask, and `blend_block_reference` the
mssg block update as that kernel followed by an out-of-place blend; the
kernel and `trainer._blend_block` are checked against them bit for bit.
`mssg_stored_state` is the mssg trainer that stores each class's previous
pilot mean and variance instead of recomputing them, which
`trainer.mssg_train` must match bit for bit.
Every oracle draws from `numpy_stream`, numpy's own seeding, and
`subsample_reference` is the desk subsample taken after indexing the whole
split. `scaled_features_reference` is the old whole-split conversion of
pixels to features (a float64 copy, then an in-place division by 255),
which `LabeledDataset.features` must match bit for bit. `copy_params` is
the parameter copy a test hands each run, since the trainers train in place.
`write_csv_reference` is the per-cell CSV writer that `dataio.write_csv`'s
block formatter replaced, with its own `_format_cell`, so the reference
shares no code with the writer it checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from stratgrad import mlp
from stratgrad.dataio import LabeledDataset
from stratgrad.estimators import ESTIMATOR_NAMES, Race, optimal_coefficients_elementwise
from stratgrad.population import (DECREASING_MEAN_INTERVALS, N_STRATA, RANDOM_PARAM_RANGE,
                                  PopulationRound, Trend, trend_schedules)
from stratgrad.trainer import BLOCK_ENTRIES


def numpy_stream(seed, *path: int) -> np.random.Generator:
    """numpy's own PCG64(SeedSequence(entropy)) stream for a (seed, *path) key.

    A tuple seed is spliced into the key, as `stratgrad.rng` does. The
    stream is built without `stratgrad.rng`, so oracles seeded here show a
    change to its key rule or its seeding.
    """
    entropy = [*seed, *path] if isinstance(seed, tuple) else [seed, *path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def copy_params(params: mlp.MlpParams) -> mlp.MlpParams:
    """An independent copy of every weight matrix and bias vector.

    The trainers train the parameters they are given in place, so a test
    that compares runs from one starting point hands each run a copy.
    """
    return mlp.MlpParams([w.copy() for w in params.weights], [b.copy() for b in params.biases])


def subsample_reference(dataset: LabeledDataset, per_class: int, seed) -> LabeledDataset:
    """Stratified subsample of a whole dataset: class c's sorted rows from (seed, c)."""
    rows = np.concatenate([
        np.sort(numpy_stream(seed, c).choice(idx, size=per_class, replace=False))
        for c, idx in enumerate(dataset.class_index)])
    return LabeledDataset(dataset.pixels[rows], dataset.labels[rows])


def scaled_features_reference(images: np.ndarray) -> np.ndarray:
    """Images flattened to rows, copied to float64 and divided by 255 in place."""
    features = images.reshape(images.shape[0], -1).astype(np.float64)
    features /= 255.0
    return features


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


def blended_variance_term(mean_prev: float, var_prev: float,
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
    limit handled per stratum, summed in stratum order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(stats_prev) != weights.size or len(stats_curr) != weights.size:
        raise ValueError("need previous and current stats for every stratum")
    total = 0.0
    for j in range(weights.size):
        term = blended_variance_term(stats_prev[j].mean, stats_prev[j].variance,
                                     stats_curr[j].mean, stats_curr[j].variance)
        total += weights[j] * weights[j] * term
    return float(total)


def stratified_variance(variances, weights) -> float:
    """Variance of the memoryless stratified estimator: sum_j w_j^2 V_j."""
    weights = np.asarray(weights, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if variances.shape != weights.shape:
        raise ValueError("need a variance for every stratum")
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


def numeric_gradient(params, features, labels, weight_decay, step=1e-5):
    """Central finite differences over every parameter entry."""
    grads = copy_params(params)
    for arrs, outs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for arr, out in zip(arrs, outs):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = mlp.loss(params, features, labels, weight_decay)
                arr[ix] = orig - step
                down = mlp.loss(params, features, labels, weight_decay)
                arr[ix] = orig
                out[ix] = (up - down) / (2 * step)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for ga, gn in ((analytic.weights, numeric.weights), (analytic.biases, numeric.biases)):
        for a, n in zip(ga, gn):
            rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float(rel.max()))
    return worst


def variance_zscore(samples: np.ndarray, predicted: float) -> float:
    """Asymptotic z of a sample variance against its predicted value."""
    emp = float(samples.var(ddof=1))
    centered = samples - samples.mean()
    m4 = float(np.mean(centered ** 4))
    se = float(np.sqrt(max(m4 - emp * emp, 0.0) / samples.size))
    if se == 0.0:
        return 0.0 if emp == predicted else float("inf")
    return (emp - predicted) / se


def two_branch_sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(params, features):
    """(acts, logits) as `mlp._forward_cached` returns them, out of place.

    Each layer is `a @ w + b` in fresh arrays, then the two-branch sigmoid
    or, at the output, the shifted softmax.
    """
    acts = [np.asarray(features, dtype=np.float64)]
    logits = None
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        if l == params.n_layers - 1:
            logits = z
            ez = np.exp(z - z.max(axis=1, keepdims=True))
            acts.append(ez / ez.sum(axis=1, keepdims=True))
        else:
            acts.append(two_branch_sigmoid(z))
    return acts, logits


def unstreamed_forward(params, features):
    """Class probabilities from one forward pass over every row at once."""
    return reference_forward(params, features)[0][-1]


def unstreamed_loss(params, features, labels, weight_decay):
    """Mean loss from one forward pass over every row at once."""
    labels = np.asarray(labels, dtype=np.int64)
    logits = reference_forward(params, features)[1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    data = float(np.mean(log_z - shifted[np.arange(labels.size), labels]))
    reg = 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in params.weights)
    return data + reg


def unstreamed_gradient(params, features, labels, weight_decay):
    """Whole-batch (gradient, acts, deltas) from one pass over every row.

    The pass `mlp.gradient` made before it streamed row blocks: every
    layer's activations and deltas for all n rows are held at once, the
    output delta is divided by n before it is propagated, and the gradient
    is A^T D + weight_decay * W with D summed over rows for the biases.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    acts, _ = reference_forward(params, features)
    delta = acts[-1].copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    deltas = [delta]
    for l in range(params.n_layers - 1, 0, -1):
        delta = (delta @ params.weights[l].T) * acts[l] * (1.0 - acts[l])
        deltas.append(delta)
    deltas.reverse()
    grad_w = [a.T @ d + weight_decay * w for a, d, w in zip(acts, deltas, params.weights)]
    return mlp.MlpParams(grad_w, [d.sum(axis=0) for d in deltas]), acts, deltas


def unstreamed_full_gradient_train(params, features, labels, steps, step_size, weight_decay):
    """`mlp.full_gradient_train` on :func:`unstreamed_gradient`.

    Returns (params, final_loss, matrix) as the trainer does: the matrix
    records entry (0, 0) of the last layer's weights.
    """
    params = copy_params(params)
    n = len(labels)
    matrix = np.empty((n, steps))
    for t in range(steps):
        grad, acts, deltas = unstreamed_gradient(params, features, labels, weight_decay)
        matrix[:, t] = acts[-2][:, 0] * (n * deltas[-1][:, 0]) \
            + weight_decay * params.weights[-1][0, 0]
        for l in range(params.n_layers):
            params.weights[l] -= step_size * grad.weights[l]
            params.biases[l] -= step_size * grad.biases[l]
    return params, unstreamed_loss(params, features, labels, weight_decay), matrix


def per_sample_grads(params, features, labels, weight_decay: float = 0.0):
    """One full gradient per sample.

    Returns a list with one (dw, db) pair per layer where dw has shape
    (n, fan_in, fan_out) and db has shape (n, fan_out). Every sample's
    gradient carries the weight-decay term, so the mean over samples equals
    the batch gradient of :func:`mlp.gradient`.
    """
    acts, deltas = mlp.forward_backward(params, features, labels)
    out = []
    for a, delta, w in zip(acts, deltas, params.weights):
        dw = np.einsum("bi,bo->bio", a, delta)
        if weight_decay:
            dw += weight_decay * w
        out.append((dw, delta.copy()))
    return out


def _pilot_stats(grads):
    """Two-pass elementwise sample mean and n-1 variance of per-sample gradients."""
    means, variances = [], []
    for dw, db in grads:
        means.append((dw.mean(axis=0), db.mean(axis=0)))
        variances.append((dw.var(axis=0, ddof=1), db.var(axis=0, ddof=1)))
    return means, variances


@dataclass
class MssgState:
    """The mssg class state after a reference run, plus the fallback count.

    ``memory``, ``prev_mean`` and ``prev_var`` hold one entry per class, each
    a list of (w, b) array pairs, one per layer: the blended-gradient memory
    and the last iteration's pilot mean and variance.
    """

    memory: list
    prev_mean: Optional[list] = None
    prev_var: Optional[list] = None
    fallbacks: int = 0


def mssg_reference(params, data, config):
    """The mssg iteration as a per-class, per-layer, per-(w, b) loop.

    Pilot stats come from materialised per-sample gradients and two-pass
    moments, one class at a time, with the same draws as
    :func:`trainer.mssg_train`. Returns the final parameters and an
    :class:`MssgState` with the final memory, the last pilot stats and the
    fallback count. No checkpoints.
    """
    n_classes = data.n_classes
    params = copy_params(params)
    class_w = data.class_weights()

    def zeros():
        return [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(params.weights, params.biases)]

    mem = MssgState([zeros() for _ in range(n_classes)])
    scale = config.step_size / n_classes
    for it in range(1, config.iterations + 1):
        direction = zeros()
        new_means, new_vars = [], []
        for c in range(n_classes):
            rng = numpy_stream(config.seed, it, c)
            idx = data.class_index[c]
            pilot_rows = rng.choice(idx, size=config.pilot_size, replace=False)
            pilot = per_sample_grads(params, data.features(pilot_rows),
                                     data.labels[pilot_rows], config.weight_decay)
            mean_c, var_c = _pilot_stats(pilot)
            fresh_row = int(rng.choice(idx))
            fresh = per_sample_grads(params, data.features([fresh_row]),
                                     data.labels[[fresh_row]], config.weight_decay)
            g_c = mem.memory[c]
            for l in range(params.n_layers):
                gw, gb = g_c[l]
                mw, mb = mean_c[l]
                fw, fb = fresh[l][0][0], fresh[l][1][0]
                if mem.prev_mean is None:
                    gw[...] = mw - fw
                    gb[...] = mb - fb
                else:
                    pmw, pmb = mem.prev_mean[c][l]
                    pvw, pvb = mem.prev_var[c][l]
                    vw, vb = var_c[l]
                    pw, qw, nfw = optimal_coefficients_elementwise(pmw, pvw, mw, vw)
                    pb, qb, nfb = optimal_coefficients_elementwise(pmb, pvb, mb, vb)
                    mem.fallbacks += nfw + nfb
                    gw[...] = pw * gw + qw * (mw - fw)
                    gb[...] = pb * gb + qb * (mb - fb)
                direction[l][0][...] += class_w[c] * (gw + mw)
                direction[l][1][...] += class_w[c] * (gb + mb)
            new_means.append(mean_c)
            new_vars.append(var_c)
        for l in range(params.n_layers):
            params.weights[l] -= scale * direction[l][0]
            params.biases[l] -= scale * direction[l][1]
        mem.prev_mean = new_means
        mem.prev_var = new_vars
    return params, mem


def coefficients_elementwise_reference(mean_prev, var_prev, mean_curr, var_curr):
    """`estimators.optimal_coefficients_elementwise` with every element in every branch.

    The pair's terms, the branch masks and each branch's values are formed
    over the whole broadcast shape and picked by mask, where the kernel
    gathers only the elements its main branch leaves unsettled. Same
    arguments, return value and ValueError.
    """
    mean_prev, var_prev, mean_curr, var_curr = np.broadcast_arrays(
        np.asarray(mean_prev, dtype=np.float64),
        np.asarray(var_prev, dtype=np.float64),
        np.asarray(mean_curr, dtype=np.float64),
        np.asarray(var_curr, dtype=np.float64),
    )
    shape = mean_prev.shape
    p, q, work = (np.empty(shape) for _ in range(3))
    fallback, both_zero, mask = (np.empty(shape, dtype=bool) for _ in range(3))
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


def _pilot_stats_reference(sums, sq_sums, pilot_size, weight_decay, param):
    """Pilot mean (decay-shifted by `param`) and clamped one-pass n-1 variance, out of place."""
    n = pilot_size
    mean = sums / n
    var = np.maximum((sq_sums - mean * mean * n) / (n - 1), 0.0)
    if weight_decay:
        mean = mean + weight_decay * param
    return mean, var


def stored_state_block_reference(sums, sq_sums, fresh, param, memory, prev_mean, prev_var,
                                 class_w, pilot_size, weight_decay, scale, first) -> int:
    """One mssg block update that reads and stores the previous pilot stats.

    `sums` and `sq_sums` are this pilot's (C, rows, cols) moments, and
    `prev_mean`/`prev_var` the stored stats of the last one, which this call
    overwrites with the new ones. The pair comes from
    `coefficients_elementwise_reference` and the memory is blended out of
    place as p * M + q * r. Returns the block's fallback count.
    """
    mean, var = _pilot_stats_reference(sums, sq_sums, pilot_size, weight_decay, param)
    resid = sums / pilot_size - fresh
    fallbacks = 0
    if first:
        memory[...] = resid
    else:
        p, q, fallbacks = coefficients_elementwise_reference(prev_mean, prev_var, mean, var)
        memory *= p
        memory += resid * q
    direction = class_w @ (memory + mean).reshape(class_w.size, -1)
    param -= (direction * scale).reshape(param.shape)
    prev_mean[...] = mean
    prev_var[...] = var
    return fallbacks


def blend_block_reference(sums, sq_sums, fresh, param, snapshot, memory, class_w, pilot_size,
                          weight_decay, scale) -> int:
    """`trainer._blend_block` as the previous pilot's stats, then the stored-state block.

    Same arguments, in-place updates and return value as the trainer's
    block update.
    """
    prev_mean, prev_var = _pilot_stats_reference(sums[0], sq_sums[0], pilot_size,
                                                 weight_decay, snapshot)
    if weight_decay:
        snapshot[...] = param
    return stored_state_block_reference(sums[-1], sq_sums[-1], fresh, param, memory, prev_mean,
                                        prev_var, class_w, pilot_size, weight_decay, scale,
                                        len(sums) == 1)


def mssg_stored_state(params, data, config):
    """The mssg trainer that keeps each class's last pilot mean and variance.

    Holds three (C, fan_in, fan_out) arrays per weight (memory, previous
    mean, previous variance) and streams each layer in row blocks through
    `stored_state_block_reference`, with the same draws, single
    forward/backward pass and batched pilot sums as `trainer.mssg_train`.
    Returns the final parameters and the fallback count. No checkpoints.
    """
    n_classes, n, wd = data.n_classes, config.pilot_size, config.weight_decay
    n_pilot = n_classes * n
    params = copy_params(params)
    class_w = data.class_weights()
    layers = list(zip(params.weights, params.biases))
    memory, prev_mean, prev_var = (
        [(np.zeros((n_classes,) + w.shape), np.zeros((n_classes,) + b.shape))
         for w, b in layers] for _ in range(3))
    scale = config.step_size / n_classes
    fallbacks = 0
    for it in range(1, config.iterations + 1):
        draws = []
        for c, idx in enumerate(data.class_index):
            rng = numpy_stream(config.seed, it, c)
            draws.append((rng.choice(idx, size=n, replace=False), rng.choice(idx)))
        rows = np.concatenate([pilot for pilot, _ in draws] + [[f for _, f in draws]])
        acts, deltas = mlp.forward_backward(params, data.features(rows), data.labels[rows])
        for l, (w, b) in enumerate(layers):
            fan_in, fan_out = w.shape
            a_t = np.ascontiguousarray(
                acts[l][:n_pilot].reshape(n_classes, n, fan_in).transpose(0, 2, 1))
            d = deltas[l][:n_pilot].reshape(n_classes, n, fan_out)
            a_fresh, d_fresh = acts[l][n_pilot:], deltas[l][n_pilot:]
            step = max(1, min(fan_in, BLOCK_ENTRIES // fan_out))
            for r0 in range(0, fan_in, step):
                blk = slice(r0, r0 + step)
                fallbacks += stored_state_block_reference(
                    a_t[:, blk] @ d, (a_t[:, blk] * a_t[:, blk]) @ (d * d),
                    a_fresh[:, blk, None] * d_fresh[:, None], w[blk], memory[l][0][:, blk],
                    prev_mean[l][0][:, blk], prev_var[l][0][:, blk], class_w, n, wd, scale,
                    it == 1)
            fallbacks += stored_state_block_reference(
                d.sum(axis=1, keepdims=True), (d * d).sum(axis=1, keepdims=True),
                d_fresh[:, None], b[None], memory[l][1][:, None], prev_mean[l][1][:, None],
                prev_var[l][1][:, None], class_w, n, 0.0, scale, it == 1)
    return params, fallbacks


def _rounds_reference(draw, params, n_per_round: int, seed) -> np.ndarray:
    """(K, N) values: one round per parameter pair, in the families' N_STRATA equal strata.

    Stratum j of round k is ``draw(numpy_stream(seed, k, j), a_k, b_k,
    n_per_round / N_STRATA)``, drawn on its own and concatenated.
    """
    if n_per_round <= 0 or n_per_round % N_STRATA != 0:
        raise ValueError(f"n_per_round={n_per_round} is not a positive multiple of {N_STRATA}")
    per = n_per_round // N_STRATA
    return np.array([np.concatenate([draw(numpy_stream(seed, k, j), a, b, per)
                                     for j in range(N_STRATA)])
                     for k, (a, b) in enumerate(params)])


def uniform_rounds(intervals, n_per_round: int, seed) -> PopulationRound:
    """One replication: a round of U(lo, hi) draws per interval, in the families' four strata."""
    return PopulationRound(
        _rounds_reference(np.random.Generator.uniform, intervals, n_per_round, seed)[None],
        [n_per_round // N_STRATA] * N_STRATA)


def normal_rounds(params, n_per_round: int, seed) -> PopulationRound:
    """One replication: a round of N(mu, sigma) draws per pair, in the families' four strata."""
    return PopulationRound(
        _rounds_reference(np.random.Generator.normal, params, n_per_round, seed)[None],
        [n_per_round // N_STRATA] * N_STRATA)


class PopulationReference(NamedTuple):
    """A population stack with the fields of `population.PopulationRound` that its users read."""

    values: np.ndarray
    sizes: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    truth: np.ndarray


def family_reference(family: Trend, seeds, n_per_round: int = 40,
                     n_rounds: int = 10) -> PopulationReference:
    """`population.generate_family` as a per-seed, per-round loop over 1-D strata.

    Each seed draws from one `numpy_stream(seed)`: the random family's
    (mu, sigma) pairs first, one scalar `uniform` call at a time, then each
    round's n_per_round values by one call per round. Every stratum is its
    own 1-D array, whose stats are `np.mean` and `np.var`, and a round's
    truth is the 1-D `np.dot` of the weights with its stratum means.
    """
    uniform = family in (Trend.UNIFORM_DEC, Trend.UNIFORM_INC)
    draw = np.random.Generator.uniform if uniform else np.random.Generator.normal
    lo, hi = RANDOM_PARAM_RANGE
    weights = np.full(N_STRATA, 1.0 / N_STRATA)
    values, means, variances, truth = [], [], [], []
    for seed in seeds:
        rng = numpy_stream(seed)
        if uniform:
            table = DECREASING_MEAN_INTERVALS if family is Trend.UNIFORM_DEC \
                else DECREASING_MEAN_INTERVALS[::-1]
            params = table[:n_rounds]
        elif family is Trend.NORMAL_RANDOM:
            params = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n_rounds)]
        else:
            params = trend_schedules(family, n_rounds)
        rounds = np.array([draw(rng, a, b, n_per_round) for a, b in params])
        blocks = [[b.copy() for b in np.split(row, N_STRATA)] for row in rounds]
        values.append(rounds)
        means.append([[float(np.mean(b)) for b in row] for row in blocks])
        variances.append([[float(np.var(b)) for b in row] for row in blocks])
        truth.append([float(np.dot(weights, np.array(m))) for m in means[-1]])
    return PopulationReference(np.array(values), np.full(N_STRATA, n_per_round // N_STRATA),
                               np.array(means), np.array(variances), np.array(truth))


def trace_estimators_reference(rounds, seeds, per_stratum: int = 1,
                               batch_size: int = 4) -> Race:
    """The estimator race as a per-replication, per-round, per-stratum loop.

    Replication r races on ``rounds.values[r]`` with the streams of
    ``seeds[r]``, or on ``rounds.values[0]`` when the stack holds one
    replication. Each round is split into one 1-D array per stratum. Their
    exact stats come from `np.mean`/`np.var` one stratum at a time, every
    draw is a `Generator.choice` call per stratum and round, and every
    mixing pair comes from the scalar `optimal_coefficients`. A
    replication's four streams are interleaved round by round, as
    :func:`estimators.trace_estimators` did before it drew each stream for
    all rounds at once and ran the rounds over all replications together.
    """
    estimates, sq_dev, truth = [], [], []
    fallbacks = 0
    stack = rounds.values if len(rounds.values) > 1 else [rounds.values[0]] * len(seeds)
    for replication, seed in zip(stack, seeds):
        rngs = [numpy_stream(seed, idx) for idx in range(len(ESTIMATOR_NAMES))]
        sizes = np.array([int(n) for n in rounds.sizes], dtype=np.float64)
        weights = sizes / sizes.sum()
        cuts = np.cumsum([int(n) for n in rounds.sizes])[:-1]
        rows = {name: [] for name in ESTIMATOR_NAMES}
        truths = []
        memory = prev = None
        for values in replication:
            blocks = [b.copy() for b in np.split(values, cuts)]
            stats = [(float(np.mean(b)), float(np.var(b))) for b in blocks]
            pooled = np.concatenate(blocks)

            def sample_means(rng):
                return np.array([rng.choice(b, size=per_stratum, replace=False).mean()
                                 for b in blocks])

            fresh = sample_means(rngs[0])
            if memory is None:
                memory = fresh
            else:
                blended = np.empty(len(blocks))
                for j, ((mp, vp), (mc, vc)) in enumerate(zip(prev, stats)):
                    c = optimal_coefficients(mp, vp, mc, vc)
                    fallbacks += c.is_fallback
                    blended[j] = c.p * memory[j] + c.q * fresh[j]
                memory = blended
            prev = stats
            rows["gmst"].append(float(np.dot(weights, memory)))
            rows["gst"].append(float(np.dot(weights, sample_means(rngs[1]))))
            rows["batch"].append(
                float(rngs[2].choice(pooled, size=batch_size, replace=True).mean()))
            rows["sgd"].append(float(pooled[rngs[3].integers(pooled.size)]))
            truths.append(float(np.dot(weights, np.array([np.mean(b) for b in blocks]))))
        estimates.append([rows[name] for name in ESTIMATOR_NAMES])
        sq_dev.append([[(e - t) * (e - t) for e, t in zip(rows[name], truths)]
                       for name in ESTIMATOR_NAMES])
        truth.append(truths)
    return Race(np.array(estimates), np.array(sq_dev), np.array(truth), fallbacks)


def _format_cell(value) -> str:
    """One CSV cell: 17 significant digits for a float, an int for an int or a bool."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv_reference(path, columns) -> None:
    """The per-row CSV writer: one `_format_cell` call per cell, one join per row."""
    names = list(columns)
    series = [columns[name] for name in names]
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        for i in range(len(series[0])):
            f.write(",".join(_format_cell(col[i]) for col in series) + "\n")


def read_csv_columns(path) -> dict[str, list[str]]:
    """Read a CSV written by `dataio.write_csv` back into string columns."""
    with open(path, "r", newline="") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path} is empty")
    names = lines[0].split(",")
    out: dict[str, list[str]] = {name: [] for name in names}
    for line in lines[1:]:
        for name, cell in zip(names, line.split(",")):
            out[name].append(cell)
    return out
