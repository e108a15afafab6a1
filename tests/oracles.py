"""Shared independent oracles for gradient and variance checks."""

from __future__ import annotations

import numpy as np

from stratgrad import mlp, trainer
from stratgrad.estimators import optimal_coefficients_elementwise
from stratgrad.rng import spawn_rng


def numeric_gradient(params, features, labels, weight_decay, step=1e-5):
    """Central finite differences over every parameter entry."""
    grads = params.copy()
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


def per_sample_grads(params, features, labels, weight_decay: float = 0.0):
    """One full gradient per sample.

    Returns a list with one (dw, db) pair per layer where dw has shape
    (n, fan_in, fan_out) and db has shape (n, fan_out). Every sample's
    gradient carries the weight-decay term, so the mean over samples equals
    the batch gradient of :func:`mlp.loss_and_grad`.
    """
    acts, _, deltas = mlp.forward_backward(params, features, labels)
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


def mssg_reference(params, data, config):
    """The mssg iteration as a per-class, per-layer, per-(w, b) loop.

    Pilot stats come from materialised per-sample gradients and two-pass
    moments, one class at a time, with the same draws as
    :func:`trainer.mssg_train`. Returns the final parameters and a
    :class:`trainer.ClassMemory` with the final memory, the last pilot
    stats and the fallback count. No checkpoints.
    """
    n_classes = data.n_classes
    params = params.copy()
    class_w = data.class_weights()

    def zeros():
        return [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(params.weights, params.biases)]

    mem = trainer.ClassMemory([zeros() for _ in range(n_classes)])
    scale = config.step_size / n_classes
    for it in range(1, config.iterations + 1):
        direction = zeros()
        new_means, new_vars = [], []
        for c in range(n_classes):
            rng = spawn_rng(config.seed, it, c)
            idx = data.class_index[c]
            pilot_rows = rng.choice(idx, size=config.pilot_size, replace=False)
            pilot = per_sample_grads(params, data.features[pilot_rows],
                                     data.labels[pilot_rows], config.weight_decay)
            mean_c, var_c = _pilot_stats(pilot)
            fresh_row = int(rng.choice(idx))
            fresh = per_sample_grads(params, data.features[[fresh_row]],
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
