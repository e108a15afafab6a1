"""Shared independent oracles for gradient and variance checks."""

from __future__ import annotations

import numpy as np

from stratgrad import mlp, trainer
from stratgrad.dataio import _format_cell
from stratgrad.estimators import (ESTIMATOR_NAMES, Race, optimal_coefficients,
                                  optimal_coefficients_elementwise)
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


def trace_estimators_reference(rounds, per_stratum: int = 1, batch_size: int = 4,
                               seed=0) -> Race:
    """The estimator race as a per-round, per-stratum loop over 1-D blocks.

    Each round is split into one array per stratum. Their exact stats come
    from `np.mean`/`np.var` one stratum at a time, and every draw is a
    `Generator.choice` call per stratum and round. The four streams are
    interleaved round by round, as :func:`estimators.trace_estimators`
    did before it drew each stream for all rounds at once.
    """
    rngs = [spawn_rng(seed, idx) for idx in range(len(ESTIMATOR_NAMES))]
    sizes = np.array([int(n) for n in rounds.sizes], dtype=np.float64)
    weights = sizes / sizes.sum()
    cuts = np.cumsum([int(n) for n in rounds.sizes])[:-1]
    rows = {name: [] for name in ESTIMATOR_NAMES}
    truths = []
    memory = prev = None
    fallbacks = 0
    for values in rounds.values:
        blocks = [b.copy() for b in np.split(values, cuts)]
        stats = [(float(np.mean(b)), float(np.var(b))) for b in blocks]
        truth = float(np.dot(weights, np.array([np.mean(b) for b in blocks])))
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
        rows["batch"].append(float(rngs[2].choice(pooled, size=batch_size, replace=True).mean()))
        rows["sgd"].append(float(pooled[rngs[3].integers(pooled.size)]))
        truths.append(truth)
    estimates = np.array([rows[name] for name in ESTIMATOR_NAMES])
    sq_dev = np.array([[(e - t) * (e - t) for e, t in zip(rows[name], truths)]
                       for name in ESTIMATOR_NAMES])
    return Race(estimates, sq_dev, np.array(truths), fallbacks)


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
