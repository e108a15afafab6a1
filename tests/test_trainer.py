import math

import numpy as np
import pytest

from stratgrad import mlp, trainer
from stratgrad.cli import DESK_SHAPE
from stratgrad.dataio import LabeledDataset
from stratgrad.rng import spawn_rng
from stratgrad.trainer import (
    AccuracyReport,
    BaselineKind,
    ClassMemory,
    TrainConfig,
    accuracy,
    baseline_train,
    grid_search,
    mssg_train,
)

from oracles import mssg_reference, per_sample_grads


def blob_dataset(n_per_class, n_classes=3, n_features=6, seed=0, spread=0.08):
    """Well-separated class blobs with features in [0, 1]."""
    rng = spawn_rng(seed)
    centers = rng.uniform(0.2, 0.8, (n_classes, n_features))
    feats = np.vstack([
        np.clip(rng.normal(centers[c], spread, (n_per_class, n_features)), 0, 1)
        for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), n_per_class)
    order = rng.permutation(labels.size)
    return LabeledDataset(feats[order], labels[order])


def small_config(**overrides):
    base = dict(step_size=0.5, batch_size=4, iterations=5, weight_decay=0.001,
                seed=0, pilot_size=4, checkpoint_every=5)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------- config / report

def test_config_validation():
    with pytest.raises(ValueError):
        small_config(step_size=0.0)
    with pytest.raises(ValueError):
        small_config(pilot_size=1)
    with pytest.raises(ValueError):
        small_config(iterations=0)


def test_accuracy_report_bounds():
    with pytest.raises(ValueError):
        AccuracyReport(1, 1.2, 0.5, "x", 0.1, 0.0)


# ---------------------------------------------------------------- accuracy

def test_accuracy_zero_params_predicts_class_zero():
    data = blob_dataset(10, seed=1)
    params = mlp.MlpParams([np.zeros((6, 3))], [np.zeros(3)])
    expected = float(np.mean(data.labels == 0))
    assert accuracy(params, data) == expected


def test_accuracy_memorizing_params_hit_everything():
    # a one-layer map whose rows point at each sample's own class
    feats = np.eye(4)
    labels = np.array([0, 1, 2, 0])
    data = LabeledDataset(feats, labels)
    w = np.zeros((4, 3))
    for i, c in enumerate(labels):
        w[i, c] = 10.0
    params = mlp.MlpParams([w], [np.zeros(3)])
    assert accuracy(params, data) == 1.0


def test_accuracy_matches_confusion_matrix_scorer():
    data = blob_dataset(15, seed=2)
    params = mlp.init_params((6, 5, 3), seed=3)
    probs = mlp.forward_batch(params, data.features)
    confusion = np.zeros((3, 3), dtype=int)
    for row, label in zip(probs, data.labels):
        confusion[label, int(np.argmax(row))] += 1
    oracle = confusion.trace() / confusion.sum()
    assert accuracy(params, data) == oracle


# ---------------------------------------------------------------- mssg

def test_mssg_learns_separated_blobs():
    data = blob_dataset(30, seed=4)
    params = mlp.init_params((6, 5, 3), seed=5)
    config = small_config(iterations=40, step_size=1.0, pilot_size=6,
                          checkpoint_every=10)
    before = accuracy(params, data)
    trained, reports = mssg_train(params, data, config, data)
    assert len(reports) == 4
    assert reports[-1].iterations == 40
    assert reports[-1].train_accuracy > before


def test_mssg_reports_at_every_checkpoint():
    data = blob_dataset(12, seed=6)
    params = mlp.init_params((6, 4, 3), seed=7)
    config = small_config(iterations=7, checkpoint_every=3)
    _, reports = mssg_train(params, data, config, data)
    assert [r.iterations for r in reports] == [3, 6, 7]
    assert all(r.algorithm == "mssg" for r in reports)


def test_mssg_deterministic():
    data = blob_dataset(12, seed=8)
    params = mlp.init_params((6, 4, 3), seed=9)
    config = small_config(iterations=4)
    a, _ = mssg_train(params, data, config, data)
    b, _ = mssg_train(params, data, config, data)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_mssg_zero_variance_classes_follow_exact_class_gradient():
    # every class holds one repeated sample: the update must equal the
    # weighted per-class full gradient at every iteration
    rng = spawn_rng(10)
    protos = np.clip(rng.uniform(0.1, 0.9, (3, 5)), 0, 1)
    feats = np.repeat(protos, 6, axis=0)
    labels = np.repeat(np.arange(3), 6)
    data = LabeledDataset(feats, labels)
    params0 = mlp.init_params((5, 4, 3), seed=11)
    config = small_config(iterations=3, step_size=0.3, pilot_size=3,
                          weight_decay=0.01)
    trained, _ = mssg_train(params0, data, config, data)

    manual = params0.copy()
    class_w = data.class_weights()
    for _ in range(config.iterations):
        direction_w = [np.zeros_like(w) for w in manual.weights]
        direction_b = [np.zeros_like(b) for b in manual.biases]
        for c in range(3):
            _, grad = mlp.loss_and_grad(manual, protos[[c]], np.array([c]),
                                        config.weight_decay)
            for l in range(manual.n_layers):
                direction_w[l] += class_w[c] * grad.weights[l]
                direction_b[l] += class_w[c] * grad.biases[l]
        scale = config.step_size / 3
        for l in range(manual.n_layers):
            manual.weights[l] -= scale * direction_w[l]
            manual.biases[l] -= scale * direction_b[l]
    for wa, wb in zip(trained.weights, manual.weights):
        assert np.allclose(wa, wb, atol=1e-12)


def test_mssg_first_iteration_direction_is_unbiased():
    # freeze the parameters and replicate one iteration's direction: its
    # mean must match the full-batch gradient (scaled) on tracked entries
    data = blob_dataset(20, seed=12)
    params = mlp.init_params((6, 4, 3), seed=13)
    wd = 0.001
    _, full = mlp.loss_and_grad(params, data.features, data.labels, wd)
    class_w = data.class_weights()
    reps = 10 ** 4
    rng = spawn_rng(14)
    tracked = [(0, 1, 2), (0, 3, 0), (1, 2, 1)]
    sums = np.zeros(len(tracked))
    sq_sums = np.zeros(len(tracked))
    for _ in range(reps):
        direction = np.zeros(len(tracked))
        for c in range(3):
            idx = data.class_index[c]
            pilot = rng.choice(idx, size=4, replace=False)
            per = per_sample_grads(params, data.features[pilot], data.labels[pilot], wd)
            fresh_row = int(rng.choice(idx))
            fresh = per_sample_grads(params, data.features[[fresh_row]],
                                     data.labels[[fresh_row]], wd)
            for t, (l, i, o) in enumerate(tracked):
                mean_t = per[l][0][:, i, o].mean()
                fresh_t = fresh[l][0][0, i, o]
                g_t = mean_t - fresh_t  # first iteration: p = 0, q = 1
                direction[t] += class_w[c] * (g_t + mean_t)
        direction /= 3.0  # verbatim scale
        sums += direction
        sq_sums += direction ** 2
    means = sums / reps
    ses = np.sqrt((sq_sums / reps - means ** 2) / reps)
    for t, (l, i, o) in enumerate(tracked):
        target = full.weights[l][i, o] / 3.0
        assert abs(means[t] - target) <= 3 * ses[t] + 1e-12, tracked[t]


def test_mssg_memory_out_and_fallback_counter():
    data = blob_dataset(12, seed=15)
    params = mlp.init_params((6, 4, 3), seed=16)
    mem = ClassMemory([])
    mssg_train(params, data, small_config(iterations=4), data, memory_out=mem)
    assert len(mem.memory) == 3
    assert mem.fallbacks >= 0
    assert mem.prev_mean is not None


def test_mssg_rejects_empty_or_thin_classes():
    data = blob_dataset(3, seed=19)
    params = mlp.init_params((6, 4, 3), seed=20)
    with pytest.raises(ValueError):
        mssg_train(params, data, small_config(pilot_size=4), data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mssg_divergence_reports_iteration():
    data = blob_dataset(12, seed=21)
    params = mlp.init_params((6, 4, 3), seed=22)
    config = small_config(iterations=50, step_size=1e150, weight_decay=1e150,
                          checkpoint_every=100)
    with pytest.raises(RuntimeError, match="iteration"):
        mssg_train(params, data, config, data)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("shape", [(6, 4, 3), DESK_SHAPE])
def test_mssg_matches_two_pass_reference(shape, weight_decay):
    # The trainer's one batched pass, one-pass moments and row-block
    # streaming against the per-class loop over materialised per-sample
    # gradients. DESK_SHAPE's first layer spans several row blocks plus a
    # ragged last one. The arithmetic differs in order only, so parameters
    # must agree to 1e-10 relative and every coefficient branch must match.
    data = blob_dataset(12, n_classes=shape[-1], n_features=shape[0], seed=41)
    params = mlp.init_params(shape, seed=42)
    config = small_config(iterations=6, step_size=1.0, weight_decay=weight_decay)
    mem = ClassMemory([])
    trained, _ = mssg_train(params, data, config, data, memory_out=mem)
    expected, ref = mssg_reference(params, data, config)
    for got, want in zip(trained.weights + trained.biases,
                         expected.weights + expected.biases):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    decisions = (config.iterations - 1) * shape[-1] * sum(
        w.size + b.size for w, b in zip(params.weights, params.biases))
    assert 0 < ref.fallbacks < decisions  # both the guard and the formula ran
    assert mem.fallbacks == ref.fallbacks


def test_mssg_one_pass_variance_on_ill_conditioned_pilots():
    # Each class is one prototype plus 1e-7 jitter, so per-sample gradients
    # have |mean| far above their spread and the one-pass s2 - n*m^2 cancels
    # most digits. The result must stay non-negative and within a few ulps
    # of the sum of squares of the two-pass value: with S = (n-1)*v + n*m^2,
    # |v_one_pass - v_two_pass| <= 2 * (n + 3) * eps * S / (n - 1).
    rng = spawn_rng(43)
    protos = rng.uniform(0.2, 0.8, (3, 6))
    feats = np.repeat(protos, 10, axis=0) + rng.uniform(0, 1e-7, (30, 6))
    data = LabeledDataset(feats, np.repeat(np.arange(3), 10))
    params = mlp.init_params((6, 4, 3), seed=44)
    config = small_config(iterations=1, pilot_size=8, weight_decay=0.0)
    mem = ClassMemory([])
    mssg_train(params, data, config, data, memory_out=mem)
    _, ref = mssg_reference(params, data, config)
    n = config.pilot_size
    eps = np.finfo(np.float64).eps
    worst_ratio = 0.0
    for got_c, mean_c, var_c in zip(mem.prev_var, ref.prev_mean, ref.prev_var):
        for got_l, mean_l, var_l in zip(got_c, mean_c, var_c):
            for got, m, v in zip(got_l, mean_l, var_l):
                assert np.all(got >= 0.0)
                sq_sum = (n - 1) * v + n * m * m
                assert np.all(np.abs(got - v) <= 2 * (n + 3) * eps * sq_sum / (n - 1))
                spread = np.sqrt(v[v > 0])
                worst_ratio = max(worst_ratio, float(np.max(np.abs(m[v > 0]) / spread)))
    assert worst_ratio > 1e4


# ---------------------------------------------------------------- baselines

def test_batch_equal_to_full_gradient_when_batch_is_everything():
    data = blob_dataset(10, seed=23)
    params = mlp.init_params((6, 4, 3), seed=24)
    config = small_config(iterations=4, batch_size=data.n_samples, step_size=0.2)
    via_full, _ = mlp.full_gradient_train(params, data.features, data.labels, 4,
                                          0.2, config.weight_decay)
    for kind in (BaselineKind.BATCH, BaselineKind.FULL):
        trained, _ = baseline_train(params, data, config, kind, data)
        for got, want in zip(trained.weights + trained.biases,
                             via_full.weights + via_full.biases):
            assert np.array_equal(got, want)


def test_full_baseline_ignores_batch_size_and_reports_every_checkpoint():
    data = blob_dataset(10, seed=23)
    params = mlp.init_params((6, 4, 3), seed=24)
    config = small_config(iterations=5, batch_size=1000, checkpoint_every=2)
    _, reports = baseline_train(params, data, config, BaselineKind.FULL, data)
    assert [r.iterations for r in reports] == [2, 4, 5]
    assert all(r.algorithm == "fullgrad" for r in reports)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_full_baseline_divergence_reports_iteration():
    data = blob_dataset(12, seed=21)
    params = mlp.init_params((6, 4, 3), seed=22)
    config = small_config(iterations=50, step_size=1e150, weight_decay=1e150,
                          checkpoint_every=100)
    with pytest.raises(RuntimeError, match="fullgrad produced non-finite parameters at iteration"):
        baseline_train(params, data, config, BaselineKind.FULL, data)


def test_sgd_on_single_sample_is_deterministic_descent():
    feats = np.array([[0.2, 0.8, 0.4]])
    labels = np.array([1])
    data = LabeledDataset(feats, labels, [np.array([], dtype=int), np.array([0])])
    params = mlp.init_params((3, 2), seed=25)
    config = small_config(iterations=6, step_size=0.5, batch_size=1)
    trained, _ = baseline_train(params, data, config, BaselineKind.SGD, data)
    full, _ = mlp.full_gradient_train(params, feats, labels, 6, 0.5,
                                      config.weight_decay)
    for wa, wb in zip(trained.weights, full.weights):
        assert np.array_equal(wa, wb)


def test_sgd_multiplier_stretches_iterations():
    data = blob_dataset(10, seed=26)
    params = mlp.init_params((6, 4, 3), seed=27)
    config = small_config(iterations=3, checkpoint_every=1)
    _, reports = baseline_train(params, data, config, BaselineKind.SGD, data,
                                sgd_multiplier=4)
    assert [r.iterations for r in reports] == [4, 8, 12]
    assert all(r.algorithm == "sgd(x4)" for r in reports)


def test_stratified_direction_is_unbiased():
    data = blob_dataset(15, seed=28)
    params = mlp.init_params((6, 4, 3), seed=29)
    wd = 0.001
    _, full = mlp.loss_and_grad(params, data.features, data.labels, wd)
    class_w = data.class_weights()
    rng = spawn_rng(30)
    reps = 10 ** 4
    tracked = (0, 2, 1)
    values = np.empty(reps)
    for r in range(reps):
        rows = np.array([int(rng.choice(idx)) for idx in data.class_index])
        per = per_sample_grads(params, data.features[rows], data.labels[rows], wd)
        l, i, o = tracked
        values[r] = float(np.dot(class_w, per[l][0][:, i, o]))
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - full.weights[0][2, 1]) <= 3 * se


def test_baseline_validation():
    data = blob_dataset(10, seed=31)
    params = mlp.init_params((6, 4, 3), seed=32)
    with pytest.raises(ValueError):
        baseline_train(params, data, small_config(batch_size=1000), BaselineKind.BATCH,
                       data)
    with pytest.raises(ValueError):
        baseline_train(params, data, small_config(), BaselineKind.SGD, data,
                       sgd_multiplier=0)


# ---------------------------------------------------------------- grid search

def test_grid_search_cell_count_and_table():
    data = blob_dataset(10, seed=33)

    def train_fn(h, lam, iters):
        params = mlp.init_params((6, 4, 3), seed=34)
        trained, _ = mlp.full_gradient_train(params, data.features, data.labels,
                                             iters, h, lam)
        return trained

    best, cells = grid_search(train_fn, [0.01, 1, 0.001], [0.001, 0.0001], 3, data)
    assert len(cells) == 6
    assert best in cells
    assert best.test_accuracy == max(c.test_accuracy for c in cells)


def test_grid_search_single_cell():
    data = blob_dataset(8, seed=35)

    def train_fn(h, lam, iters):
        return mlp.init_params((6, 4, 3), seed=36)

    best, cells = grid_search(train_fn, [0.5], [0.01], 1, data)
    assert len(cells) == 1
    assert (best.step_size, best.weight_decay) == (0.5, 0.01)


def test_grid_search_tie_breaks_toward_smaller_values():
    data = blob_dataset(8, seed=37)
    fixed = mlp.init_params((6, 4, 3), seed=38)

    def train_fn(h, lam, iters):
        return fixed  # every cell scores identically

    best, _ = grid_search(train_fn, [1.0, 0.001, 0.01], [0.001, 0.0001], 1, data)
    assert (best.step_size, best.weight_decay) == (0.001, 0.0001)


def test_grid_search_deterministic():
    data = blob_dataset(10, seed=39)

    def train_fn(h, lam, iters):
        params = mlp.init_params((6, 4, 3), seed=40)
        config = small_config(step_size=h, weight_decay=lam, iterations=iters,
                              checkpoint_every=iters)
        trained, _ = mssg_train(params, data, config, data)
        return trained

    first = grid_search(train_fn, [0.5, 0.1], [0.001], 2, data)
    second = grid_search(train_fn, [0.5, 0.1], [0.001], 2, data)
    assert first[0] == second[0]
    assert first[1] == second[1]
