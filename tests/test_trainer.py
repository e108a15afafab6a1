import math
import tracemalloc

import numpy as np
import pytest

from stratgrad import cli, mlp, trainer
from stratgrad.cli import DESK_SHAPE, FULL_SHAPE
from stratgrad.dataio import LabeledDataset, to_dataset
from stratgrad.estimators import optimal_coefficients_elementwise
from stratgrad.rng import spawn_rng
from stratgrad.trainer import (
    ALGORITHMS,
    AccuracyReport,
    TrainConfig,
    _blend_block,
    accuracy,
    train,
)

from oracles import (
    copy_params,
    blend_block_reference,
    mssg_reference,
    mssg_stored_state,
    numpy_stream,
    per_sample_grads,
    scaled_features_reference,
)


def to_pixels(feats):
    """Values in [0, 1] as the nearest uint8 pixels."""
    return np.rint(np.asarray(feats) * 255.0).astype(np.uint8)


def blob_dataset(n_per_class, n_classes=3, n_features=6, seed=0, spread=0.08):
    """Well-separated class blobs, stored as uint8 pixels."""
    rng = spawn_rng(seed)
    centers = rng.uniform(0.2, 0.8, (n_classes, n_features))
    feats = np.vstack([
        np.clip(rng.normal(centers[c], spread, (n_per_class, n_features)), 0, 1)
        for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), n_per_class)
    order = rng.permutation(labels.size)
    return LabeledDataset(to_pixels(feats[order]), labels[order])


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
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        small_config(batch_size=0)
    small_config(batch_size=None, pilot_size=None)  # for a trainer that reads neither
    for field, value in (("step_size", np.nan), ("step_size", np.inf), ("step_size", -0.5),
                         ("weight_decay", -0.5), ("weight_decay", np.nan),
                         ("weight_decay", np.inf)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            small_config(**{field: value})


def test_accuracy_report_bounds():
    with pytest.raises(ValueError):
        AccuracyReport(1, 1.2, 0.5)


# ---------------------------------------------------------------- accuracy

def test_accuracy_zero_params_predicts_class_zero():
    data = blob_dataset(10, seed=1)
    params = mlp.MlpParams([np.zeros((6, 3))], [np.zeros(3)])
    expected = float(np.mean(data.labels == 0))
    assert accuracy(params, data) == expected


def test_accuracy_memorizing_params_hit_everything():
    # a one-layer map whose rows point at each sample's own class
    labels = np.array([0, 1, 2, 0])
    data = LabeledDataset(np.eye(4, dtype=np.uint8) * 255, labels)
    w = np.zeros((4, 3))
    for i, c in enumerate(labels):
        w[i, c] = 10.0
    params = mlp.MlpParams([w], [np.zeros(3)])
    assert accuracy(params, data) == 1.0


def test_accuracy_matches_confusion_matrix_scorer():
    data = blob_dataset(15, seed=2)
    params = mlp.init_params((6, 5, 3), seed=3)
    probs = mlp.forward_batch(params, data.features())
    confusion = np.zeros((3, 3), dtype=int)
    for row, label in zip(probs, data.labels):
        confusion[label, int(np.argmax(row))] += 1
    oracle = confusion.trace() / confusion.sum()
    assert accuracy(params, data) == oracle


def test_accuracy_never_holds_a_float_copy_of_the_split():
    # Three and a half blocks of MNIST-sized rows: a float copy of the split
    # is 8 bytes a pixel (22 MB), one decoded block under a third of that.
    n = 3 * mlp.BLOCK_ROWS + 500
    rng = spawn_rng(70)
    images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, n)
    params = mlp.init_params((784, 8, 10), seed=71)
    tracemalloc.start()
    try:
        score = accuracy(params, to_dataset(images, labels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float_copy = images.size * 8
    assert peak < float_copy / 2
    probs = mlp.forward_batch(params, scaled_features_reference(images))
    assert score == float(np.mean(np.argmax(probs, axis=1) == labels))


# Traced bytes beyond the arrays a memory bound names: the probabilities,
# the argmax and label comparisons, index arrays and Python objects.
TRACE_SLACK = 2 ** 20


def scoring_block_bytes():
    """At FULL_SHAPE, one decoded block plus two (BLOCK_ROWS, 500) arrays."""
    return 8 * mlp.BLOCK_ROWS * (FULL_SHAPE[0] + 2 * max(FULL_SHAPE[1:-1]))


def test_accuracy_scores_a_block_with_one_layer_output_at_a_time():
    # A scoring block holds at most its decoded rows, one layer's output and
    # the sigmoid's temporary (13.9 MiB at FULL_SHAPE); keeping every layer's
    # output, as a backward pass needs, peaks 4 MiB higher.
    n = 2 * mlp.BLOCK_ROWS + 100
    rng = spawn_rng(80)
    data = LabeledDataset(rng.integers(0, 256, (n, FULL_SHAPE[0]), dtype=np.uint8),
                          rng.integers(0, FULL_SHAPE[-1], n))
    params = mlp.init_params(FULL_SHAPE, seed=81)
    tracemalloc.start()
    try:
        accuracy(params, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < scoring_block_bytes() + TRACE_SLACK


# ---------------------------------------------------------------- mssg

def test_mssg_learns_separated_blobs():
    data = blob_dataset(30, seed=4)
    params = mlp.init_params((6, 5, 3), seed=5)
    config = small_config(iterations=40, step_size=1.0, pilot_size=6,
                          checkpoint_every=10)
    before = accuracy(params, data)
    trained, reports, _ = train(params, data, config, "mssg", data)
    assert len(reports) == 4
    assert reports[-1].iterations == 40
    assert reports[-1].train_accuracy > before


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_reports_at_every_checkpoint(algorithm):
    # fullgrad reads no batch_size, so one larger than the dataset is no error
    data = blob_dataset(12, seed=6)
    params = mlp.init_params((6, 4, 3), seed=7)
    batch_size = 1000 if algorithm == "fullgrad" else 4
    config = small_config(iterations=7, checkpoint_every=3, batch_size=batch_size)
    _, reports, fallbacks = train(params, data, config, algorithm, data)
    assert [r.iterations for r in reports] == [3, 6, 7]
    assert algorithm == "mssg" or fallbacks == 0  # a baseline has no mixing coefficients


def test_train_refuses_an_unknown_algorithm_by_name_before_any_step(monkeypatch):
    data = blob_dataset(12, seed=6)
    params = mlp.init_params((6, 4, 3), seed=7)
    start = copy_params(params)
    monkeypatch.setattr(trainer, "spawn_rng", lambda *_: pytest.fail("a stream was built"))
    with pytest.raises(ValueError, match="unknown algorithm 'adam'"):
        train(params, data, small_config(), "adam", data)
    for got, old in zip(params.weights + params.biases, start.weights + start.biases):
        assert got.tobytes() == old.tobytes()


def test_mssg_deterministic():
    data = blob_dataset(12, seed=8)
    params = mlp.init_params((6, 4, 3), seed=9)
    config = small_config(iterations=4)
    a, _, _ = train(copy_params(params), data, config, "mssg", data)
    b, _, _ = train(copy_params(params), data, config, "mssg", data)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_mssg_zero_variance_classes_follow_exact_class_gradient():
    # every class holds one repeated sample: the update must equal the
    # weighted per-class full gradient at every iteration
    rng = spawn_rng(10)
    pixels = to_pixels(rng.uniform(0.1, 0.9, (3, 5)))
    labels = np.repeat(np.arange(3), 6)
    data = LabeledDataset(np.repeat(pixels, 6, axis=0), labels)
    protos = pixels / 255.0
    params0 = mlp.init_params((5, 4, 3), seed=11)
    config = small_config(iterations=3, step_size=0.3, pilot_size=3,
                          weight_decay=0.01)
    trained, _, _ = train(copy_params(params0), data, config, "mssg", data)

    manual = copy_params(params0)
    class_w = data.class_weights()
    for _ in range(config.iterations):
        direction_w = [np.zeros_like(w) for w in manual.weights]
        direction_b = [np.zeros_like(b) for b in manual.biases]
        for c in range(3):
            grad = mlp.gradient(manual, protos[[c]], np.array([c]), config.weight_decay)
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
    # One first-iteration _blend_block call on a (1, R) block whose R columns
    # are independent replications. Class c's pilot and fresh gradients are
    # N(mu_c, sigma_c^2), so the direction sum_c w_c (2 pilot_mean_c - fresh_c
    # + decay * theta) has mean sum_c w_c (mu_c + decay * theta) and variance
    # sum_c w_c^2 sigma_c^2 (1 + 4 / n).
    reps, n, theta, decay = 20_000, 4, 0.7, 0.1
    mu, sigma = np.array([1.0, -2.0, 0.5]), np.array([1.0, 2.0, 0.5])
    class_w = np.array([0.5, 0.3, 0.2])
    rng = spawn_rng(14)
    pilot = rng.normal(mu[:, None, None], sigma[:, None, None], (3, n, reps))
    fresh = rng.normal(mu[:, None], sigma[:, None], (3, reps))
    param = np.full((1, reps), theta)
    memory = np.zeros((3, 1, reps))
    fallbacks = trainer._blend_block(
        pilot.sum(axis=1)[None, :, None], (pilot * pilot).sum(axis=1)[None, :, None],
        fresh[:, None], param, np.zeros((1, reps)), memory, class_w, n, decay, 1.0)
    assert fallbacks == 0
    direction = theta - param[0]  # the step at scale 1
    target = float(class_w @ (mu + decay * theta))
    assert abs(direction.mean() - target) <= 3 * direction.std(ddof=1) / math.sqrt(reps)
    predicted = float(np.sum(class_w ** 2 * sigma ** 2) * (1 + 4 / n))
    assert abs(direction.var(ddof=1) / predicted - 1) <= 0.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_divergence_reports_the_algorithm_and_iteration(algorithm):
    data = blob_dataset(12, seed=21)
    params = mlp.init_params((6, 4, 3), seed=22)
    config = small_config(iterations=50, step_size=1e150, weight_decay=1e150,
                          checkpoint_every=100)
    with pytest.raises(RuntimeError,
                       match=f"{algorithm} produced non-finite parameters at iteration"):
        train(params, data, config, algorithm, data)


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
    trained, _, fallbacks = train(copy_params(params), data, config, "mssg", data)
    expected, ref = mssg_reference(params, data, config)
    for got, want in zip(trained.weights + trained.biases,
                         expected.weights + expected.biases):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    decisions = (config.iterations - 1) * shape[-1] * sum(
        w.size + b.size for w, b in zip(params.weights, params.biases))
    assert 0 < ref.fallbacks < decisions  # both the guard and the formula ran
    assert fallbacks == ref.fallbacks


def test_mssg_extends_the_cli_prefix_as_the_reference_does():
    # The CLI hands every trainer a (seed, tag) prefix, and mssg draws every
    # iteration's rows from that one stream, as the baselines do.
    data = blob_dataset(12, n_classes=3, n_features=6, seed=43)
    params = mlp.init_params((6, 4, 3), seed=44)
    config = small_config(iterations=4, step_size=1.0, seed=(3, cli._TRAIN_STREAM))
    trained, _, _ = train(copy_params(params), data, config, "mssg", data)
    expected, _ = mssg_reference(params, data, config)
    for got, want in zip(trained.weights + trained.biases, expected.weights + expected.biases):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def kernel_spy(monkeypatch):
    """Record the arguments of every coefficient-kernel call the trainer makes."""
    calls = []

    def spy(*args):
        calls.append([np.array(a) for a in args])
        return optimal_coefficients_elementwise(*args)

    monkeypatch.setattr(trainer, "optimal_coefficients_elementwise", spy)
    return calls


def test_mssg_one_pass_variance_on_ill_conditioned_pilots(monkeypatch):
    # Each class is one prototype plus 1e-7 jitter, so per-sample gradients
    # have |mean| far above their spread and the one-pass s2 - n*m^2 cancels
    # most digits. The trainer's block kernel, fed pilot sums formed as the
    # trainer forms them in both of its pilot slots, must hand the mixing
    # kernel previous and current variances that are non-negative and
    # within a few ulps of the sum of squares of the two-pass value: with
    # S = (n-1)*v + n*m^2, |v_one_pass - v_two_pass| <= 2 * (n + 3) * eps * S / (n - 1).
    # The jitter is far below a pixel step, so the features bypass the
    # dataset, which here only supplies the class index and weights.
    rng = spawn_rng(43)
    protos = rng.uniform(0.2, 0.8, (3, 6))
    feats = np.repeat(protos, 10, axis=0) + rng.uniform(0, 1e-7, (30, 6))
    data = LabeledDataset(np.zeros((30, 1), np.uint8), np.repeat(np.arange(3), 10))
    params = mlp.init_params((6, 4, 3), seed=44)
    n, n_classes = 8, data.n_classes
    # the first iteration's class-major pilot rows under seed 0
    rows = np.concatenate([numpy_stream(0, 1, c).choice(idx, size=n, replace=False)
                           for c, idx in enumerate(data.class_index)])
    acts, deltas = mlp.forward_backward(params, feats[rows], data.labels[rows])
    per = per_sample_grads(params, feats[rows], data.labels[rows])
    calls = kernel_spy(monkeypatch)
    eps = np.finfo(np.float64).eps
    worst_ratio = 0.0
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a_t = np.ascontiguousarray(acts[l].reshape(n_classes, n, -1).transpose(0, 2, 1))
        d = deltas[l].reshape(n_classes, n, -1)
        pilot_sums = [(np.matmul(a_t, d), np.matmul(a_t * a_t, d * d)),
                      (d.sum(axis=1, keepdims=True), (d * d).sum(axis=1, keepdims=True))]
        for param, (sums, sq_sums), grads in zip((w, b[None]), pilot_sums, per[l]):
            shape = sums.shape
            calls.clear()
            _blend_block(np.stack([sums, sums]), np.stack([sq_sums, sq_sums]), np.zeros(shape),
                         param.copy(), None, np.zeros(shape), data.class_weights(), n, 0.0, 1.0)
            (_, prev_var, _, var), = calls
            grads = grads.reshape((n_classes, n) + shape[1:])
            m, v = grads.mean(axis=1), grads.var(axis=1, ddof=1)
            sq_sum = (n - 1) * v + n * m * m
            for got in (prev_var, var):
                assert np.all(got >= 0.0)
                assert np.all(np.abs(got - v) <= 2 * (n + 3) * eps * sq_sum / (n - 1))
            spread = np.sqrt(v[v > 0])
            worst_ratio = max(worst_ratio, float(np.max(np.abs(m[v > 0]) / spread)))
    assert worst_ratio > 1e4


# Values that take the coefficient kernel down each of its branches or
# through IEEE edge cases: NaN of both signs, infinities, signed zeros, the
# smallest subnormal, a mid subnormal and the smallest normal.
SPECIAL_VALUES = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                           1e-310, -1e-310, np.finfo(np.float64).tiny])


def special_value_block(k):
    """Arguments of one `_blend_block` call, salted with special values.

    Both pilots' statistics are gradient-sized (1e-3) or unit-sized at
    random. A tenth of every input is replaced by a special value
    (non-negative ones in the sums of squares), a tenth of the parameter
    and snapshot entries by a signed zero, so that zero and subnormal sums
    reach the kernel undecayed, and a tenth of the entries are zero-pixel
    entries (zero pilot sums and fresh gradient in both pilots). The first
    row of class 0 gets a previous pilot with m_p = m_c and
    V_p = V_c * 2**-j for j in 51..55, so that |p| = 1 / (1 + 2**-j) lies
    within a few ulps of 1: its current pilot is centred, so that n*m^2 is
    far below the variance, and the previous sum of squares adds
    (n - 1) * V_c * 2**-j to n*m^2.
    """
    rng = spawn_rng(61, k)
    n, shape = 4, (3, 4, 5)
    scale = np.where(rng.random(shape) < 0.5, 1e-3, 1.0)
    pilot = rng.normal(rng.normal(0, 1, (2,) + shape)[:, :, None], 1, (2, 3, n) + shape[1:])
    pilot *= scale[:, None]
    pilot[1, 0, :, 0] -= pilot[1, 0, :, 0].mean(axis=0)
    sums, sq_sums = pilot.sum(axis=2), (pilot * pilot).sum(axis=2)
    fresh, memory = (rng.normal(0, 1, shape) * scale for _ in range(2))
    param, snapshot = rng.normal(0, 1, (2,) + shape[1:])
    for a in (sums, fresh, memory):
        hit = rng.random(a.shape) < 0.1
        a[hit] = rng.choice(SPECIAL_VALUES, hit.sum())
    hit = rng.random(sq_sums.shape) < 0.1
    sq_sums[hit] = np.abs(rng.choice(SPECIAL_VALUES, hit.sum()))
    for a in (param, snapshot):
        hit = rng.random(a.shape) < 0.1
        a[hit] = rng.choice([0.0, -0.0], hit.sum())
    zero = rng.random(shape) < 0.1
    for a in (sums, sq_sums):
        a[:, zero] = 0.0
    fresh[zero] = 0.0
    pre = sums[1, 0, 0] / n
    var = np.maximum((sq_sums[1, 0, 0] - pre * pre * n) / (n - 1), 0.0)
    sums[0, 0, 0] = sums[1, 0, 0]
    snapshot[0] = param[0]
    sq_sums[0, 0, 0] = pre * pre * n + (n - 1) * var * 2.0 ** -rng.integers(51, 56, shape[2])
    class_w = rng.uniform(0.1, 1.0, 3)
    return sums, sq_sums, fresh, param, snapshot, memory, class_w / class_w.sum(), n


def _same_bits(got, want):
    """Equal bit patterns, except that any NaN matches any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all((got.view(np.int64) == want.view(np.int64))
                       | (np.isnan(got) & np.isnan(want))))


def _special_kinds(x):
    """Which of NaN, +-inf, +-0 and subnormal occur in `x`."""
    zero, negative = x == 0, np.signbit(x)
    hits = {"nan": np.isnan(x), "inf": np.isposinf(x), "-inf": np.isneginf(x),
            "0": zero & ~negative, "-0": zero & negative,
            "subnormal": (x != 0) & (np.abs(x) < np.finfo(np.float64).tiny)}
    return {kind for kind, hit in hits.items() if hit.any()}


@pytest.mark.parametrize("first", [False, True])
def test_blend_block_equals_reference_on_special_values(monkeypatch, first):
    # The block forms both pilots' stats with the same operations, the
    # kernel settles most entries on its main branch and gathers the rest,
    # and the blend works in place; against the reference, which forms the
    # stats out of place, takes every entry down every branch and blends out
    # of place, the tolerance is zero: every output bit and the fallback
    # count must agree. NaN payloads may differ. The special values must
    # reach the kernel through the block on both the previous and the
    # current side.
    calls = kernel_spy(monkeypatch)
    near_one = fallbacks = 0
    seen = [set() for _ in range(4)]
    for k in range(300):
        sums, sq_sums, fresh, param, snapshot, memory, class_w, n = special_value_block(k)
        if first:  # this pilot alone
            sums, sq_sums = sums[1:], sq_sums[1:]
        runs = []
        for blend in (_blend_block, blend_block_reference):
            state = [param.copy(), snapshot.copy(), memory.copy()]
            with np.errstate(all="ignore"):  # inf * 0 and the like, in both paths
                count = blend(sums, sq_sums, fresh, *state, class_w, n, 1e-3, 0.5)
            runs.append((count, state))
        (got_count, got), (want_count, want) = runs
        assert got_count == want_count, k
        for g, w in zip(got, want):
            assert _same_bits(g, w), k
        fallbacks += want_count
        if not first:
            (prev_mean, prev_var, mean, var), = calls
            calls.clear()
            for kinds, x in zip(seen, (prev_mean, prev_var, mean, var)):
                kinds |= _special_kinds(x)
            with np.errstate(all="ignore"):
                den = mean * mean * prev_var + prev_mean * prev_mean * var
                raw = mean * prev_mean * var / den
            near_one += int(np.count_nonzero(np.abs(np.abs(raw) - 1.0) <= 4 * 2.0 ** -53))
    assert calls == []
    if not first:
        assert fallbacks > 300
        assert near_one > 100  # the |p| = 1 boundary was exercised
        means = {"nan", "inf", "-inf", "0", "-0", "subnormal"}
        variances = {"nan", "inf", "0", "subnormal"}
        assert seen == [means, variances, means, variances]


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_blend_block_trains_like_reference(monkeypatch, weight_decay):
    # Trainer-shaped blocks: DESK_SHAPE, several row blocks per layer, and
    # input pixels that are zero in every row, whose weight entries have
    # m = lambda * W and V = 0 on both sides (den == 0, a fallback) on every
    # iteration. No errstate here: the block update must not warn on them.
    # Over 20 iterations the parameters and the fallback count must agree
    # bit for bit with the trainer on the reference block, and with the
    # stored-state trainer, which keeps each class's previous pilot mean and
    # variance in two more (C, ...) arrays per layer instead of recomputing
    # them from the kept pilot factors and weight snapshot.
    rng = spawn_rng(62)
    n_classes, per_class = DESK_SHAPE[-1], 12
    pixels = rng.integers(0, 256, (n_classes * per_class, DESK_SHAPE[0]), dtype=np.uint8)
    pixels[:, rng.random(DESK_SHAPE[0]) < 0.2] = 0
    data = LabeledDataset(pixels, np.repeat(np.arange(n_classes), per_class))
    params = mlp.init_params(DESK_SHAPE, seed=63)
    config = small_config(iterations=20, step_size=1.0, weight_decay=weight_decay,
                          checkpoint_every=20)
    got, _, got_fallbacks = train(copy_params(params), data, config, "mssg", data)
    stored, stored_fallbacks = mssg_stored_state(params, data, config)
    monkeypatch.setattr(trainer, "_blend_block", blend_block_reference)
    want, _, want_fallbacks = train(copy_params(params), data, config, "mssg", data)
    assert got_fallbacks == want_fallbacks == stored_fallbacks > 0
    for g, w, s in zip(got.weights + got.biases, want.weights + want.biases,
                       stored.weights + stored.biases):
        assert g.tobytes() == w.tobytes() == s.tobytes()


def test_mssg_peak_memory_is_one_state_array_plus_small_change():
    # The per-class state is one (C, ...) memory array per layer; the
    # previous pilot's stats are recomputed, not stored. Storing them too
    # would hold three such arrays and trace well above 3x one of them.
    shape, per_class = (200, 300, 300, 10), 300
    rng = spawn_rng(64)
    pixels = rng.integers(0, 256, (shape[-1] * per_class, shape[0]), dtype=np.uint8)
    data = LabeledDataset(pixels, np.repeat(np.arange(shape[-1]), per_class))
    params = mlp.init_params(shape, seed=65)
    config = small_config(iterations=3, weight_decay=1e-3, pilot_size=8)
    state_bytes = shape[-1] * sum(w.nbytes + b.nbytes
                                  for w, b in zip(params.weights, params.biases))
    tracemalloc.start()
    try:
        train(params, data, config, "mssg", data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * state_bytes


def test_mssg_at_full_shape_peaks_below_its_state_plus_one_block():
    # Traced from before the parameters exist: the memory array, the weight
    # snapshot, the one parameter set it trains in place and the previous
    # pass's activations and deltas (2.2 MiB), whose pilot rows are the
    # previous pilot's A and D, with that pilot's D * D, then the larger of
    # two transients that never meet: a scoring block, or this pass and its
    # D * D with one blend block's temporaries (a dozen arrays of
    # C x BLOCK_ENTRIES).
    per_class, pilot = 110, 8
    n_classes = FULL_SHAPE[-1]
    rng = spawn_rng(82)
    data = LabeledDataset(
        rng.integers(0, 256, (n_classes * per_class, FULL_SHAPE[0]), dtype=np.uint8),
        np.repeat(np.arange(n_classes), per_class))
    config = small_config(iterations=2, checkpoint_every=1, pilot_size=pilot)
    tracemalloc.start()
    try:
        params = mlp.init_params(FULL_SHAPE, seed=83)
        train(params, data, config, "mssg", data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fan_in, fan_out = sum(FULL_SHAPE[:-1]), sum(FULL_SHAPE[1:])
    param_bytes = 8 * sum(a * b + b for a, b in zip(FULL_SHAPE, FULL_SHAPE[1:]))
    weight_bytes = param_bytes - 8 * fan_out
    pass_bytes = 8 * n_classes * (pilot + 1) * (fan_in + fan_out)
    dd_bytes = 8 * n_classes * pilot * fan_out
    bound = (n_classes * param_bytes   # memory
             + weight_bytes            # snapshot
             + param_bytes             # the parameters
             + pass_bytes + dd_bytes   # the previous pass and its D * D
             + max(scoring_block_bytes(),
                   pass_bytes + dd_bytes + 8 * 12 * n_classes * trainer.BLOCK_ENTRIES))
    assert peak < bound + TRACE_SLACK


# ---------------------------------------------------------------- baselines

def test_batch_equal_to_full_gradient_when_batch_is_everything():
    data = blob_dataset(10, seed=23)
    params = mlp.init_params((6, 4, 3), seed=24)
    config = small_config(iterations=4, batch_size=data.n_samples, step_size=0.2)
    via_full, _, _ = mlp.full_gradient_train(copy_params(params), data.features(), data.labels, 4,
                                             0.2, config.weight_decay)
    for algorithm in ("batch", "fullgrad"):
        trained, _, _ = train(copy_params(params), data, config, algorithm, data)
        for got, want in zip(trained.weights + trained.biases,
                             via_full.weights + via_full.biases):
            assert np.array_equal(got, want)


def test_sgd_on_single_sample_is_deterministic_descent():
    labels = np.array([1])
    data = LabeledDataset(np.array([[51, 204, 102]], np.uint8), labels)
    params = mlp.init_params((3, 2), seed=25)
    config = small_config(iterations=6, step_size=0.5, batch_size=1)
    trained, _, _ = train(copy_params(params), data, config, "sgd", data)
    full, _, _ = mlp.full_gradient_train(copy_params(params), data.features(), labels, 6, 0.5,
                                         config.weight_decay)
    for wa, wb in zip(trained.weights, full.weights):
        assert np.array_equal(wa, wb)


def test_stratified_direction_is_unbiased():
    data = blob_dataset(15, seed=28)
    params = mlp.init_params((6, 4, 3), seed=29)
    wd = 0.001
    full = mlp.gradient(params, data.features(), data.labels, wd)
    class_w = data.class_weights()
    rng = spawn_rng(30)
    reps = 10 ** 4
    tracked = (0, 2, 1)
    values = np.empty(reps)
    for r in range(reps):
        rows = np.array([int(rng.choice(idx)) for idx in data.class_index])
        per = per_sample_grads(params, data.features(rows), data.labels[rows], wd)
        l, i, o = tracked
        values[r] = float(np.dot(class_w, per[l][0][:, i, o]))
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - full.weights[0][2, 1]) <= 3 * se


def ragged_dataset(class_sizes, seed):
    """Random 6-pixel rows whose classes hold `class_sizes` rows, shuffled."""
    rng = spawn_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))
    return LabeledDataset(rng.integers(0, 256, (labels.size, 6), dtype=np.uint8), labels)


def spy_draws(monkeypatch, data):
    """The trainer's generator and the rows of every pass it draws, in order.

    Records the generator `trainer.spawn_rng` builds, and every row list that
    `data.features` decodes other than a scoring block's slice.
    """
    seen = {"rngs": [], "rows": []}

    def recording_spawn(*key):
        seen["rngs"].append(spawn_rng(*key))
        return seen["rngs"][-1]

    features = data.features

    def recording_features(rows=slice(None)):
        if not isinstance(rows, slice):
            seen["rows"].append(np.array(rows))
        return features(rows)

    monkeypatch.setattr(trainer, "spawn_rng", recording_spawn)
    monkeypatch.setattr(data, "features", recording_features)
    return seen


@pytest.mark.parametrize("class_sizes", [(5, 1, 3, 7), (1, 9, 2), (4, 4, 1, 1, 6)])
def test_gst_rows_are_one_choice_call_per_class(monkeypatch, class_sizes):
    # one integers call over the class sizes reads the stream as a
    # per-class int(rng.choice(idx)) loop, and leaves it in the same place
    data = ragged_dataset(class_sizes, seed=sum(class_sizes))
    params = mlp.init_params((6, 4, len(class_sizes)), seed=45)
    seen = spy_draws(monkeypatch, data)
    config = small_config(iterations=6, checkpoint_every=6, seed=(7, len(class_sizes)))
    train(params, data, config, "gst", data)
    ref = numpy_stream(config.seed)
    want = [[int(ref.choice(idx)) for idx in data.class_index] for _ in range(6)]
    assert [rows.tolist() for rows in seen["rows"]] == want
    (rng,) = seen["rngs"]
    assert rng.bit_generator.state == ref.bit_generator.state


def test_mssg_draws_pilots_without_repeats_and_fresh_rows_from_each_class(monkeypatch):
    # class 1 holds exactly the pilot size, so each pilot is all of its rows
    class_sizes, n = (9, 4, 6, 13), 4
    c = len(class_sizes)
    data = ragged_dataset(class_sizes, seed=46)
    params = mlp.init_params((6, 4, c), seed=47)
    seen = spy_draws(monkeypatch, data)
    train(params, data, small_config(iterations=8, pilot_size=n, checkpoint_every=8), "mssg",
          data)
    assert len(seen["rngs"]) == 1 and len(seen["rows"]) == 8
    for rows in seen["rows"]:
        pilots, fresh = rows[:c * n].reshape(c, n), rows[c * n:]
        for idx, pilot, row in zip(data.class_index, pilots, fresh):
            assert np.isin(pilot, idx).all() and np.unique(pilot).size == n
            assert row in idx
    assert np.array_equal(np.sort(seen["rows"][0][n:2 * n]), data.class_index[1])


@pytest.mark.parametrize("n_per_class", [1, 7])
def test_sgd_is_the_pooled_batch_draw_of_one(monkeypatch, n_per_class):
    # sgd draws its row with batch's choice(n, size, replace=False) at size 1
    data = blob_dataset(n_per_class, seed=48)
    params = mlp.init_params((6, 4, 3), seed=49)
    seen = spy_draws(monkeypatch, data)
    config = small_config(iterations=9, checkpoint_every=3, batch_size=1)
    (sgd, sgd_reports, _), (batch, batch_reports, _) = (
        train(copy_params(params), data, config, algorithm, data)
        for algorithm in ("sgd", "batch"))
    for got, want in zip(sgd.weights + sgd.biases, batch.weights + batch.biases):
        assert got.tobytes() == want.tobytes()
    assert sgd_reports == batch_reports
    sgd_rng, batch_rng = seen["rngs"]
    assert sgd_rng.bit_generator.state == batch_rng.bit_generator.state


@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "full_gradient_train"])
def test_trainers_train_the_params_they_are_given(algorithm):
    data = blob_dataset(10, seed=43)
    params = mlp.init_params((6, 4, 3), seed=44)
    start = copy_params(params)
    config = small_config(iterations=2, step_size=0.5)
    if algorithm in ALGORITHMS:
        trained, _, _ = train(params, data, config, algorithm, data)
    else:
        trained, _, _ = mlp.full_gradient_train(params, data.features(), data.labels,
                                                config.iterations, config.step_size,
                                                config.weight_decay)
    assert trained is params
    for got, old in zip(params.weights + params.biases, start.weights + start.biases):
        assert not np.array_equal(got, old)


@pytest.mark.parametrize("algorithm, per_class, relabel, overrides, message", [
    ("mssg", 3, (0, 1, 2), {"pilot_size": 4}, "class 0 has 3 samples, pilot needs 4"),
    ("mssg", 10, (0, 2, 2), {}, "class 1 has 0 samples, pilot needs 4"),
    ("mssg", 10, (0, 0, 0), {}, "need at least two classes"),
    ("gst", 10, (0, 2, 2), {}, "class 1 has 0 samples, the stratified draw needs 1"),
    ("batch", 10, (0, 1, 2), {"batch_size": 1000}, "batch_size 1000 exceeds dataset size 30"),
])
def test_train_refuses_before_the_first_update(algorithm, per_class, relabel, overrides,
                                               message):
    # `relabel` maps each blob's label: (0, 2, 2) leaves class 1 empty
    data = blob_dataset(per_class, seed=31)
    data = LabeledDataset(data.pixels, np.array(relabel)[data.labels])
    params = mlp.init_params((6, 4, 3), seed=32)
    start = copy_params(params)
    with pytest.raises(ValueError, match=message):
        train(params, data, small_config(**overrides), algorithm, data)
    for got, old in zip(params.weights + params.biases, start.weights + start.biases):
        assert got.tobytes() == old.tobytes()
