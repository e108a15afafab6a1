import math
import time

import numpy as np
import pytest

from stratgrad import mlp, trainer
from stratgrad.dataio import LabeledDataset
from stratgrad.rng import spawn_rng

from oracles import (
    copy_params,
    max_relative_error,
    numeric_gradient,
    per_sample_grads,
    two_branch_sigmoid,
    unstreamed_forward,
    unstreamed_full_gradient_train,
    unstreamed_loss,
    unstreamed_loss_grad,
)


def random_batch(params, n, seed):
    rng = spawn_rng(seed)
    features = rng.uniform(0, 1, (n, params.weights[0].shape[0]))
    labels = rng.integers(0, params.weights[-1].shape[1], n)
    return features, labels


def random_pixel_batch(params, n, seed):
    """A random uint8 batch as a dataset, and its decoded features."""
    rng = spawn_rng(seed)
    pixels = rng.integers(0, 256, (n, params.weights[0].shape[0]), dtype=np.uint8)
    data = LabeledDataset(pixels, rng.integers(0, params.weights[-1].shape[1], n))
    return data, pixels / 255.0


# ---------------------------------------------------------------- shapes / init

def test_shape_validation():
    with pytest.raises(ValueError):
        mlp.init_params((5,), seed=0)
    with pytest.raises(ValueError):
        mlp.init_params((5, 0, 2), seed=0)
    assert mlp.init_params((784, 500, 500, 200, 10), seed=0).weights[-1].shape[1] == 10


def test_init_minimal_shape():
    params = mlp.init_params((2, 2), seed=0)
    assert params.weights[0].shape == (2, 2)
    assert np.array_equal(params.biases[0], np.zeros(2))


def test_init_is_deterministic():
    a = mlp.init_params((4, 3, 2), seed=9)
    b = mlp.init_params((4, 3, 2), seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_scale_matches_scheme():
    params = mlp.init_params((784, 500), seed=1)
    target = 1.0 / math.sqrt(784)
    assert float(params.weights[0].std()) == pytest.approx(target, rel=0.10)


def test_params_shape_chain_validated():
    with pytest.raises(ValueError):
        mlp.MlpParams([np.zeros((3, 4)), np.zeros((5, 2))], [np.zeros(4), np.zeros(2)])


# ---------------------------------------------------------------- forward

def test_zero_params_give_uniform_probabilities():
    params = mlp.MlpParams([np.zeros((4, 3)), np.zeros((3, 5))],
                           [np.zeros(3), np.zeros(5)])
    probs = mlp.forward_batch(params, np.ones(4)[None])[0]
    assert np.allclose(probs, 0.2)


def test_forward_output_in_simplex():
    params = mlp.init_params((6, 5, 4), seed=2)
    rng = spawn_rng(3)
    for _ in range(50):
        probs = mlp.forward_batch(params, rng.uniform(-20, 20, 6)[None])[0]
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-9


def test_forward_matches_hand_arithmetic():
    # 2-2-2 net worked out with scalar math
    w1 = np.array([[0.1, -0.2], [0.3, 0.4]])
    b1 = np.array([0.05, -0.05])
    w2 = np.array([[0.7, -0.1], [0.2, 0.6]])
    b2 = np.array([-0.3, 0.2])
    params = mlp.MlpParams([w1, w2], [b1, b2])
    x = np.array([0.5, -1.0])
    z1 = [0.5 * 0.1 + (-1.0) * 0.3 + 0.05, 0.5 * (-0.2) + (-1.0) * 0.4 - 0.05]
    a1 = [1 / (1 + math.exp(-z)) for z in z1]
    z2 = [a1[0] * 0.7 + a1[1] * 0.2 - 0.3, a1[0] * (-0.1) + a1[1] * 0.6 + 0.2]
    ez = [math.exp(z) for z in z2]
    expected = [e / sum(ez) for e in ez]
    assert np.allclose(mlp.forward_batch(params, x[None])[0], expected, atol=1e-12)


def test_forward_shape_mismatch_rejected():
    params = mlp.init_params((4, 2), seed=0)
    with pytest.raises(ValueError):
        mlp.forward_batch(params, np.ones(5)[None])


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
def test_integer_features_rejected(dtype):
    # undecoded pixels would otherwise be read as values 0..255
    params = mlp.init_params((4, 2), seed=0)
    features = np.ones((3, 4), dtype=dtype)
    labels = np.zeros(3, dtype=np.int64)
    with pytest.raises(TypeError, match="floating point"):
        mlp.forward_batch(params, features)
    with pytest.raises(TypeError, match="floating point"):
        mlp.loss_and_grad(params, features, labels)
    with pytest.raises(TypeError, match="floating point"):
        mlp.full_gradient_train(params, features, labels, 1, 0.1, 0.0, (0, 0, 0))


def test_sigmoid_is_bit_identical_to_two_branch_form():
    rng = spawn_rng(41)
    tiny = np.finfo(np.float64).tiny
    special = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 745.0, -745.0,
                        746.0, -746.0, 5e-324, -5e-324, tiny, -tiny, 1e-310, -1e-310])
    for z in (rng.normal(0, 10, (300, 50)), rng.uniform(-800, 800, 2000), special):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = two_branch_sigmoid(z)
        # no errstate here: neither of mlp's exps may see a positive argument
        work = z.copy()
        got = mlp._sigmoid(work)
        assert got is work  # written over its argument
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------- loss / gradient

def test_zero_params_loss_is_log_class_count():
    params = mlp.MlpParams([np.zeros((3, 4))], [np.zeros(4)])
    rng = spawn_rng(4)
    features = rng.uniform(0, 1, (6, 3))
    labels = rng.integers(0, 4, 6)
    value, _ = mlp.loss_and_grad(params, features, labels, 0.0)
    assert value == pytest.approx(math.log(4), abs=1e-12)


def test_single_sample_loss_is_neg_log_prob():
    params = mlp.init_params((5, 4, 3), seed=6)
    x = spawn_rng(7).uniform(0, 1, 5)
    probs = mlp.forward_batch(params, x[None])[0]
    value = mlp.loss(params, x[None, :], np.array([2]), 0.0)
    assert value == pytest.approx(-math.log(probs[2]), abs=1e-12)


def test_label_out_of_range_rejected():
    params = mlp.init_params((3, 2), seed=0)
    with pytest.raises(ValueError):
        mlp.loss_and_grad(params, np.zeros((1, 3)), np.array([2]))


@pytest.mark.parametrize("shape", [(4, 3, 2), (6, 5, 4, 3)])
def test_gradient_matches_finite_differences(shape):
    params = mlp.init_params(shape, seed=11)
    features, labels = random_batch(params, 5, seed=12)
    _, analytic = mlp.loss_and_grad(params, features, labels, 0.05)
    numeric = numeric_gradient(params, features, labels, 0.05)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_per_sample_grads_average_to_batch_gradient():
    params = mlp.init_params((5, 4, 3), seed=13)
    features, labels = random_batch(params, 7, seed=14)
    per = per_sample_grads(params, features, labels, 0.01)
    _, batch = mlp.loss_and_grad(params, features, labels, 0.01)
    for l in range(params.n_layers):
        assert np.allclose(per[l][0].mean(axis=0), batch.weights[l], atol=1e-13)
        assert np.allclose(per[l][1].mean(axis=0), batch.biases[l], atol=1e-13)


# ---------------------------------------------------------------- training

def test_full_gradient_single_step_decreases_loss():
    params = mlp.init_params((4, 3, 2), seed=15)
    features, _ = random_batch(params, 12, seed=16)
    labels = np.zeros(12, dtype=np.int64)
    _, losses, _ = mlp.full_gradient_train(params, features, labels, 1, 0.2, 0.001, (1, 0, 0))
    assert len(losses) == 2
    assert losses[1] <= losses[0]


def test_check_step_refuses_a_bad_step_size_or_decay():
    for step_size, weight_decay, field in (
            (np.nan, 0.0, "step_size"), (np.inf, 0.0, "step_size"), (0.0, 0.0, "step_size"),
            (0.2, -0.5, "weight_decay"), (0.2, np.nan, "weight_decay"),
            (0.2, np.inf, "weight_decay")):
        with pytest.raises(ValueError, match=f"{field} must be"):
            mlp.check_step(step_size, weight_decay)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_full_gradient_divergence_is_refused_at_its_step():
    params = mlp.init_params((6, 5, 3), seed=17)
    features, labels = random_batch(params, 30, seed=18)
    with pytest.raises(RuntimeError, match="full-gradient descent produced non-finite "
                                           "parameters at iteration 1$"):
        mlp.full_gradient_train(params, features, labels, 5, 1e300, 1e300, tracked=(1, 0, 0))


def test_full_gradient_loss_nonincreasing_small_step():
    params = mlp.init_params((6, 5, 3), seed=17)
    features, labels = random_batch(params, 30, seed=18)
    _, losses, _ = mlp.full_gradient_train(params, features, labels, 5, 0.01, 0.001, (0, 0, 0))
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert all(np.isfinite(losses))


# ---------------------------------------------------------------- tracked weight

def _params_per_step(params, features, labels, steps, step_size, weight_decay):
    """The parameters in force at each of `steps` full-batch steps."""
    return [params] + [mlp.full_gradient_train(copy_params(params), features, labels, t, step_size,
                                               weight_decay, (0, 0, 0))[0]
                       for t in range(1, steps)]


@pytest.mark.parametrize("tracked", [(1, 2, 3), (2, 1, 2)])
def test_tracked_column_equals_per_sample_oracle_at_every_step(tracked):
    params = mlp.init_params((6, 5, 4, 3), seed=19)
    features, labels = random_batch(params, 9, seed=20)
    _, _, matrix = mlp.full_gradient_train(copy_params(params), features, labels, 4, 0.3, 0.01,
                                           tracked=tracked)
    layer, out_idx, in_idx = tracked
    steps = _params_per_step(params, features, labels, 4, 0.3, 0.01)
    assert matrix.shape == (9, 4)
    for wa, wb in zip(steps[-1].weights, params.weights):
        assert not np.array_equal(wa, wb)  # the descent moved
    for t, prm in enumerate(steps):
        expected = per_sample_grads(prm, features, labels, 0.01)[layer][0][:, in_idx, out_idx]
        assert np.allclose(matrix[:, t], expected, rtol=1e-12, atol=1e-15)
    # column 0 is taken at the initial parameters
    start = per_sample_grads(params, features, labels, 0.01)[layer][0][:, in_idx, out_idx]
    assert np.allclose(matrix[:, 0], start, rtol=1e-12, atol=1e-15)


def test_single_sample_matrix_equals_batch_gradient():
    params = mlp.init_params((4, 3, 2), seed=21)
    features, labels = random_batch(params, 1, seed=22)
    _, _, matrix = mlp.full_gradient_train(copy_params(params), features, labels, 4, 0.1, 0.001,
                                           tracked=(1, 0, 0))
    assert matrix.shape == (1, 4)
    for t, prm in enumerate(_params_per_step(params, features, labels, 4, 0.1, 0.001)):
        _, grad = mlp.loss_and_grad(prm, features, labels, 0.001)
        assert matrix[0, t] == pytest.approx(grad.weights[1][0, 0], abs=1e-12)


def test_column_means_equal_full_batch_gradient():
    params = mlp.init_params((6, 5, 4, 3), seed=23)
    features, labels = random_batch(params, 40, seed=24)
    tracked = (2, 1, 3)
    _, _, matrix = mlp.full_gradient_train(copy_params(params), features, labels, 5, 0.1, 0.002,
                                           tracked=tracked)
    for t, prm in enumerate(_params_per_step(params, features, labels, 5, 0.1, 0.002)):
        _, grad = mlp.loss_and_grad(prm, features, labels, 0.002)
        assert matrix[:, t].mean() == pytest.approx(grad.weights[2][3, 1], abs=1e-10)


def test_tracked_indices_validated():
    params = mlp.init_params((4, 3, 2), seed=25)
    features, labels = random_batch(params, 2, seed=26)
    with pytest.raises(ValueError):
        mlp.full_gradient_train(params, features, labels, 1, 0.1, 0.0, tracked=(1, 5, 0))
    with pytest.raises(ValueError):
        mlp.full_gradient_train(params, features, labels, 1, 0.1, 0.0, tracked=(7, 0, 0))
    with pytest.raises(ValueError, match="tracked layer -1"):  # no wrap-around
        mlp.full_gradient_train(params, features, labels, 1, 0.1, 0.0, tracked=(-1, 0, 0))


def test_desk_scale_matrix_under_time_budget():
    params = mlp.init_params((784, 50, 50, 20, 10), seed=27)
    rng = spawn_rng(28)
    features = rng.uniform(0, 1, (2000, 784))
    labels = rng.integers(0, 10, 2000)
    start = time.perf_counter()
    _, _, matrix = mlp.full_gradient_train(params, features, labels, 10, 0.2, 0.001,
                                           tracked=(3, 0, 0))
    elapsed = time.perf_counter() - start
    assert matrix.shape == (2000, 10)
    assert elapsed < 60.0


# ---------------------------------------------------------------- streamed passes

# A small block, so that few rows span several blocks. Row counts around it:
# one row, B - 1, B, B + 1 and 2B + 3.
SMALL_BLOCK = 7
STREAM_ROWS = [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 3]
# Several blocks sum the loss and A^T D in another order than one pass does;
# the results may differ from the unstreamed oracle in the last bits only.
STREAM_RTOL, STREAM_ATOL = 1e-12, 1e-15


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(mlp, "BLOCK_ROWS", SMALL_BLOCK)


def _bits(values):
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def _assert_streamed_equal(got, want, n):
    """Byte-identical within one block, within the stated tolerance beyond it."""
    if n <= SMALL_BLOCK:
        assert _bits(got) == _bits(want)
    else:
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=STREAM_RTOL, atol=STREAM_ATOL)


@pytest.mark.parametrize("n", STREAM_ROWS)
def test_streamed_accuracy_and_probabilities_match_unstreamed_pass(small_blocks, n):
    params = mlp.init_params((6, 5, 4, 3), seed=50)
    data, features = random_pixel_batch(params, n, seed=51)
    probs = mlp.forward_batch(params, features)
    want = unstreamed_forward(params, features)
    _assert_streamed_equal([probs], [want], n)
    expected = float(np.mean(np.argmax(want, axis=1) == data.labels))
    assert trainer.accuracy(params, data) == expected


@pytest.mark.parametrize("n", STREAM_ROWS)
def test_streamed_loss_and_gradient_match_unstreamed_pass(small_blocks, n):
    params = mlp.init_params((6, 5, 4, 3), seed=52)
    features, labels = random_batch(params, n, seed=53)
    value, grad = mlp.loss_and_grad(params, features, labels, 0.01)
    want_value, want_grad, _, _ = unstreamed_loss_grad(params, features, labels, 0.01)
    _assert_streamed_equal([value, *grad.weights, *grad.biases],
                           [want_value, *want_grad.weights, *want_grad.biases], n)
    _assert_streamed_equal([mlp.loss(params, features, labels, 0.01)],
                           [unstreamed_loss(params, features, labels, 0.01)], n)


@pytest.mark.parametrize("n", STREAM_ROWS)
def test_streamed_descent_and_tracked_column_match_unstreamed_pass(small_blocks, n):
    params = mlp.init_params((6, 5, 4, 3), seed=54)
    features, labels = random_batch(params, n, seed=55)
    got, losses, matrix = mlp.full_gradient_train(copy_params(params), features, labels, 3, 0.3, 0.01,
                                                  tracked=(1, 2, 3))
    want, want_losses, want_matrix = unstreamed_full_gradient_train(
        params, features, labels, 3, 0.3, 0.01, (1, 2, 3))
    _assert_streamed_equal([*got.weights, *got.biases, losses, matrix],
                           [*want.weights, *want.biases, want_losses, want_matrix], n)


def test_whole_batch_passes_never_see_more_than_a_block(small_blocks, monkeypatch):
    seen = []
    forward = mlp._forward_cached

    def spy(params, features, keep):
        seen.append(features.shape[0])
        return forward(params, features, keep)

    monkeypatch.setattr(mlp, "_forward_cached", spy)
    n = 2 * SMALL_BLOCK + 3
    params = mlp.init_params((6, 5, 4, 3), seed=56)
    data, features = random_pixel_batch(params, n, seed=57)
    trainer.accuracy(params, data)
    assert seen == [SMALL_BLOCK, SMALL_BLOCK, 3]
    seen.clear()
    mlp.full_gradient_train(params, features, data.labels, 2, 0.1, 0.01, tracked=(0, 1, 2))
    assert max(seen) == SMALL_BLOCK
    assert sum(seen) == 3 * n  # two descent steps and the final loss
