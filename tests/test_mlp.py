import math
import time

import numpy as np
import pytest

from stratgrad import mlp
from stratgrad.rng import spawn_rng

from oracles import max_relative_error, numeric_gradient, per_sample_grads


def random_batch(params, n, seed):
    rng = spawn_rng(seed)
    shape = params.shape.layer_sizes
    features = rng.uniform(0, 1, (n, shape[0]))
    labels = rng.integers(0, shape[-1], n)
    return features, labels


# ---------------------------------------------------------------- shapes / init

def test_shape_validation():
    with pytest.raises(ValueError):
        mlp.MlpShape((5,))
    with pytest.raises(ValueError):
        mlp.MlpShape((5, 0, 2))
    assert mlp.MlpShape((784, 500, 500, 200, 10)).n_classes == 10


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
    probs = mlp.forward(params, np.ones(4))
    assert np.allclose(probs, 0.2)


def test_forward_output_in_simplex():
    params = mlp.init_params((6, 5, 4), seed=2)
    rng = spawn_rng(3)
    for _ in range(50):
        probs = mlp.forward(params, rng.uniform(-20, 20, 6))
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
    assert np.allclose(mlp.forward(params, x), expected, atol=1e-12)


def test_forward_shape_mismatch_rejected():
    params = mlp.init_params((4, 2), seed=0)
    with pytest.raises(ValueError):
        mlp.forward(params, np.ones(5))


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_two_branch_form():
    rng = spawn_rng(41)
    tiny = np.finfo(np.float64).tiny
    special = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 745.0, -745.0,
                        746.0, -746.0, 5e-324, -5e-324, tiny, -tiny, 1e-310, -1e-310])
    for z in (rng.normal(0, 10, (300, 50)), rng.uniform(-800, 800, 2000), special):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _two_branch_sigmoid(z)
            got = mlp._sigmoid(z)
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
    probs = mlp.forward(params, x)
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
    _, losses = mlp.full_gradient_train(params, features, labels, 1, 0.2, 0.001)
    assert len(losses) == 2
    assert losses[1] <= losses[0]
    with pytest.raises(ValueError):
        mlp.full_gradient_train(params, features, labels, 0, 0.2)


def test_full_gradient_loss_nonincreasing_small_step():
    params = mlp.init_params((6, 5, 3), seed=17)
    features, labels = random_batch(params, 30, seed=18)
    _, losses = mlp.full_gradient_train(params, features, labels, 5, 0.01, 0.001)
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert all(np.isfinite(losses))


def test_full_gradient_snapshots():
    params = mlp.init_params((4, 3, 2), seed=19)
    features, labels = random_batch(params, 6, seed=20)
    snaps = []
    mlp.full_gradient_train(params, features, labels, 3, 0.1, snapshots=snaps)
    assert len(snaps) == 3
    for wa, wb in zip(snaps[0].weights, params.weights):
        assert np.array_equal(wa, wb)  # first snapshot is the starting point


# ---------------------------------------------------------------- tracked weight

def test_single_sample_matrix_equals_batch_gradient():
    params = mlp.init_params((4, 3, 2), seed=21)
    features, labels = random_batch(params, 1, seed=22)
    snaps = []
    mlp.full_gradient_train(params, features, labels, 4, 0.1, 0.001, snapshots=snaps)
    matrix = mlp.record_weight_gradient(snaps, features, labels, (1, 0, 0), 0.001)
    assert matrix.shape == (1, 4)
    for t, prm in enumerate(snaps):
        _, grad = mlp.loss_and_grad(prm, features, labels, 0.001)
        assert matrix[0, t] == pytest.approx(grad.weights[1][0, 0], abs=1e-12)


def test_column_means_equal_full_batch_gradient():
    params = mlp.init_params((6, 5, 4, 3), seed=23)
    features, labels = random_batch(params, 40, seed=24)
    snaps = []
    mlp.full_gradient_train(params, features, labels, 5, 0.1, 0.002, snapshots=snaps)
    tracked = (2, 1, 3)
    matrix = mlp.record_weight_gradient(snaps, features, labels, tracked, 0.002)
    for t, prm in enumerate(snaps):
        _, grad = mlp.loss_and_grad(prm, features, labels, 0.002)
        assert matrix[:, t].mean() == pytest.approx(grad.weights[2][3, 1], abs=1e-10)


def test_tracked_indices_validated():
    params = mlp.init_params((4, 3, 2), seed=25)
    features, labels = random_batch(params, 2, seed=26)
    with pytest.raises(ValueError):
        mlp.record_weight_gradient([params], features, labels, (1, 5, 0))
    with pytest.raises(ValueError):
        mlp.record_weight_gradient([params], features, labels, (7, 0, 0))


def test_desk_scale_matrix_under_time_budget():
    params = mlp.init_params((784, 50, 50, 20, 10), seed=27)
    rng = spawn_rng(28)
    features = rng.uniform(0, 1, (2000, 784))
    labels = rng.integers(0, 10, 2000)
    start = time.perf_counter()
    snaps = []
    mlp.full_gradient_train(params, features, labels, 10, 0.2, 0.001, snapshots=snaps)
    matrix = mlp.record_weight_gradient(snaps, features, labels,
                                        (3, 0, 0), 0.001)
    elapsed = time.perf_counter() - start
    assert matrix.shape == (2000, 10)
    assert elapsed < 60.0


def test_grad_records_explode_matrix():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    records = mlp.grad_records(matrix)
    assert len(records) == 4
    assert records[1] == mlp.GradRecord(0, 1, 2.0)
    keys = {(r.sample_index, r.iteration) for r in records}
    assert len(keys) == 4


# ---------------------------------------------------------------- serialization

def test_params_binary_round_trip(tmp_path):
    params = mlp.init_params((7, 4, 3), seed=29)
    path = tmp_path / "net.mlp"
    mlp.save_params(params, path)
    loaded = mlp.load_params(path)
    assert loaded.shape == params.shape
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)


def test_params_header_layout(tmp_path):
    params = mlp.init_params((3, 2), seed=30)
    path = tmp_path / "net.mlp"
    mlp.save_params(params, path)
    blob = path.read_bytes()
    assert blob[:4] == b"MLP1"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 3
    assert int.from_bytes(blob[12:16], "little") == 2
    assert len(blob) == 16 + 8 * (3 * 2 + 2)


def test_params_bad_magic_rejected(tmp_path):
    path = tmp_path / "net.mlp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        mlp.load_params(path)
