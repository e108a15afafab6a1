import numpy as np
import pytest

from stratgrad.rng import spawn_rng


def flatten_reference(seed) -> list[int]:
    """Recursive flattening of nested seed tuples/lists into ints."""
    if isinstance(seed, (tuple, list)):
        return [v for part in seed for v in flatten_reference(part)]
    return [int(seed)]


@pytest.mark.parametrize("seed,path", [
    (7, ()), (0, (3,)), (7, (2, 3)), ((7, 2), (3,)), ((7, 2, 3), ()), (2 ** 70, (1,)),
    (np.uint64(2 ** 63), (1,)), ((0, 0), (0,)), (np.int64(7), (2,)),
    ((np.int64(7), 2), (np.uint8(3),)), (True, (2,)), ((2 ** 64 + 1, 3), ()),
])
def test_spawn_rng_stream_equals_recursively_flattened_seed(seed, path):
    want = np.random.PCG64(np.random.SeedSequence(
        flatten_reference(seed) + flatten_reference(path)))
    assert spawn_rng(seed, *path).bit_generator.state == want.state


def test_path_extends_the_seed():
    a, b, c = spawn_rng(7, 2, 3), spawn_rng((7, 2), 3), spawn_rng((7, 2, 3))
    assert a.integers(1 << 62) == b.integers(1 << 62) == c.integers(1 << 62)


@pytest.mark.parametrize("seed,path", [
    (-1, ()), (1, (-2,)), ((1, -2), ()), ((1, 2), (3, -4)), ((1, 2), (-5,)),
    (np.int64(-3), ()), ((np.int64(-3), 1), ()),
])
def test_negative_components_rejected(seed, path):
    with pytest.raises(ValueError):
        spawn_rng(seed, *path)


@pytest.mark.parametrize("seed,path", [
    ([7, 2], (3,)), (((1, (2, 3)), 4), (5,)), ((1, [2, (3,)]), ()), (((1, -2), 3), ()),
    (7.0, ()), ((7, 2.0), ()), (7, (1.5,)),
])
def test_nested_list_or_float_seeds_rejected(seed, path):
    with pytest.raises(TypeError):
        spawn_rng(seed, *path)
