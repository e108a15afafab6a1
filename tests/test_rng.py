import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratgrad import rng
from stratgrad.rng import spawn_rng, spawn_rngs


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


def test_trailing_zeros_within_the_seed_pool_address_one_stream():
    def state(*key):
        return spawn_rng(*key).bit_generator.state

    def numpy_state(*key):
        return np.random.PCG64(np.random.SeedSequence(key)).state

    # SeedSequence pads its four-word pool with zeros; words past the pool are all mixed in
    assert state(7, 3) == state(7, 3, 0) == state(7, 3, 0, 0) == numpy_state(7, 3, 0, 0)
    assert state(1, 2, 3, 4) == numpy_state(1, 2, 3, 4)
    assert state(1, 2, 3, 4, 0) == numpy_state(1, 2, 3, 4, 0) != state(1, 2, 3, 4)


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


_COMPONENTS = st.one_of(
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, True]),
    st.integers(0, 2 ** 80),
    st.integers(0, 2 ** 32 - 1).map(np.uint32),
    st.integers(0, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 2 ** 64 - 1).map(np.uint64),
    st.integers(0, 255).map(np.uint8),
)
# (seed, *path) keys of 0 to 8 components, some with a flat tuple seed
_KEYS = st.one_of(
    st.lists(_COMPONENTS, max_size=8).map(tuple),
    st.tuples(st.lists(_COMPONENTS, max_size=4).map(tuple),
              st.lists(_COMPONENTS, max_size=4)).map(lambda kp: (kp[0], *kp[1])),
)


@given(st.lists(_KEYS, max_size=12))
def test_spawn_rngs_streams_equal_numpy_seed_sequences_in_key_order(keys):
    got = spawn_rngs(keys)
    assert len(got) == len(keys)
    for gen, key in zip(got, keys):
        want = np.random.PCG64(np.random.SeedSequence(flatten_reference(key)))
        assert gen.bit_generator.state == want.state


def test_spawn_rngs_of_no_keys_is_empty():
    assert spawn_rngs([]) == []


@pytest.mark.parametrize("key,state,inc", [
    ((0,), 35399562948360463058890781895381311971, 87136372517582989555478159403783844777),
    ((7, 2, 3), 32274101161218434494518728101904377167,
     248001600037947974177124676638637024447),
    (((2 ** 64 + 1, 5), 9, 2 ** 32 - 1, 4, 0, 1), 207617049047623324694381394158463180634,
     118468058219354280525525972371668041301),
])
def test_spawn_rngs_pinned_pcg64_states(key, state, inc):
    # SeedSequence and PCG64 seeding are frozen by numpy's stream policy
    (gen,) = spawn_rngs([key])
    assert gen.bit_generator.state["state"] == {"state": state, "inc": inc}


@pytest.mark.parametrize("keys,error", [
    ([(1, 2), (3,), (-1,)], ValueError),
    ([(1, 2), ((4, -2), 3)], ValueError),
    ([(1, 2), (3, 1.5)], TypeError),
    ([(1, 2), ((1, (2, 3)), 4)], TypeError),
    ([(1, 2), [3, 4]], TypeError),
    ([(1, 2), 7], TypeError),
])
def test_spawn_rngs_rejects_bad_keys_before_building_any_stream(monkeypatch, keys, error):
    def never(*_):
        raise AssertionError("a stream was seeded or built before every key was checked")

    monkeypatch.setattr(rng, "SeedSequence", never)
    monkeypatch.setattr(rng, "PCG64", never)
    with pytest.raises(error):
        spawn_rngs(keys)
