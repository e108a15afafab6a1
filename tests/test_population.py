import math

import numpy as np
import pytest

from stratgrad.population import (
    DECREASING_MEAN_INTERVALS,
    PopulationRound,
    RANDOM_PARAM_RANGE,
    Trend,
    UNIFORM_TRENDS,
    draw_stratified,
    generate_family,
    sample_strata,
    trend_schedules,
)
from stratgrad.rng import spawn_rng, spawn_rngs

from oracles import (StratumStats, family_reference, normal_rounds, numpy_stream,
                     uniform_rounds)


def two_pass_stats(values):
    """Independent oracle: fsum-based mean and population variance."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, var


# ---------------------------------------------------------------- types

def one_round(*strata) -> PopulationRound:
    """One replication of one round with the given value blocks as its strata."""
    values = np.concatenate([np.asarray(s, dtype=np.float64) for s in strata])
    return PopulationRound(values[None, None], [len(s) for s in strata])


def test_stratum_rejects_empty():
    with pytest.raises(ValueError):
        PopulationRound(np.zeros((1, 1, 2)), [2, 0])
    with pytest.raises(ValueError):
        PopulationRound(np.zeros((1, 0, 2)), [2])
    with pytest.raises(ValueError):
        PopulationRound(np.zeros((0, 1, 2)), [2])


def test_weights_must_match_sizes_exactly():
    rounds = one_round([1.0, 2.0], [3.0, 4.0, 5.0])
    assert np.array_equal(rounds.weights, np.array([2 / 5, 3 / 5]))
    assert np.array_equal(rounds.offsets, [0, 2, 5])


def test_round_sequence_requires_shared_layout():
    # every round of every replication is cut by the same sizes, which must
    # cover a round exactly; a stack is (replications, rounds, values)
    with pytest.raises(ValueError):
        PopulationRound(np.zeros((3, 2, 4)), [1, 2])
    for flat in (np.zeros(4), np.zeros((2, 4)), np.zeros((1, 2, 2, 4))):
        with pytest.raises(ValueError):
            PopulationRound(flat, [4])
    with pytest.raises(ValueError):
        PopulationRound(np.zeros((1, 1, 4)), [2.0, 2.0])


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        StratumStats(0.0, -1.0)


@pytest.mark.parametrize("block", [[1.0, np.inf], [1.0, np.nan], [1e308, 1e308]])
def test_nonfinite_statistics_rejected(block):
    # the last block is finite, but its sum overflows
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError):
        one_round(block, [2.0])


# ---------------------------------------------------------------- stats

def test_stratum_stats_trivial():
    rounds = one_round([1, 1, 1, 1], [0, 2])
    assert rounds.means.tolist() == [[[1.0, 1.0]]]
    assert rounds.variances.tolist() == [[[0.0, 1.0]]]
    assert rounds.truth.shape == (1, 1)


def test_stratum_stats_matches_two_pass_oracle():
    values = spawn_rng(11).uniform(-5, 9, 40)
    rounds = one_round(values)
    mean, var = two_pass_stats(values)
    assert rounds.means[0, 0, 0] == pytest.approx(mean, abs=1e-12)
    assert rounds.variances[0, 0, 0] == pytest.approx(var, abs=1e-12)


def test_stratum_stats_equal_one_block_at_a_time():
    # row-slice reductions over the whole stack give the bits of a 1-D
    # np.mean / np.var per block, and the truth those of one 1-D np.dot
    rng = spawn_rng(12)
    sizes = [1, 7, 8, 9, 130, 300]
    rounds = PopulationRound(rng.normal(3.0, 2.0, (3, 5, sum(sizes))), sizes)
    for r, k in np.ndindex(3, 5):
        blocks = np.split(rounds.values[r, k].copy(), np.cumsum(sizes)[:-1])
        assert rounds.means[r, k].tolist() == [float(np.mean(b)) for b in blocks]
        assert rounds.variances[r, k].tolist() == [float(np.var(b)) for b in blocks]
        assert rounds.truth[r, k] == float(np.dot(rounds.weights,
                                                  np.array([np.mean(b) for b in blocks])))


def test_population_mean_equal_strata():
    rounds = one_round(*([float(c)] * 5 for c in (1, 2, 3, 4)))
    assert rounds.truth.tolist() == [[2.5]]


def test_population_mean_single_stratum():
    rounds = one_round([2.0, 4.0, 9.0])
    assert rounds.truth[0, 0] == rounds.means[0, 0, 0]


def test_population_mean_matches_pooled_mean():
    rng = spawn_rng(42)
    for _ in range(20):
        sizes = rng.integers(1, 30, size=rng.integers(2, 6))
        rounds = one_round(*(rng.normal(rng.uniform(-3, 3), 2.0, size=sz) for sz in sizes))
        assert rounds.truth[0, 0] == pytest.approx(float(rounds.values.mean()), abs=1e-12)


# ---------------------------------------------------------------- generators

def test_decreasing_family_shape_and_trend():
    rounds = generate_family(Trend.UNIFORM_DEC, [spawn_rng(0), spawn_rng(1), spawn_rng(2)])
    assert (rounds.n_reps, rounds.n_rounds, rounds.n_strata) == (3, 10, 4)
    assert rounds.values.shape == (3, 10, 40)
    assert rounds.means.shape == rounds.variances.shape == (3, 10, 4)
    assert rounds.truth.shape == (3, 10)
    assert rounds.sizes.tolist() == [10] * 4
    inc = generate_family(Trend.UNIFORM_INC, [spawn_rng(0)])
    assert inc.truth[0, 0] < inc.truth[0, -1] and rounds.truth[0, 0] > rounds.truth[0, -1]
    with pytest.raises(ValueError):
        generate_family(Trend.UNIFORM_DEC, [])
    for n_per_round in (0, 42):
        with pytest.raises(ValueError):
            generate_family(Trend.NORMAL_RANDOM, [spawn_rng(0)], n_per_round=n_per_round)


def test_degenerate_interval_yields_zeros():
    rounds = uniform_rounds([(0, 0)], 4, seed=3)
    assert rounds.truth.tolist() == [[0.0]]
    assert not rounds.variances.any()


def test_uniform_mean_against_large_redraw_oracle():
    # Oracle: a fresh 1e6-draw estimate of the generator's mean on (0, 1);
    # the 40-value round must sit within 3 sigma / sqrt(40) of it.
    rounds = uniform_rounds([(0, 1)], 40, seed=9)
    sample_mean = float(rounds.values[0, 0].mean())
    oracle = float(spawn_rng(987).uniform(0, 1, 10 ** 6).mean())
    sigma = 1.0 / math.sqrt(12.0)
    assert abs(sample_mean - oracle) <= 3 * sigma / math.sqrt(40)


def test_uniform_rejects_bad_shapes():
    with pytest.raises(ValueError):
        uniform_rounds([], 40, 0)
    with pytest.raises(ValueError):
        uniform_rounds([(0, 1)], 42, 0)


def test_normal_random_family_layout():
    rounds = generate_family(Trend.NORMAL_RANDOM, [spawn_rng(5)])
    assert rounds.n_reps == 1
    assert rounds.n_rounds == 10
    assert rounds.n_strata == 4


def test_normal_near_degenerate_sigma():
    rounds = normal_rounds([(5, 1e-9)], 4, 0)
    assert rounds.truth[0, 0] == pytest.approx(5.0, abs=1e-6)
    assert (rounds.variances < 1e-12).all()


def test_normal_large_sample_variance():
    rounds = normal_rounds([(0, 1)], 10 ** 5, 1)
    pooled = rounds.values[0, 0]
    assert float(pooled.var()) == pytest.approx(1.0, rel=0.02)


def test_trend_schedules_cover_four_families():
    for fam in (Trend.NORMAL_MEAN_DEC, Trend.NORMAL_MEAN_INC,
                Trend.NORMAL_VAR_DEC, Trend.NORMAL_VAR_INC):
        sched = trend_schedules(fam, 10)
        assert len(sched) == 10
        assert all(sg > 0 for _, sg in sched)
    means_dec = [mu for mu, _ in trend_schedules(Trend.NORMAL_MEAN_DEC, 10)]
    assert means_dec[0] > means_dec[-1]
    with pytest.raises(ValueError):
        trend_schedules(Trend.NORMAL_RANDOM, 10)


def test_generate_family_covers_all_trends():
    for fam in Trend:
        rounds = generate_family(fam, [spawn_rng(1), spawn_rng(2)])
        assert (rounds.n_reps, rounds.n_rounds) == (2, 10)


@pytest.mark.parametrize("family", [Trend.UNIFORM_DEC, Trend.UNIFORM_INC])
def test_uniform_families_run_at_most_their_interval_table(family):
    assert generate_family(family, [spawn_rng(1)], n_rounds=7).n_rounds == 7
    with pytest.raises(ValueError, match="10 rounds"):
        generate_family(family, [spawn_rng(1)], n_rounds=len(DECREASING_MEAN_INTERVALS) + 1)
    with pytest.raises(ValueError):
        generate_family(family, [spawn_rng(1)], n_rounds=0)
    # trend_schedules hands out the table's own rows and refuses the rest
    table = DECREASING_MEAN_INTERVALS if family is Trend.UNIFORM_DEC \
        else DECREASING_MEAN_INTERVALS[::-1]
    assert trend_schedules(family, 7) == list(table[:7])
    assert trend_schedules(family) == list(table)
    with pytest.raises(ValueError, match="10 rounds, not -1"):
        trend_schedules(family, -1)


def test_normal_families_take_any_positive_round_count():
    assert generate_family(Trend.NORMAL_MEAN_INC, [spawn_rng(1)], n_rounds=12).n_rounds == 12
    assert generate_family(Trend.NORMAL_RANDOM, [spawn_rng(1)], n_rounds=12).n_rounds == 12
    with pytest.raises(ValueError):
        generate_family(Trend.NORMAL_VAR_DEC, [spawn_rng(1)], n_rounds=0)


def test_generators_are_bit_reproducible():
    a = generate_family(Trend.UNIFORM_DEC, [spawn_rng(17)])
    b = generate_family(Trend.UNIFORM_DEC, [spawn_rng(17)])
    assert np.array_equal(a.values, b.values)
    c = generate_family(Trend.NORMAL_RANDOM, [spawn_rng(17), spawn_rng(18)])
    d = generate_family(Trend.NORMAL_RANDOM, [spawn_rng(17), spawn_rng(18)])
    assert np.array_equal(c.values, d.values)
    # a replication does not depend on the others in its stack
    assert np.array_equal(generate_family(Trend.NORMAL_RANDOM, [spawn_rng(18)]).values[0],
                          c.values[1])


def test_generator_replications_come_from_their_own_streams():
    # replication r draws round after round from the one stream of seeds[r]
    seeds = [17, (3, 5)]
    rounds = generate_family(Trend.NORMAL_VAR_INC, [spawn_rng(seed) for seed in seeds],
                             n_per_round=16, n_rounds=2)
    for r, seed in enumerate(seeds):
        stream = numpy_stream(seed)
        for k, (mu, sigma) in enumerate(trend_schedules(Trend.NORMAL_VAR_INC, 2)):
            assert np.array_equal(rounds.values[r, k], stream.normal(mu, sigma, 16))


@pytest.mark.parametrize("seed, n_per_round, n_rounds",
                         [(0, 40, 10), (17, 8, 12), ((3, 5), 4, 1), (2 ** 40, 40, 10)])
def test_normal_random_family_follows_its_streams(seed, n_per_round, n_rounds):
    # (mu, sigma) pairs first, then the rounds, all from the stream of the
    # seed, seeded by numpy itself
    stream = numpy_stream(seed)
    lo, hi = RANDOM_PARAM_RANGE
    params = [(stream.uniform(lo, hi), stream.uniform(lo, hi)) for _ in range(n_rounds)]
    want = np.array([stream.normal(mu, sigma, n_per_round) for mu, sigma in params])
    rounds = generate_family(Trend.NORMAL_RANDOM, [spawn_rng(seed)], n_per_round=n_per_round,
                             n_rounds=n_rounds)
    assert rounds.values[0].tobytes() == want.tobytes()


STACK_SEEDS = ([(6, 0)], [(6, s) for s in range(8)])


# the paper's sizes, 24 values a round, and 12 rounds for the normal families
FAMILY_SIZES = [(family, n_per_round, n_rounds) for family in Trend
                for n_per_round, n_rounds in [(40, 10), (24, 10), (40, 12)]
                if n_rounds <= 10 or family not in UNIFORM_TRENDS]


@pytest.mark.parametrize("seeds", STACK_SEEDS, ids=lambda seeds: f"R={len(seeds)}")
@pytest.mark.parametrize("family, n_per_round, n_rounds", FAMILY_SIZES,
                         ids=[f"{f.value}-{n}x{k}" for f, n, k in FAMILY_SIZES])
def test_stacked_family_equals_per_seed_reference(family, n_per_round, n_rounds, seeds):
    got = generate_family(family, spawn_rngs(seeds), n_per_round=n_per_round,
                          n_rounds=n_rounds)
    want = family_reference(family, [numpy_stream(*key) for key in seeds],
                            n_per_round=n_per_round, n_rounds=n_rounds)
    assert got.sizes.tolist() == want.sizes.tolist()
    for name in ("values", "means", "variances", "truth"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_decreasing_family_round_means_mostly_ordered():
    mids = [0.5 * (lo + hi) for lo, hi in DECREASING_MEAN_INTERVALS]
    assert all(b <= a for a, b in zip(mids, mids[1:]))
    truth = generate_family(Trend.UNIFORM_DEC, [spawn_rng(s) for s in range(100)]).truth
    assert np.mean(truth[:, :-1] > truth[:, 1:]) >= 0.95


# ---------------------------------------------------------------- draws

def _fixture_rounds():
    """Two replications of three rounds, four strata of ten values each."""
    rng = spawn_rng(5)
    return PopulationRound(np.concatenate([rng.normal(j, 1.0, (2, 3, 10)) for j in range(4)],
                                          axis=2), [10] * 4)


def _strata(rounds, r, k):
    return np.split(rounds.values[r, k], rounds.offsets[1:-1])


def test_draw_one_per_stratum():
    rounds = _fixture_rounds()
    draws = sample_strata(rounds, 1, spawn_rngs([(0, r) for r in range(2)]))
    assert draws.shape == (2, 3, 4, 1)
    for r, k in np.ndindex(2, 3):
        assert all(draws[r, k, j, 0] in block for j, block in enumerate(_strata(rounds, r, k)))


def test_draw_values_belong_to_their_stratum():
    rounds = _fixture_rounds()
    draws = sample_strata(rounds, 3, spawn_rngs([(8, r) for r in range(2)]))
    assert draws.shape == (2, 3, 4, 3)
    for r, k in np.ndindex(2, 3):
        for j, block in enumerate(_strata(rounds, r, k)):
            assert all(v in block for v in draws[r, k, j])
            assert len(set(draws[r, k, j].tolist())) == 3  # without replacement


def test_exhaustive_draw_returns_stratum_multiset():
    rounds = _fixture_rounds()
    draws = sample_strata(rounds, 10, spawn_rngs([(1, r) for r in range(2)]))
    for r, k in np.ndindex(2, 3):
        for j, block in enumerate(_strata(rounds, r, k)):
            assert sorted(draws[r, k, j].tolist()) == sorted(block.tolist())


def test_draw_is_deterministic_per_seed():
    rounds = _fixture_rounds()
    assert np.array_equal(sample_strata(rounds, 2, [spawn_rng(4), spawn_rng(5)]),
                          sample_strata(rounds, 2, [spawn_rng(4), spawn_rng(5)]))


def test_draw_rejects_oversized_request():
    rounds = _fixture_rounds()
    rngs = [spawn_rng(0), spawn_rng(1)]
    with pytest.raises(ValueError):
        sample_strata(rounds, 11, rngs)
    with pytest.raises(ValueError):
        sample_strata(rounds, 0, rngs)
    with pytest.raises(ValueError):  # one stream per replication
        sample_strata(rounds, 1, rngs[:1] * 3)


def test_one_replication_is_shared_by_every_stream():
    rounds = _fixture_rounds()
    first = PopulationRound(rounds.values[:1], rounds.sizes)
    shared = sample_strata(first, 2, [spawn_rng(6), spawn_rng(7), spawn_rng(8)])
    assert shared.shape == (3, 3, 4, 2)
    for r, seed in enumerate((6, 7, 8)):
        assert np.array_equal(shared[r], sample_strata(first, 2, [spawn_rng(seed)])[0])


@pytest.mark.parametrize("per_stratum", [1, 2, 10])
def test_draws_follow_one_choice_call_per_stratum_and_round(per_stratum):
    # each replication's stream is read as per-stratum Generator.choice calls,
    # round by round, over stratum sizes on both sides of choice's
    # tail-shuffle/Floyd switch
    layouts = ([10] * 4, [1, 10, 11], [49, 50, 51, 300, 1000], [12, 700])
    for seed in range(150):
        sizes = [n for n in layouts[seed % len(layouts)] if n >= per_stratum]
        rounds = PopulationRound(np.arange(6 * sum(sizes), dtype=np.float64).reshape(2, 3, -1),
                                 sizes)
        ref_rngs, rngs = ([spawn_rng(seed, r) for r in range(2)] for _ in range(2))
        want = [[[rounds.values[r, k, lo:lo + n][ref.choice(n, size=per_stratum, replace=False)]
                  for lo, n in zip(rounds.offsets, sizes)] for k in range(3)]
                for r, ref in enumerate(ref_rngs)]
        assert np.array_equal(sample_strata(rounds, per_stratum, rngs), np.array(want))
        for rng, ref in zip(rngs, ref_rngs):  # same stream position
            assert rng.integers(1 << 62) == ref.integers(1 << 62)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_draw_stratified_indexes_the_strata_laid_end_to_end(m):
    # ragged sizes from m up to 1000, on both sides of choice's
    # tail-shuffle/Floyd switch; m = 1 is the one-integers-call form
    layouts = ([5, 1, 3, 7], [1, 9, 2], [49, 50, 51, 300, 1000], [12, 700], [m, 2 * m + 1, m])
    for seed in range(60):
        sizes = [n for n in layouts[seed % len(layouts)] if n >= m]
        starts = np.cumsum(sizes) - sizes
        rng, ref = spawn_rng(seed, m), spawn_rng(seed, m)
        picks = draw_stratified(rng, sizes, m)
        assert picks.shape == (len(sizes), m)
        for row, lo, n in zip(picks, starts, sizes):
            assert ((lo <= row) & (row < lo + n)).all()  # in its own stratum's slice
            assert np.unique(row).size == m  # no repeat within a stratum
        if m == 1:
            want = (ref.integers(0, sizes) + starts)[:, None]
        else:
            want = [ref.choice(n, m, replace=False) + lo for lo, n in zip(starts, sizes)]
        assert np.array_equal(picks, want)
        assert rng.bit_generator.state == ref.bit_generator.state
