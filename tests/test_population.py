import math

import numpy as np
import pytest

from stratgrad.population import (
    DECREASING_MEAN_INTERVALS,
    INCREASING_MEAN_INTERVALS,
    PopulationRound,
    StratifiedPopulation,
    Stratum,
    StratumStats,
    Trend,
    draw_stratified,
    gen_normal_rounds,
    gen_uniform_rounds,
    generate_family,
    population_mean,
    stratum_stats,
    trend_schedules,
)
from stratgrad.rng import spawn_rng


def two_pass_stats(values):
    """Independent oracle: fsum-based mean and population variance."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, var


# ---------------------------------------------------------------- types

def test_stratum_rejects_empty():
    with pytest.raises(ValueError):
        Stratum(np.array([]), 0)


def test_weights_must_match_sizes_exactly():
    strata = [Stratum([1.0, 2.0], 0), Stratum([3.0, 4.0, 5.0], 1)]
    StratifiedPopulation(strata, np.array([2 / 5, 3 / 5]))
    with pytest.raises(ValueError):
        StratifiedPopulation(strata, np.array([0.5, 0.5]))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        StratifiedPopulation.from_strata([Stratum([1.0], 0), Stratum([2.0], 0)])


def test_round_sequence_requires_shared_layout():
    a = StratifiedPopulation.from_strata([Stratum([1, 2], 0), Stratum([3, 4], 1)])
    b = StratifiedPopulation.from_strata([Stratum([1], 0), Stratum([2, 3, 4], 1)])
    with pytest.raises(ValueError):
        PopulationRound([a, b])


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        StratumStats(0.0, -1.0)


# ---------------------------------------------------------------- stats

def test_stratum_stats_trivial():
    assert stratum_stats(Stratum([1, 1, 1, 1], 0)) == StratumStats(1.0, 0.0)
    assert stratum_stats(Stratum([0, 2], 0)) == StratumStats(1.0, 1.0)


def test_stratum_stats_matches_two_pass_oracle():
    values = spawn_rng(11).uniform(-5, 9, 40)
    got = stratum_stats(Stratum(values, 0))
    mean, var = two_pass_stats(values)
    assert got.mean == pytest.approx(mean, abs=1e-12)
    assert got.variance == pytest.approx(var, abs=1e-12)


def test_population_mean_equal_strata():
    strata = [Stratum([float(c)] * 5, c - 1) for c in (1, 2, 3, 4)]
    assert population_mean(StratifiedPopulation.from_strata(strata)) == 2.5


def test_population_mean_single_stratum():
    s = Stratum([2.0, 4.0, 9.0], 0)
    pop = StratifiedPopulation.from_strata([s])
    assert population_mean(pop) == stratum_stats(s).mean


def test_population_mean_matches_pooled_mean():
    rng = spawn_rng(42)
    for _ in range(20):
        sizes = rng.integers(1, 30, size=rng.integers(2, 6))
        strata = [Stratum(rng.normal(rng.uniform(-3, 3), 2.0, size=sz), j)
                  for j, sz in enumerate(sizes)]
        pop = StratifiedPopulation.from_strata(strata)
        pooled = pop.pooled_values()
        assert population_mean(pop) == pytest.approx(float(pooled.mean()), abs=1e-12)


# ---------------------------------------------------------------- generators

def test_decreasing_family_shape_and_trend():
    rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, 0)
    assert rounds.n_rounds == 10
    assert rounds.trend is Trend.UNIFORM_DEC
    for pop in rounds.rounds:
        assert pop.n_strata == 4
        assert all(s.size == 10 for s in pop.strata)
    inc = gen_uniform_rounds(INCREASING_MEAN_INTERVALS, 40, 0)
    assert inc.trend is Trend.UNIFORM_INC


def test_degenerate_interval_yields_zeros():
    rounds = gen_uniform_rounds([(0, 0)], 4, seed=3)
    pop = rounds.rounds[0]
    assert population_mean(pop) == 0.0
    assert all(stratum_stats(s).variance == 0.0 for s in pop.strata)


def test_uniform_mean_against_large_redraw_oracle():
    # Oracle: a fresh 1e6-draw estimate of the generator's mean on (0, 1);
    # the 40-value round must sit within 3 sigma / sqrt(40) of it.
    rounds = gen_uniform_rounds([(0, 1)], 40, seed=9)
    sample_mean = float(rounds.rounds[0].pooled_values().mean())
    oracle = float(spawn_rng(987).uniform(0, 1, 10 ** 6).mean())
    sigma = 1.0 / math.sqrt(12.0)
    assert abs(sample_mean - oracle) <= 3 * sigma / math.sqrt(40)


def test_uniform_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_uniform_rounds([], 40, 0)
    with pytest.raises(ValueError):
        gen_uniform_rounds([(0, 1)], 42, 0)
    with pytest.raises(ValueError):
        gen_uniform_rounds([(2, 1)], 40, 0)


def test_normal_random_family_layout():
    rounds = gen_normal_rounds(None, 40, 5, Trend.NORMAL_RANDOM)
    assert rounds.n_rounds == 10
    assert rounds.trend is Trend.NORMAL_RANDOM
    assert all(pop.n_strata == 4 for pop in rounds.rounds)


def test_normal_near_degenerate_sigma():
    rounds = gen_normal_rounds([(5, 1e-9)], 4, 0, Trend.NORMAL_RANDOM)
    pop = rounds.rounds[0]
    assert population_mean(pop) == pytest.approx(5.0, abs=1e-6)
    assert all(stratum_stats(s).variance < 1e-12 for s in pop.strata)


def test_normal_large_sample_variance():
    rounds = gen_normal_rounds([(0, 1)], 10 ** 5, 1, Trend.NORMAL_RANDOM, n_strata=4)
    pooled = rounds.rounds[0].pooled_values()
    assert float(pooled.var()) == pytest.approx(1.0, rel=0.02)


def test_normal_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        gen_normal_rounds([(0, 0.0)], 40, 0, Trend.NORMAL_RANDOM)


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
        rounds = generate_family(fam, seed=1)
        assert rounds.trend is fam
        assert rounds.n_rounds == 10


def test_generators_are_bit_reproducible():
    a = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, 17)
    b = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, 17)
    for pa, pb in zip(a.rounds, b.rounds):
        assert np.array_equal(pa.pooled_values(), pb.pooled_values())
    c = gen_normal_rounds(None, 40, 17, Trend.NORMAL_RANDOM)
    d = gen_normal_rounds(None, 40, 17, Trend.NORMAL_RANDOM)
    for pc, pd in zip(c.rounds, d.rounds):
        assert np.array_equal(pc.pooled_values(), pd.pooled_values())


def test_decreasing_family_round_means_mostly_ordered():
    mids = [0.5 * (lo + hi) for lo, hi in DECREASING_MEAN_INTERVALS]
    assert all(b <= a for a, b in zip(mids, mids[1:]))
    ordered = 0
    total = 0
    for seed in range(100):
        rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed)
        means = [population_mean(pop) for pop in rounds.rounds]
        for a, b in zip(means, means[1:]):
            total += 1
            ordered += a > b
    assert ordered / total >= 0.95


# ---------------------------------------------------------------- draws

def _fixture_population():
    rng = spawn_rng(5)
    strata = [Stratum(rng.normal(j, 1.0, 10), j) for j in range(4)]
    return StratifiedPopulation.from_strata(strata)


def test_draw_one_per_stratum():
    pop = _fixture_population()
    pairs = draw_stratified(pop, 1, seed=0)
    assert [label for label, _ in pairs] == [0, 1, 2, 3]


def test_draw_values_belong_to_their_stratum():
    pop = _fixture_population()
    for label, value in draw_stratified(pop, 3, seed=8):
        assert value in pop.strata[label].values


def test_exhaustive_draw_returns_stratum_multiset():
    pop = _fixture_population()
    pairs = draw_stratified(pop, 10, seed=1)
    for j in range(4):
        got = sorted(v for label, v in pairs if label == j)
        assert got == sorted(pop.strata[j].values.tolist())


def test_draw_is_deterministic_per_seed():
    pop = _fixture_population()
    assert draw_stratified(pop, 2, seed=4) == draw_stratified(pop, 2, seed=4)


def test_draw_rejects_oversized_request():
    pop = _fixture_population()
    with pytest.raises(ValueError):
        draw_stratified(pop, 11, seed=0)
