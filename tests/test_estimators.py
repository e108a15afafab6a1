import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratgrad.estimators import (
    CoefficientBuffers,
    Coefficients,
    Degenerate,
    EstimateTrace,
    batch_estimate,
    gmst_init,
    gmst_step,
    gst_estimate,
    optimal_coefficients,
    optimal_coefficients_elementwise,
    predicted_variance_vsp,
    sgd_estimate,
    stratified_variance,
    summarize_traces,
    trace_estimators,
    unbiased_condition_holds,
    variance_bound,
)
from stratgrad.population import (
    DECREASING_MEAN_INTERVALS,
    StratifiedPopulation,
    Stratum,
    StratumStats,
    gen_uniform_rounds,
    population_mean,
    stratum_stats,
)
from stratgrad.rng import spawn_rng


def signed_stats(abs_mean, var):
    """(mean_prev, var_prev, mean_curr, var_curr) with |means| and variances
    drawn from the given (lo, hi) ranges and independent mean signs."""
    return st.tuples(
        st.floats(*abs_mean), st.floats(*var), st.floats(*abs_mean), st.floats(*var),
        st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]),
    ).map(lambda t: (t[4] * t[0], t[1], t[5] * t[2], t[3]))


# Strategy for inputs guaranteed to take the plain formula branch: means
# bounded away from zero and a variance ratio below the |p| >= 1 threshold.
nondegenerate_stats = signed_stats((0.1, 10.0), (0.5, 1.9))


# ------------------------------------------------------------ coefficients

def test_equal_statistics_give_half_half():
    c = optimal_coefficients(1.0, 2.5, 1.0, 2.5)
    assert (c.p, c.q) == (0.5, 0.5)
    assert c.degenerate is Degenerate.NONE


def test_hand_substitution_case():
    c = optimal_coefficients(2, 1, 1, 1)
    assert c.p == pytest.approx(0.4, abs=1e-15)
    assert c.q == pytest.approx(0.2, abs=1e-15)
    assert c.p / (1 - c.q) == pytest.approx(0.5, abs=1e-12)


def test_zero_over_zero_limit_branch():
    c = optimal_coefficients(0, 3, 0, 1)
    assert c.degenerate is Degenerate.ZERO_OVER_ZERO
    assert c.p == pytest.approx(0.25, abs=1e-15)
    assert c.q == pytest.approx(0.75, abs=1e-15)


def test_guarded_denominator_branch():
    c = optimal_coefficients(0, 0, 0, 0)
    assert c == Coefficients(0.0, 1.0, Degenerate.GUARDED_DENOMINATOR)


def test_unsatisfiable_mean_ratio_falls_back():
    c = optimal_coefficients(0.0, 2.0, 3.0, 1.0)
    assert c.is_fallback
    assert (c.p, c.q) == (0.0, 1.0)


def test_memory_blowup_falls_back():
    # zero previous variance with growing means pushes p to mean ratio > 1
    c = optimal_coefficients(1.0, 0.0, 5.0, 2.0)
    assert c.is_fallback


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        optimal_coefficients(1, -1, 1, 1)


def test_negative_p_allowed_for_opposite_signs():
    c = optimal_coefficients(-2.0, 1.0, 1.0, 1.0)
    assert c.p < 0
    assert unbiased_condition_holds(c, -2.0, 1.0)


@given(nondegenerate_stats)
def test_coefficient_identity_property(stats):
    mp, vp, mc, vc = stats
    c = optimal_coefficients(mp, vp, mc, vc)
    assert c.degenerate is Degenerate.NONE
    assert unbiased_condition_holds(c, mp, mc, tol=1e-9)


@given(nondegenerate_stats)
def test_q_below_one_when_current_variance_positive(stats):
    mp, vp, mc, vc = stats
    c = optimal_coefficients(mp, vp, mc, vc)
    assert 0.0 <= c.q < 1.0


def test_decay_prerequisite_p_at_most_one_for_equal_means():
    rng = spawn_rng(1)
    for _ in range(500):
        mean = rng.uniform(-4, 4)
        c = optimal_coefficients(mean, rng.uniform(0, 3), mean, rng.uniform(0, 3))
        assert c.p <= 1.0
    # both means zero with positive variances: strictly below one
    c = optimal_coefficients(0.0, 1.5, 0.0, 2.5)
    assert c.p < 1.0


def test_elementwise_agrees_with_scalar():
    rng = spawn_rng(2)
    mp = rng.uniform(-3, 3, 400)
    vp = rng.uniform(0, 4, 400)
    mc = rng.uniform(-3, 3, 400)
    vc = rng.uniform(0, 4, 400)
    # salt in the special cases
    mp[:5] = 0.0
    mc[:3] = 0.0
    vp[5:8] = 0.0
    vc[8:10] = 0.0
    mp[10] = mc[10] = 0.0
    p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
    fallbacks = 0
    for i in range(400):
        c = optimal_coefficients(mp[i], vp[i], mc[i], vc[i])
        assert p[i] == pytest.approx(c.p, abs=1e-15), i
        assert q[i] == pytest.approx(c.q, abs=1e-15), i
        fallbacks += c.is_fallback
    assert n_fallback == fallbacks


def test_elementwise_out_buffers_give_the_allocating_bits():
    rng = spawn_rng(3)
    shape = (3, 5, 40)
    # gradient-sized and unit-sized statistics, so both the fallback and
    # the plain formula fire, salted with the zero-mean special cases
    scale = np.where(rng.random(shape) < 0.5, 1e-3, 1.0)
    mp, mc = rng.normal(0, 1, shape) * scale, rng.normal(0, 1, shape) * scale
    vp, vc = rng.exponential(1, shape) * scale ** 2, rng.exponential(1, shape) * scale ** 2
    mp[0, 0] = 0.0
    mc[0, :2] = 0.0
    vc[1, 0] = 0.0
    p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
    out = CoefficientBuffers.empty(shape)
    for arr in out:
        arr.fill(1)  # stale contents must not leak into the result
    p_out, q_out, n_out = optimal_coefficients_elementwise(mp, vp, mc, vc, out=out)
    assert p_out is out.p and q_out is out.q
    assert np.array_equal(p_out.view(np.int64), p.view(np.int64))
    assert np.array_equal(q_out.view(np.int64), q.view(np.int64))
    assert n_out == n_fallback
    assert 0 < n_fallback < p.size


# Statistics whose scaled copies stay normal floats for every 2**k below.
@given(signed_stats((1e-3, 10.0), (1e-6, 10.0)), st.integers(-27, 27))
def test_coefficients_invariant_under_power_of_two_rescaling(stats, k):
    # (m, V) -> (s*m, s^2*V) scales every product in the formula by an
    # exact power of two, so the mixing pair and the fallback decision must
    # not change by a single bit, whatever the magnitude of the gradients.
    mp, vp, mc, vc = stats
    s = 2.0 ** k
    scaled = (s * mp, s * s * vp, s * mc, s * s * vc)

    def bits(p, q):
        return np.array([p, q], dtype=np.float64).view(np.int64).tolist()

    base, moved = optimal_coefficients(*stats), optimal_coefficients(*scaled)
    assert bits(moved.p, moved.q) == bits(base.p, base.q)
    assert moved.degenerate is base.degenerate
    p, q, n_fallback = optimal_coefficients_elementwise(*([v] for v in stats))
    p_s, q_s, n_scaled = optimal_coefficients_elementwise(*([v] for v in scaled))
    assert bits(p_s[0], q_s[0]) == bits(p[0], q[0])
    assert n_scaled == n_fallback


# ------------------------------------------------------------ condition check

def test_condition_rejects_mismatched_pair():
    assert not unbiased_condition_holds(Coefficients(0.9, 0.5), 1.0, 1.0)


def test_condition_equal_means_force_complement():
    assert unbiased_condition_holds(Coefficients(0.5, 0.5), 7.0, 7.0)


def test_condition_zero_prev_mean_unsatisfiable():
    assert not unbiased_condition_holds(Coefficients(0.5, 0.5), 0.0, 1.0)
    assert unbiased_condition_holds(Coefficients(0.0, 1.0), 0.0, 0.0)


# ------------------------------------------------------------ simple estimators

def test_gst_constant_strata():
    samples = [[1.0], [2.0], [3.0], [4.0]]
    assert gst_estimate(samples, [0.25] * 4) == 2.5


def test_gst_single_samples_weighted_sum():
    samples = [[2.0], [10.0]]
    assert gst_estimate(samples, [0.75, 0.25]) == pytest.approx(4.0)


def test_gst_missing_stratum_rejected():
    with pytest.raises(ValueError):
        gst_estimate([[1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        gst_estimate([[1.0], []], [0.5, 0.5])


def test_gst_monte_carlo_unbiasedness():
    pop = gen_uniform_rounds(DECREASING_MEAN_INTERVALS[:1], 40, seed=3).rounds[0]
    truth = population_mean(pop)
    rng = spawn_rng(77)
    reps = 10 ** 5
    idx = rng.integers(0, 10, size=(reps, 4))
    values = np.stack([s.values for s in pop.strata])  # (4, 10)
    draws = values[np.arange(4)[None, :], idx]
    estimates = draws @ pop.weights
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - truth) <= 3 * se


def test_sgd_and_batch_estimates():
    assert sgd_estimate(3.7) == 3.7
    assert batch_estimate([1.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        batch_estimate([])


def test_batch_over_whole_population_is_exact():
    pop = gen_uniform_rounds([(0, 5)], 40, seed=1).rounds[0]
    assert batch_estimate(pop.pooled_values()) == pytest.approx(population_mean(pop), abs=1e-12)


# ------------------------------------------------------------ memory estimator

def _stats_of(pop):
    return [stratum_stats(s) for s in pop.strata]


def test_init_estimate_equals_gst():
    pop = gen_uniform_rounds([(2, 6)], 40, seed=4).rounds[0]
    samples = [[float(s.values[0])] for s in pop.strata]
    state, est = gmst_init(samples, _stats_of(pop), pop.weights)
    assert est == gst_estimate(samples, pop.weights)
    assert state.iteration == 1
    assert state.fallbacks == 0


def test_init_constant_population():
    strata = [Stratum([4.0] * 10, j) for j in range(4)]
    pop = StratifiedPopulation.from_strata(strata)
    _, est = gmst_init([[4.0]] * 4, _stats_of(pop), pop.weights)
    assert est == 4.0


def test_step_constant_strata_fixed_point():
    strata = [Stratum([4.0] * 10, j) for j in range(4)]
    pop = StratifiedPopulation.from_strata(strata)
    stats = _stats_of(pop)
    state, est = gmst_init([[4.0]] * 4, stats, pop.weights)
    for _ in range(5):
        state, est = gmst_step(state, [4.0] * 4, stats, pop.weights)
        assert est == 4.0


def test_step_equal_stats_is_running_average():
    stats = [StratumStats(2.0, 1.0), StratumStats(3.0, 2.0)]
    weights = [0.5, 0.5]
    state, _ = gmst_init([[1.0], [2.0]], stats, weights)
    new_state, est = gmst_step(state, [5.0, 4.0], stats, weights)
    assert np.allclose(new_state.memory, [3.0, 3.0])  # (old + fresh) / 2
    assert est == pytest.approx(3.0)
    assert new_state.iteration == 2


def test_step_does_not_mutate_input_state():
    stats = [StratumStats(2.0, 1.0)]
    state, _ = gmst_init([[1.0]], stats, [1.0])
    before = state.memory.copy()
    gmst_step(state, [9.0], stats, [1.0])
    assert np.array_equal(state.memory, before)
    assert state.iteration == 1


def test_step_monte_carlo_unbiasedness_round_two():
    rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS[:2], 40, seed=12)
    pop1, pop2 = rounds.rounds
    stats1, stats2 = _stats_of(pop1), _stats_of(pop2)
    truth = population_mean(pop2)
    rng = spawn_rng(55)
    reps = 10 ** 5
    v1 = np.stack([s.values for s in pop1.strata])
    v2 = np.stack([s.values for s in pop2.strata])
    first = v1[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    fresh = v2[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    estimates = np.empty(reps)
    for r in range(reps):
        state, _ = gmst_init(first[r], stats1, pop1.weights)
        _, estimates[r] = gmst_step(state, fresh[r], stats2, pop2.weights)
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - truth) <= 3 * se


# ------------------------------------------------------------ variance calculus

def test_predicted_variance_hand_case():
    v = predicted_variance_vsp([StratumStats(2, 1)], [StratumStats(1, 1)], [1.0])
    assert v == pytest.approx(0.2, abs=1e-15)


def test_predicted_variance_zero_prev_variance():
    prev = [StratumStats(2.0, 0.0), StratumStats(-1.0, 0.0)]
    curr = [StratumStats(1.5, 2.0), StratumStats(-0.5, 3.0)]
    assert predicted_variance_vsp(prev, curr, [0.5, 0.5]) == 0.0


def test_predicted_variance_undefined_case_raises():
    with pytest.raises(ValueError):
        predicted_variance_vsp([StratumStats(0.0, 0.0)], [StratumStats(1.0, 2.0)], [1.0])


def test_design_effect_against_independent_oracle():
    rng = spawn_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        w = rng.uniform(0.2, 1.0, n)
        w = w / w.sum()
        prev = [StratumStats(rng.uniform(0.1, 5) * rng.choice([-1, 1]),
                             rng.uniform(0.01, 10)) for _ in range(n)]
        curr = [StratumStats(rng.uniform(0.1, 5) * rng.choice([-1, 1]),
                             rng.uniform(0.01, 10)) for _ in range(n)]
        vsp = predicted_variance_vsp(prev, curr, w)
        # independent oracle for the memoryless variance
        oracle = math.fsum(float(wj) ** 2 * s.variance for wj, s in zip(w, curr))
        assert vsp < oracle
        assert stratified_variance(curr, w) == pytest.approx(oracle, rel=1e-12)


def test_variance_of_blend_matches_prediction_per_stratum():
    rng = spawn_rng(33)
    reps = 10 ** 5
    for _ in range(5):
        mp, mc = rng.uniform(0.5, 3, 2)
        vp, vc = rng.uniform(0.2, 2, 2)
        c = optimal_coefficients(mp, vp, mc, vc)
        blend = c.p * rng.normal(mp, math.sqrt(vp), reps) \
            + c.q * rng.normal(mc, math.sqrt(vc), reps)
        predicted = predicted_variance_vsp([StratumStats(mp, vp)], [StratumStats(mc, vc)],
                                           [1.0])
        emp = blend.var(ddof=1)
        centered = blend - blend.mean()
        se = math.sqrt(max(float(np.mean(centered ** 4)) - emp * emp, 0.0) / reps)
        assert abs(emp - predicted) <= 3 * se


def test_variance_bound_single_step():
    assert variance_bound(2.0, [3.0], p=0.5, q=0.5, t=1) == \
        pytest.approx(0.25 * 2.0 + 0.25 * 3.0)


def test_variance_bound_memoryless_limit():
    tiny = variance_bound(100.0, [7.0], p=1e-12, q=0.5, t=1)
    assert tiny == pytest.approx(0.25 * 7.0, rel=1e-9)


def test_variance_bound_validates_inputs():
    with pytest.raises(ValueError):
        variance_bound(1.0, [1.0], p=1.0, q=0.5, t=1)
    with pytest.raises(ValueError):
        variance_bound(1.0, [1.0, 1.0], p=0.5, q=0.5, t=1)


def test_variance_bound_dominates_monte_carlo_stationary():
    pop = gen_uniform_rounds([(0, 4)], 40, seed=8).rounds[0]
    stats = _stats_of(pop)
    weights = pop.weights
    v_st = stratified_variance(stats, weights)
    reps = 20_000
    rng = spawn_rng(93)
    values = np.stack([s.values for s in pop.strata])
    memory = values[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    coeffs = [optimal_coefficients(s.mean, s.variance, s.mean, s.variance) for s in stats]
    p_max = max(c.p for c in coeffs)
    q_max = max(c.q for c in coeffs)
    assert all(0 < c.p < 1 for c in coeffs)
    for t in range(1, 11):
        fresh = values[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
        memory = np.stack([coeffs[j].p * memory[:, j] + coeffs[j].q * fresh[:, j]
                           for j in range(4)], axis=1)
        estimates = memory @ weights
        emp = estimates.var(ddof=1)
        centered = estimates - estimates.mean()
        se = math.sqrt(max(float(np.mean(centered ** 4)) - emp * emp, 0.0) / reps)
        bound = variance_bound(v_st, [v_st] * t, p_max, q_max, t)
        assert emp <= bound + 3 * se, f"step {t}"


def test_stationary_chain_matches_gmst_step():
    # the vectorized chain above must follow the real estimator exactly
    pop = gen_uniform_rounds([(0, 4)], 40, seed=8).rounds[0]
    stats = _stats_of(pop)
    weights = pop.weights
    rng = spawn_rng(94)
    values = np.stack([s.values for s in pop.strata])
    coeffs = [optimal_coefficients(s.mean, s.variance, s.mean, s.variance) for s in stats]
    for _ in range(50):
        first = values[np.arange(4), rng.integers(0, 10, 4)]
        state, _ = gmst_init(first, stats, weights)
        vec = first.copy()
        for _ in range(5):
            fresh = values[np.arange(4), rng.integers(0, 10, 4)]
            state, est = gmst_step(state, fresh, stats, weights)
            vec = np.array([coeffs[j].p * vec[j] + coeffs[j].q * fresh[j] for j in range(4)])
            assert est == pytest.approx(float(vec @ weights), abs=1e-12)


# ------------------------------------------------------------ traces

def test_trace_lengths_and_sq_dev_invariant():
    rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    traces = trace_estimators(rounds, seed=5)
    for name, seq in traces.items():
        assert len(seq) == 10, name
        for t in seq:
            assert t.sq_dev == pytest.approx((t.estimate - t.truth) ** 2, abs=1e-12)


def test_trace_constant_population_all_exact():
    rounds = gen_uniform_rounds([(3, 3)] * 4, 40, seed=2)
    traces = trace_estimators(rounds, seed=5)
    for seq in traces.values():
        assert all(t.sq_dev == 0.0 for t in seq)


def test_trace_determinism():
    rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    a = trace_estimators(rounds, seed=5)
    b = trace_estimators(rounds, seed=5)
    assert a == b


def test_trace_fallback_counter_exposed():
    rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    counters = {}
    trace_estimators(rounds, seed=5, counters=counters)
    assert counters["gmst_fallbacks"] >= 0


def test_trace_ordering_over_many_seeds():
    per_seed = []
    for s in range(1000):
        rounds = gen_uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=(100, s))
        per_seed.append(trace_estimators(rounds, seed=(101, s)))
    summary = summarize_traces(per_seed)
    means = {name: summary[name]["mean_sq_dev"] for name in summary}
    assert means["gmst"] < means["gst"] < means["batch"]


def test_estimate_trace_factory():
    t = EstimateTrace.from_estimate(3, 1.5, 1.0)
    assert t.sq_dev == 0.25
