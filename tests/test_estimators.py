import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stratgrad
from stratgrad.cli import _matrix_rounds
from stratgrad.estimators import (
    ESTIMATOR_NAMES,
    blended_variance,
    gmst_estimate,
    gst_estimate,
    optimal_coefficients_elementwise,
    summarize_traces,
    trace_estimators,
)
from stratgrad.population import (
    DECREASING_MEAN_INTERVALS,
    PopulationRound,
    Trend,
    generate_family,
    sample_strata,
)
from stratgrad.rng import spawn_rng, spawn_rngs

from oracles import (
    Coefficients,
    Degenerate,
    blended_variance_term,
    coefficients_elementwise_reference,
    numpy_stream,
    optimal_coefficients,
    stratified_variance,
    trace_estimators_reference,
    unbiased_condition_holds,
    uniform_rounds,
    variance_bound,
)


def stack(sequences) -> PopulationRound:
    """One population stack of the replications of round sequences that share a layout."""
    sequences = list(sequences)
    return PopulationRound(np.concatenate([r.values for r in sequences]), sequences[0].sizes)


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

def coefficients(mean_prev, var_prev, mean_curr, var_curr) -> Coefficients:
    """The vector kernel on one stratum, as a pair without a provenance flag."""
    p, q, _ = optimal_coefficients_elementwise(mean_prev, var_prev, mean_curr, var_curr)
    return Coefficients(float(p), float(q))


def test_equal_statistics_give_half_half():
    p, q, n_fallback = optimal_coefficients_elementwise(1.0, 2.5, 1.0, 2.5)
    assert (p, q) == (0.5, 0.5)
    assert n_fallback == 0
    assert optimal_coefficients(1.0, 2.5, 1.0, 2.5).degenerate is Degenerate.NONE


def test_hand_substitution_case():
    c = coefficients(2, 1, 1, 1)
    assert c.p == pytest.approx(0.4, abs=1e-15)
    assert c.q == pytest.approx(0.2, abs=1e-15)
    assert c.p / (1 - c.q) == pytest.approx(0.5, abs=1e-12)


def test_zero_over_zero_limit_branch():
    p, q, n_fallback = optimal_coefficients_elementwise(0, 3, 0, 1)
    assert n_fallback == 0
    assert optimal_coefficients(0, 3, 0, 1).degenerate is Degenerate.ZERO_OVER_ZERO
    assert p == pytest.approx(0.25, abs=1e-15)
    assert q == pytest.approx(0.75, abs=1e-15)


def test_guarded_denominator_branch():
    assert optimal_coefficients_elementwise(0, 0, 0, 0) == (0.0, 1.0, 1)
    c = optimal_coefficients(0, 0, 0, 0)
    assert c == Coefficients(0.0, 1.0, Degenerate.GUARDED_DENOMINATOR)


def test_unsatisfiable_mean_ratio_falls_back():
    assert optimal_coefficients_elementwise(0.0, 2.0, 3.0, 1.0) == (0.0, 1.0, 1)
    assert optimal_coefficients(0.0, 2.0, 3.0, 1.0).is_fallback


def test_memory_blowup_falls_back():
    # zero previous variance with growing means pushes p to mean ratio > 1
    assert optimal_coefficients_elementwise(1.0, 0.0, 5.0, 2.0) == (0.0, 1.0, 1)
    assert optimal_coefficients(1.0, 0.0, 5.0, 2.0).is_fallback


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        optimal_coefficients_elementwise(1, -1, 1, 1)
    with pytest.raises(ValueError):
        optimal_coefficients_elementwise([1, 1], [1, 1], [1, 1], [1, -1])
    with pytest.raises(ValueError):
        optimal_coefficients(1, -1, 1, 1)
    with pytest.raises(ValueError):
        blended_variance(1, 1, 1, -1)
    with pytest.raises(ValueError):
        blended_variance([0, 1], [1, -1], [0, 1], [1, 1])


def test_negative_p_allowed_for_opposite_signs():
    c = coefficients(-2.0, 1.0, 1.0, 1.0)
    assert c.p < 0
    assert unbiased_condition_holds(c, -2.0, 1.0)


@given(nondegenerate_stats)
def test_coefficient_identity_property(stats):
    mp, vp, mc, vc = stats
    p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
    assert n_fallback == 0
    assert optimal_coefficients(mp, vp, mc, vc).degenerate is Degenerate.NONE
    assert unbiased_condition_holds(Coefficients(float(p), float(q)), mp, mc, tol=1e-9)


@given(nondegenerate_stats)
def test_q_below_one_when_current_variance_positive(stats):
    c = coefficients(*stats)
    assert 0.0 <= c.q < 1.0


def test_decay_prerequisite_p_at_most_one_for_equal_means():
    rng = spawn_rng(1)
    draws = np.array([(rng.uniform(-4, 4), rng.uniform(0, 3), rng.uniform(0, 3))
                      for _ in range(500)])
    mean, var_prev, var_curr = draws.T
    p, _, _ = optimal_coefficients_elementwise(mean, var_prev, mean, var_curr)
    assert (p <= 1.0).all()
    # both means zero with positive variances: strictly below one
    assert coefficients(0.0, 1.5, 0.0, 2.5).p < 1.0


def uniform_stats():
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
    return mp, vp, mc, vc


def mixed_scale_stats():
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
    return mp, vp, mc, vc


@pytest.mark.parametrize("make_stats", [uniform_stats, mixed_scale_stats],
                         ids=["uniform", "mixed-scale"])
def test_elementwise_agrees_with_scalar(make_stats):
    mp, vp, mc, vc = make_stats()
    p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
    assert p.shape == q.shape == mp.shape
    fallbacks = 0
    for i in np.ndindex(mp.shape):
        c = optimal_coefficients(mp[i], vp[i], mc[i], vc[i])
        # the same operations in the same order: equal to the last bit
        got = np.array([p[i], q[i]]).view(np.int64)
        want = np.array([c.p, c.q], dtype=np.float64).view(np.int64)
        assert np.array_equal(got, want), i
        fallbacks += c.is_fallback
    assert n_fallback == fallbacks
    assert 0 < n_fallback < p.size


# Every combination of these, as (mean_prev, var_prev, mean_curr, var_curr):
# NaN of both signs, infinities, signed zeros, subnormals, the smallest
# normal, ordinary values, and magnitudes whose products overflow or
# underflow. Variances take the ones that are not below zero.
GRID_MEANS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
              np.finfo(np.float64).tiny, 1e-170, 1e-3, 1.0, -2.5, 1e200, -1e200]
GRID_VARS = [np.nan, np.inf, 0.0, -0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny,
             1e-6, 1.0, 1e300]


@pytest.mark.parametrize("shape", [(16, 10, 16, 10), (25600,), (40, 640)])
def test_elementwise_equals_whole_shape_reference_on_special_values(shape):
    # The kernel gathers what its main branch leaves unsettled; the
    # reference takes every element down every branch by mask. Same bits,
    # NaN payloads included, and the same fallback count, in any layout.
    stats = [a.reshape(shape) for a in
             np.meshgrid(GRID_MEANS, GRID_VARS, GRID_MEANS, GRID_VARS, indexing="ij")]
    with np.errstate(all="ignore"):  # inf * 0 and the like, on both sides
        p, q, n_fallback = optimal_coefficients_elementwise(*stats)
        p_ref, q_ref, n_ref = coefficients_elementwise_reference(*stats)
    assert p.view(np.int64).tolist() == p_ref.view(np.int64).tolist()
    assert q.view(np.int64).tolist() == q_ref.view(np.int64).tolist()
    assert n_fallback == n_ref
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
    assert gst_estimate([1.0, 2.0, 3.0, 4.0], [0.25] * 4) == 2.5


@pytest.mark.parametrize("n_strata", [1, 4, 10])
def test_stacked_gst_has_the_bits_of_one_dot_per_row(n_strata):
    rng = spawn_rng(5, n_strata)
    weights = rng.uniform(0.1, 1.0, n_strata)
    weights /= weights.sum()
    scale = 10.0 ** rng.integers(-6, 2, (7, 30, 1))  # gradient- and population-sized rows
    sample_means = rng.normal(0, 1, (7, 30, n_strata)) * scale
    got = gst_estimate(sample_means, weights)
    assert got.shape == (7, 30)
    want = np.array([[np.dot(weights, row) for row in block] for block in sample_means])
    assert got.tobytes() == want.tobytes()
    # a non-contiguous stack gives the same bits as its rows
    assert gst_estimate(sample_means[:, ::3], weights).tobytes() == want[:, ::3].tobytes()


def test_gst_single_samples_weighted_sum():
    assert gst_estimate([2.0, 10.0], [0.75, 0.25]) == pytest.approx(4.0)


def test_gst_missing_stratum_rejected():
    with pytest.raises(ValueError):
        gst_estimate([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        gst_estimate([[1.0], [2.0]], [0.5, 0.5])  # one mean per stratum, not blocks


def test_gst_monte_carlo_unbiasedness():
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS[:1], 40, seed=3)
    truth = rounds.truth[0, 0]
    rng = spawn_rng(77)
    reps = 10 ** 5
    idx = rng.integers(0, 10, size=(reps, 4))
    values = rounds.values[0, 0].reshape(4, 10)
    draws = values[np.arange(4)[None, :], idx]
    estimates = draws @ rounds.weights
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - truth) <= 3 * se


def test_sgd_and_batch_estimates():
    # sgd reports one value of the round; so does batch, whose budget is one
    # draw per stratum, when the round is one stratum
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=6)
    race = trace_estimators(PopulationRound(rounds.values, [40]),
                            [spawn_rng(1), spawn_rng(2), spawn_rng(3)])
    for r in range(3):
        for k in range(rounds.n_rounds):
            assert race.estimates[r, 3, k] in rounds.values[0, k]
            assert race.estimates[r, 2, k] in rounds.values[0, k]
    # refused before the batch budget is formed from it
    with pytest.raises(ValueError, match="per_stratum must be at least 1"):
        trace_estimators(rounds, [spawn_rng(1)], per_stratum=0)


# ------------------------------------------------------------ memory estimator

def _stats_of(rounds, k=0):
    return rounds.means[0, k], rounds.variances[0, k]


def test_init_estimate_equals_gst():
    # round 1 of gmst is the gst estimate of gmst's own draws, the first the
    # generator gives, without fallbacks
    rounds = uniform_rounds([(2, 6)], 40, seed=4)
    race = trace_estimators(rounds, [spawn_rng(7)])
    draws = sample_strata(rounds, 1, [spawn_rng(7)]).mean(axis=3)
    assert race.estimates[0, 0, 0] == gst_estimate(draws[0, 0], rounds.weights)
    assert race.fallbacks == 0


def test_init_constant_population():
    rounds = PopulationRound(np.full((1, 1, 40), 4.0), [10] * 4)
    race = trace_estimators(rounds, [spawn_rng(0)])
    assert race.estimates[0, 0, 0] == 4.0


def test_step_constant_strata_fixed_point():
    rounds = PopulationRound(np.full((1, 1, 40), 4.0), [10] * 4)
    stats = _stats_of(rounds)
    estimates, n_fallback = gmst_estimate(np.full((6, 4), 4.0), *stats, rounds.weights)
    assert estimates.tolist() == [4.0] * 6
    assert n_fallback == 4 * 5  # every stratum is constant: zero denominators


def test_step_equal_stats_is_running_average():
    means, variances = [2.0, 3.0], [1.0, 2.0]
    draws = [[1.0, 2.0], [5.0, 4.0]]
    # a weight of one on a stratum reads its memory
    memory = [gmst_estimate(draws, means, variances, weights)[0][1]
              for weights in ([1.0, 0.0], [0.0, 1.0])]
    assert np.allclose(memory, [3.0, 3.0])  # (old + fresh) / 2
    estimates, n_fallback = gmst_estimate(draws, means, variances, [0.5, 0.5])
    assert estimates[1] == pytest.approx(3.0)
    assert n_fallback == 0


def test_step_does_not_mutate_input_state():
    draws = np.array([[1.0], [9.0]])
    gmst_estimate(draws, [2.0], [1.0], [1.0])
    assert draws.tolist() == [[1.0], [9.0]]
    draws = numpy_stream(36).normal(0.0, 1.0, (4, 3, 2))
    means, variances = np.ones((3, 2)), np.ones((3, 2))
    kept = [a.copy() for a in (draws, means, variances)]
    gmst_estimate(draws, means, variances, [0.5, 0.5])
    assert all(np.array_equal(a, b) for a, b in zip((draws, means, variances), kept))


def test_step_rejects_a_changed_stratum_count():
    draws = [[1.0, 2.0], [5.0, 4.0]]
    with pytest.raises(ValueError):
        gmst_estimate([[1.0], [5.0]], [2.0, 3.0], [1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        gmst_estimate(draws, [2.0, 3.0, 1.0], [1.0, 2.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        gmst_estimate(draws, [2.0, 3.0], [1.0, 2.0], [0.2, 0.3, 0.5])


def test_step_monte_carlo_unbiasedness_round_two():
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS[:2], 40, seed=12)
    truth = rounds.truth[0, 1]
    rng = spawn_rng(55)
    reps = 10 ** 5
    v1, v2 = rounds.values.reshape(2, 4, 10)
    first = v1[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    fresh = v2[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    estimates, _ = gmst_estimate(np.stack([first, fresh], axis=1), rounds.means[0],
                                 rounds.variances[0], rounds.weights)
    estimates = estimates[:, 1]
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - truth) <= 3 * se


def gmst_round_loop(sample_means, means, variances, weights):
    """gmst over a round sequence one round at a time, from the public kernel."""
    sample_means = np.asarray(sample_means, dtype=np.float64)
    means, variances = (np.broadcast_to(a, sample_means.shape) for a in (means, variances))
    memory = sample_means[..., 0, :]
    estimates, fallbacks = [gst_estimate(memory, weights)], 0
    for k in range(1, sample_means.shape[-2]):
        p, q, n = optimal_coefficients_elementwise(means[..., k - 1, :], variances[..., k - 1, :],
                                                   means[..., k, :], variances[..., k, :])
        memory = p * memory + q * sample_means[..., k, :]
        estimates.append(gst_estimate(memory, weights))
        fallbacks += n
    return np.stack(estimates, axis=-1), fallbacks


def _branch_stats(branch):
    """(means, variances) of 5 rounds x 3 strata whose stratum 1 takes a kernel branch."""
    rng = numpy_stream(31)
    means = rng.uniform(1.0, 3.0, (5, 3))
    variances = rng.uniform(0.5, 2.0, (5, 3))
    if branch == "zero-variance":
        variances[:, 1] = 0.0
    elif branch == "zero-previous-mean":
        means[1:4:2, 1] = 0.0
    elif branch == "both-means-zero":
        means[1:4, 1] = 0.0
    return means, variances


@pytest.mark.parametrize("branch, n_fallback", [
    ("main", 0), ("zero-variance", 4 * 7), ("zero-previous-mean", 2 * 7),
    ("both-means-zero", 1 * 7)])
def test_gmst_estimate_equals_a_per_round_loop_bit_for_bit(branch, n_fallback):
    means, variances = _branch_stats(branch)
    weights = np.array([0.2, 0.3, 0.5])
    draws = numpy_stream(32).normal(means, 1.0, (7, 5, 3))
    estimates, fallbacks = gmst_estimate(draws, means, variances, weights)
    want, want_fallbacks = gmst_round_loop(draws, means, variances, weights)
    assert estimates.shape == (7, 5)
    assert estimates.tobytes() == want.tobytes()
    assert fallbacks == want_fallbacks == n_fallback


@pytest.mark.parametrize("shape", [(4, 6), (3, 10, 4), (2, 3, 7, 5)])
def test_gmst_estimate_equals_a_per_round_loop_on_random_stacks(shape):
    rng = numpy_stream(33)
    means = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 5.0, shape)
    variances = rng.uniform(0.0, 3.0, shape)
    draws = rng.normal(means, np.sqrt(variances))
    weights = rng.dirichlet(np.ones(shape[-1]))
    estimates, fallbacks = gmst_estimate(draws, means, variances, weights)
    want, want_fallbacks = gmst_round_loop(draws, means, variances, weights)
    assert estimates.tobytes() == want.tobytes()
    assert fallbacks == want_fallbacks


def test_gmst_estimate_of_one_round_is_the_gst_estimate_of_its_draws():
    draws = numpy_stream(34).uniform(0.0, 4.0, (6, 1, 3))
    weights = [0.5, 0.25, 0.25]
    estimates, fallbacks = gmst_estimate(draws, [[1.0, 2.0, 3.0]], [[1.0, 1.0, 0.0]], weights)
    assert estimates.tobytes() == gst_estimate(draws, weights).tobytes()
    assert estimates.shape == (6, 1) and fallbacks == 0
    assert gmst_estimate(draws[0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], weights)[0].tolist() == \
        [gst_estimate(draws[0, 0], weights)]


def test_statistics_of_one_replication_count_fallbacks_for_every_draw():
    means, variances = _branch_stats("zero-previous-mean")
    draws = numpy_stream(35).normal(0.0, 1.0, (6, 5, 3))
    weights = [0.2, 0.3, 0.5]
    _, one = gmst_estimate(draws[:1], means[None], variances[None], weights)
    assert one == 2
    assert gmst_estimate(draws, means[None], variances[None], weights)[1] == 6 * one


def test_a_race_makes_one_kernel_call(monkeypatch):
    calls = []

    def spy(*stats):
        calls.append(np.shape(stats[0]))
        return kernel(*stats)

    kernel = optimal_coefficients_elementwise
    monkeypatch.setattr(stratgrad.estimators, "optimal_coefficients_elementwise", spy)
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    trace_estimators(rounds, [spawn_rng(5), spawn_rng(6), spawn_rng(7)])
    assert calls == [(3, 9, 4)]
    trace_estimators(rounds, [spawn_rng(5)])
    assert calls == [(3, 9, 4), (1, 9, 4)]


def test_gmst_estimate_refuses_draws_without_rounds_and_statistics_that_do_not_fit():
    draws = np.zeros((4, 3, 2))
    with pytest.raises(ValueError, match="rounds, strata"):
        gmst_estimate([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="do not fit"):
        gmst_estimate(draws, np.ones((4, 2)), np.ones((3, 2)), [0.5, 0.5])
    with pytest.raises(ValueError, match="do not fit"):  # more replications than draws
        gmst_estimate(draws, np.ones((3, 2)), np.ones((5, 3, 2)), [0.5, 0.5])


# ------------------------------------------------------------ variance calculus

def test_predicted_variance_hand_case():
    assert blended_variance(2, 1, 1, 1) == pytest.approx(0.2, abs=1e-15)


def test_predicted_variance_zero_prev_variance():
    v = blended_variance([2.0, -1.0], [0.0, 0.0], [1.5, -0.5], [2.0, 3.0])
    assert v.tolist() == [0.0, 0.0]


def test_predicted_variance_undefined_case_raises():
    with pytest.raises(ValueError):
        blended_variance(0.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        blended_variance([1.0, -0.0], [1.0, 0.0], [1.0, -3.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        blended_variance_term(0.0, 0.0, 1.0, 2.0)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_blended_variance_equals_scalar_reference_across_scales():
    rng = spawn_rng(23)
    n = 4000
    # magnitudes from 1e-12 to 1e12, independently per statistic and element
    mp, mc = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 12, n) for _ in range(2))
    vp, vc = (10.0 ** rng.uniform(-12, 12, n) for _ in range(2))
    # salt in exact zeros of either sign, alone and together
    mp[:40] = 0.0
    mp[40:60] = -0.0
    mc[20:50] = 0.0
    mc[50:70] = -0.0
    vp[60:120:2] = 0.0
    vc[61:121:2] = 0.0
    vp[200:220] = vc[200:220] = 0.0
    ok = ~((mp == 0.0) & (mc != 0.0) & (vc > 0.0) & (mc * mc * vp == 0.0))
    mp, vp, mc, vc = mp[ok], vp[ok], mc[ok], vc[ok]
    got = blended_variance(mp, vp, mc, vc)
    assert got.shape == mp.shape
    want = [blended_variance_term(*t) for t in zip(mp.tolist(), vp.tolist(), mc.tolist(),
                                                     vc.tolist())]
    assert got.tolist() == want
    assert _bits(got) == _bits(want)
    # and on one stratum at a time, as a 0-d array
    for i in range(0, mp.size, 97):
        assert blended_variance(mp[i], vp[i], mc[i], vc[i]) == want[i]


@pytest.mark.parametrize("stats", [
    (0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, 0.0), (0.0, 3.0, -0.0, 1.0),
    (0.0, 0.0, 0.0, 2.0), (-0.0, 5.0, -0.0, 0.0), (2.0, 0.0, 3.0, 0.0),
    (-1.0, 0.0, 5.0, 2.0), (1.0, 0.0, 5.0, 2.0), (0.0, 2.0, 3.0, 1.0),
    (0.0, 0.0, 3.0, 0.0), (-0.0, 0.0, -3.0, 0.0), (4.0, 1.0, 0.0, 1.0),
    (4.0, 1.0, -0.0, 0.0), (2.0, 1.0, 1.0, 1.0), (1e-200, 1e-200, 1e-200, 1e-200),
])
def test_blended_variance_special_values_equal_scalar_reference(stats):
    want = blended_variance_term(*stats)
    got = blended_variance(*stats)
    assert got.shape == ()
    assert got == want and _bits(got) == _bits(want)
    # the same element inside a batch of ordinary strata
    neighbours = ((2.0, -1.0), (1.0, 0.5), (1.0, 3.0), (1.0, 2.0))
    batch = blended_variance(*([a, s, b] for s, (a, b) in zip(stats, neighbours)))
    assert batch[1] == want and _bits(batch[1]) == _bits(want)


def test_design_effect_against_independent_oracle():
    rng = spawn_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        w = rng.uniform(0.2, 1.0, n)
        w = w / w.sum()
        mp, mc = (rng.uniform(0.1, 5, n) * rng.choice([-1, 1], n) for _ in range(2))
        vp, vc = (rng.uniform(0.01, 10, n) for _ in range(2))
        vsp = math.fsum(w * w * blended_variance(mp, vp, mc, vc))
        # independent oracle for the memoryless variance
        oracle = math.fsum(float(wj) ** 2 * v for wj, v in zip(w, vc))
        assert vsp < oracle
        assert stratified_variance(vc, w) == pytest.approx(oracle, rel=1e-12)


def test_variance_of_blend_matches_prediction_per_stratum():
    rng = spawn_rng(33)
    reps = 10 ** 5
    for _ in range(5):
        mp, mc = rng.uniform(0.5, 3, 2)
        vp, vc = rng.uniform(0.2, 2, 2)
        c = coefficients(mp, vp, mc, vc)
        blend = c.p * rng.normal(mp, math.sqrt(vp), reps) \
            + c.q * rng.normal(mc, math.sqrt(vc), reps)
        predicted = float(blended_variance(mp, vp, mc, vc))
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
    rounds = uniform_rounds([(0, 4)], 40, seed=8)
    means, variances = _stats_of(rounds)
    weights = rounds.weights
    v_st = stratified_variance(variances, weights)
    reps = 20_000
    rng = spawn_rng(93)
    values = rounds.values[0, 0].reshape(4, 10)
    memory = values[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    coeffs = [coefficients(m, v, m, v) for m, v in zip(means, variances)]
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


def test_stationary_chain_matches_gmst_estimate():
    # the vectorized chain above must follow the real estimator exactly
    rounds = uniform_rounds([(0, 4)], 40, seed=8)
    stats = _stats_of(rounds)
    weights = rounds.weights
    rng = spawn_rng(94)
    values = rounds.values[0, 0].reshape(4, 10)
    coeffs = [optimal_coefficients(m, v, m, v) for m, v in zip(*stats)]
    for _ in range(50):
        draws = [values[np.arange(4), rng.integers(0, 10, 4)] for _ in range(6)]
        estimates, _ = gmst_estimate(draws, *stats, weights)
        vec = draws[0]
        for fresh, est in zip(draws[1:], estimates[1:]):
            vec = np.array([coeffs[j].p * vec[j] + coeffs[j].q * fresh[j] for j in range(4)])
            assert est == pytest.approx(float(vec @ weights), abs=1e-12)


# ------------------------------------------------------------ traces

def test_trace_lengths_and_sq_dev_invariant():
    rounds = stack(uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=s) for s in (2, 3))
    race = trace_estimators(rounds, [spawn_rng(5), spawn_rng(6)])
    assert race.estimates.shape == race.sq_dev.shape == (2, len(ESTIMATOR_NAMES), 10)
    assert race.truth.shape == (2, 10)
    for r in range(2):
        assert np.array_equal(race.truth[r], rounds.truth[r])
        for est, dev in zip(race.estimates[r], race.sq_dev[r]):
            for e, d, t in zip(est.tolist(), dev.tolist(), race.truth[r].tolist()):
                assert d == (e - t) * (e - t)


def test_trace_constant_population_all_exact():
    rounds = uniform_rounds([(3, 3)] * 4, 40, seed=2)
    race = trace_estimators(rounds, [spawn_rng(5)])
    assert not race.sq_dev.any()


def test_trace_determinism():
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    a = trace_estimators(rounds, [spawn_rng(5)])
    b = trace_estimators(rounds, [spawn_rng(5)])
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.sq_dev, b.sq_dev)
    assert a.fallbacks == b.fallbacks


def test_trace_rejects_sequences_that_do_not_share_a_layout():
    # replications raced together are one stack, so they share a layout by
    # construction: sequences of other round counts or values cannot stack
    rounds = generate_family(Trend.UNIFORM_DEC, [spawn_rng(1)])
    for other in (generate_family(Trend.UNIFORM_DEC, [spawn_rng(2)], n_rounds=9),
                  generate_family(Trend.UNIFORM_DEC, [spawn_rng(2)], n_per_round=80)):
        with pytest.raises(ValueError):
            PopulationRound([rounds.values[0], other.values[0]], rounds.sizes)
    two = generate_family(Trend.UNIFORM_DEC, [spawn_rng(1), spawn_rng(2)])
    with pytest.raises(ValueError, match="one generator per replication"):
        trace_estimators(two, [spawn_rng(1)])
    with pytest.raises(ValueError, match="one generator per replication"):
        trace_estimators(two, [spawn_rng(1), spawn_rng(2), spawn_rng(3)])
    with pytest.raises(ValueError, match="one generator per replication"):
        trace_estimators(rounds, [])


# Hands seed tuples where generators belong. numpy's unbound drawing methods,
# such as np.random.Generator.uniform(rng, ...), read whatever they are given
# as a generator, so the calls run in a child: a crash there fails this test
# rather than ending the suite.
SEEDS_AS_STREAMS = """
import numpy as np
from stratgrad.estimators import trace_estimators
from stratgrad.population import PopulationRound, Trend, generate_family
seeds = [(5, 0), (5, 1)]
for family in Trend:
    try:
        generate_family(family, seeds)
    except AttributeError:
        print(family.value)
for per_stratum in (1, 2):
    try:
        trace_estimators(PopulationRound(np.ones((1, 2, 8)), [4, 4]), seeds, per_stratum)
    except AttributeError:
        print(per_stratum)
"""


def test_a_seed_handed_in_as_a_generator_raises_and_does_not_crash():
    src = str(Path(stratgrad.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SEEDS_AS_STREAMS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [family.value for family in Trend] + ["1", "2"]


def test_trace_fallback_counter_exposed():
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS, 40, seed=2)
    assert trace_estimators(rounds, [spawn_rng(5)]).fallbacks >= 0
    # stratum 0 jumps from a zero mean to a nonzero one (1 fallback), then
    # stays put; the all-zero stratum 1 has a zero denominator (2 fallbacks)
    values = np.zeros((1, 3, 8))
    values[:, 1:, :4] = [1.0, 2.0, 3.0, 4.0]
    race = trace_estimators(PopulationRound(values, [4, 4]), [spawn_rng(5)])
    assert race.fallbacks == 3
    # the count is summed over replications, shared or not
    assert trace_estimators(PopulationRound(values, [4, 4]),
                            [spawn_rng(5), spawn_rng(6), spawn_rng(7)]).fallbacks == 9
    assert trace_estimators(PopulationRound(np.repeat(values, 2, axis=0), [4, 4]),
                            [spawn_rng(5), spawn_rng(6)]).fallbacks == 6


def test_trace_ordering_over_many_seeds():
    rounds = generate_family(Trend.UNIFORM_DEC, spawn_rngs([(100, s) for s in range(1000)]))
    race = trace_estimators(rounds, spawn_rngs([(101, s) for s in range(1000)]))
    summary = summarize_traces(race.sq_dev)
    means = dict(zip(summary["estimator"], summary["mean_sq_dev"]))
    assert means["gmst"] < means["gst"] < means["batch"]


def test_generating_and_racing_1000_replications_peaks_within_the_stack_and_streams():
    # The stacked values and their stats stay; on top of them, the R
    # generators that both calls read, and the race's at most eight
    # (R, K, C)-sized arrays: picks, gathers, stratum sample means, estimates
    # and squared deviations.
    n_reps, n_rounds, n_per_round = 1000, 10, 40
    tracemalloc.start()
    try:
        streams = spawn_rngs([(5, s) for s in range(n_reps)])
        per_generator = tracemalloc.get_traced_memory()[0] / n_reps
        del streams
        tracemalloc.reset_peak()
        rngs = spawn_rngs([(5, s) for s in range(n_reps)])
        rounds = generate_family(Trend.NORMAL_RANDOM, rngs)
        trace_estimators(rounds, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = n_reps * n_rounds * rounds.n_strata
    stack_bytes = 8 * n_reps * n_rounds * n_per_round + 8 * (2 * cells + n_reps * n_rounds)
    transient = n_reps * per_generator + 8 * 8 * cells
    assert peak < stack_bytes + transient + 2 ** 20  # keys, lists and Python objects


def test_summary_pools_replications_in_order():
    rng = spawn_rng(3)
    sq_dev = rng.uniform(0, 1, (5, len(ESTIMATOR_NAMES), 7))
    summary = summarize_traces(sq_dev)
    assert list(summary) == ["estimator", "mean_sq_dev", "std_sq_dev", "n_rounds", "n_seeds"]
    assert summary["estimator"] == list(ESTIMATOR_NAMES)
    assert summary["n_rounds"] == [7] * 4 and summary["n_seeds"] == [5] * 4
    for e in range(len(ESTIMATOR_NAMES)):
        pooled = np.array([x for rep in sq_dev for x in rep[e].tolist()])
        assert summary["mean_sq_dev"][e] == float(pooled.mean())
        assert summary["std_sq_dev"][e] == float(pooled.std(ddof=1))
    assert summarize_traces(sq_dev[:1])["std_sq_dev"][1] == float(sq_dev[0, 1].std(ddof=1))
    assert summarize_traces(sq_dev[:1, :, :1])["std_sq_dev"].tolist() == [0.0] * 4
    with pytest.raises(ValueError):
        summarize_traces(sq_dev[:, :3])
    with pytest.raises(ValueError):
        summarize_traces(sq_dev[0])


def _ragged_gradient_rounds(variant=0):
    # gradmatrix's layout: a (samples, iterations) matrix, uneven classes of
    # shuffled rows, one round per column
    rng = spawn_rng(8, variant)
    sizes = [12, 10, 140, 11, 37]
    matrix = rng.normal(1e-4, 1e-3, (sum(sizes), 6))
    class_index = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    return _matrix_rounds(matrix, class_index)


def _constant_strata_rounds(variant=0):
    # constant strata, zero means and a zero-to-nonzero jump reach the
    # zero-over-zero and fallback branches; variants scale and shift rounds
    values = np.zeros((5, 30))
    values[0, 10:20] = 2.0
    values[1:3, :10] = 1.5
    values[2:, 20:] = np.tile([-1.0, 1.0], 5)
    values[3:, 10:20] = -2.0
    return PopulationRound(np.roll(values, variant, axis=0)[None] * (1 + variant), [10, 10, 10])


ORACLE_CASES = {
    **{fam.value: (lambda variant, fam=fam: generate_family(fam, [spawn_rng(9, 1 + variant)]))
       for fam in Trend},
    "ragged": _ragged_gradient_rounds,
    "constant": _constant_strata_rounds,
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
@pytest.mark.parametrize("per_stratum", [1, 2, 10])
@pytest.mark.parametrize("first_variant", [1, 4, 40])
def test_trace_equals_per_stratum_loop_reference(case, per_stratum, first_variant):
    # a stack of three different sequences of one layout, raced in one call,
    # and its first sequence raced by all three seeds as a broadcast view;
    # batch pools per_stratum draws per stratum, which the reference is told
    variants = range(first_variant, first_variant + 3)
    rounds = stack(ORACLE_CASES[case](variant) for variant in variants)
    shared = ORACLE_CASES[case](first_variant)
    seeds = [(4, 2), 11, (0, 3, 7000)]
    if per_stratum > rounds.sizes.min():
        with pytest.raises(ValueError):
            trace_estimators(rounds, [spawn_rng(seed) for seed in seeds], per_stratum)
        return
    budget = per_stratum * rounds.n_strata
    for population in (rounds, shared):
        got = trace_estimators(population, [spawn_rng(seed) for seed in seeds], per_stratum)
        want = trace_estimators_reference(population, [numpy_stream(seed) for seed in seeds],
                                          per_stratum, budget)
        assert got.estimates.shape == (3, len(ESTIMATOR_NAMES), rounds.n_rounds)
        for name in ("estimates", "sq_dev", "truth"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.fallbacks == want.fallbacks


def test_reference_cases_reach_the_degenerate_branches():
    rounds = _constant_strata_rounds()
    means, variances = rounds.means[0], rounds.variances[0]
    flags = {optimal_coefficients(mp, vp, mc, vc).degenerate
             for k in range(1, rounds.n_rounds)
             for mp, vp, mc, vc in zip(means[k - 1], variances[k - 1], means[k], variances[k])}
    assert {Degenerate.ZERO_OVER_ZERO, Degenerate.GUARDED_DENOMINATOR} <= flags
    assert trace_estimators_reference(rounds, [numpy_stream(1)]).fallbacks > 0


def test_pooled_draws_follow_choice_and_scalar_integers():
    # the batch and sgd streams: one integers(0, n, (rounds, size)) call, at
    # batch's size and at 1, reads the stream as a choice(pooled, size,
    # replace=True) or integers(n) call per round
    for seed in range(300):
        n, rounds, size = 1 + seed * 7 % 900, 1 + seed % 12, 1 + seed % 41
        ref_rng, rng = spawn_rng(seed), spawn_rng(seed)
        pooled = np.arange(n)
        want = [ref_rng.choice(pooled, size=size, replace=True) for _ in range(rounds)]
        assert np.array_equal(rng.integers(0, n, size=(rounds, size)), np.array(want))
        want = [ref_rng.integers(n) for _ in range(rounds)]
        assert np.array_equal(rng.integers(0, n, size=(rounds, 1))[:, 0], want)
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
