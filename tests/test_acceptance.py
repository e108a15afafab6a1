"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, and after them one ledger line per claim of the abstract. Criteria
needing the real MNIST files are marked slow and skip unless MNIST_DIR
points at them; everything else runs on deterministic synthetic data at the
stated scales and tolerances.
"""

import itertools
import math
import time

import numpy as np
import pytest

from stratgrad import mlp
from stratgrad.cli import main as cli_main
from stratgrad.dataio import read_mnist_split, to_dataset
from stratgrad.estimators import (
    blended_variance,
    gmst_estimate,
    optimal_coefficients_elementwise,
    summarize_traces,
    trace_estimators,
)
from stratgrad.population import (
    DECREASING_MEAN_INTERVALS,
    Trend,
    generate_family,
)
from stratgrad.rng import spawn_rng, spawn_rngs
from stratgrad.trainer import TrainConfig, accuracy, train

from oracles import (Coefficients, max_relative_error, numeric_gradient, read_csv_columns,
                     stratified_variance, unbiased_condition_holds, uniform_rounds,
                     variance_bound, variance_zscore)


# each criterion's outcome in this session, for the ledger that ends the module
VERDICTS: dict[str, bool] = {}


def verdict(criterion: int | str, ok: bool, detail: str) -> None:
    VERDICTS[str(criterion)] = VERDICTS.get(str(criterion), True) and ok
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def safe_region_tuple(rng):
    """Stats where the minimum-variance pair is in force (no fallback)."""
    var_prev = rng.uniform(0.3, 3.0)
    var_curr = var_prev * rng.uniform(0.3, 3.5)
    mean_prev = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
    mean_curr = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
    return mean_prev, var_prev, mean_curr, var_curr


def test_criterion_1_coefficient_identity():
    rng = spawn_rng(1001)
    start = time.perf_counter()
    n = 10_000
    mp, vp, mc, vc = np.array([safe_region_tuple(rng) for _ in range(n)]).T
    p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
    assert n_fallback == 0
    holds = sum(unbiased_condition_holds(Coefficients(pj, qj), m_prev, m_curr, tol=1e-9)
                for pj, qj, m_prev, m_curr in zip(p.tolist(), q.tolist(), mp.tolist(),
                                                  mc.tolist()))
    elapsed = time.perf_counter() - start
    verdict(1, holds == n and elapsed < 1.0,
            f"unbiasedness ratio identity held for {holds}/{n} tuples in {elapsed:.2f}s")


def test_criterion_2_equal_statistics_symmetry():
    rng = spawn_rng(1002)
    draws = np.array([(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 50.0),
                       rng.uniform(0.001, 50.0)) for _ in range(1000)])
    mean, var = draws.T
    p, q, _ = optimal_coefficients_elementwise(mean, var, mean, var)
    worst = float(max(np.abs(p - 0.5).max(), np.abs(q - 0.5).max()))
    verdict(2, worst <= 1e-12,
            f"equal statistics give p = q = 1/2, worst deviation {worst:.2e}")


def test_criterion_3_variance_formula_monte_carlo():
    rng = spawn_rng(1003)
    start = time.perf_counter()
    reps = 100_000
    worst = 0.0
    for _ in range(10):
        mp, vp, mc, vc = safe_region_tuple(rng)
        p, q, n_fallback = optimal_coefficients_elementwise(mp, vp, mc, vc)
        assert n_fallback == 0
        blend = p * rng.normal(mp, math.sqrt(vp), reps) \
            + q * rng.normal(mc, math.sqrt(vc), reps)
        predicted = float(blended_variance(mp, vp, mc, vc))
        worst = max(worst, abs(variance_zscore(blend, predicted)))
    elapsed = time.perf_counter() - start
    verdict(3, worst < 4.0 and elapsed < 30.0,
            f"variance prediction worst |z| = {worst:.2f} over 10 tuples x {reps} "
            f"replications in {elapsed:.1f}s")


def test_criterion_4_design_effect():
    rng = spawn_rng(1004)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        weights = rng.uniform(0.2, 1.0, n)
        weights /= weights.sum()
        # (means, variances) of the previous and the current strata
        prev, curr = (np.array([(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0),
                                 rng.uniform(0.01, 10.0)) for _ in range(n)]).T
                      for _ in range(2))
        predicted = float(np.dot(weights * weights, blended_variance(*prev, *curr)))
        if not predicted < stratified_variance(curr[1], weights):
            violations += 1
    verdict(4, violations == 0,
            f"memory variance below memoryless variance with {violations} violations "
            f"in 10000 tuples")


def test_criterion_5_decay_bound():
    rounds = uniform_rounds([(0, 4)], 40, seed=1005)
    stats = rounds.means[0, 0], rounds.variances[0, 0]
    weights = rounds.weights
    p, q, _ = optimal_coefficients_elementwise(*stats, *stats)
    assert ((0.0 < p) & (p < 1.0)).all()
    p_max, q_max = float(p.max()), float(q.max())
    v_st = stratified_variance(stats[1], weights)

    reps = 40_000
    rng = spawn_rng(1055)
    values = rounds.values[0, 0].reshape(4, 10)
    memory = values[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    worst_excess = -math.inf
    ok = True
    for t in range(1, 11):
        fresh = values[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
        memory = p * memory + q * fresh
        estimates = memory @ weights
        emp = float(estimates.var(ddof=1))
        centered = estimates - estimates.mean()
        se = math.sqrt(max(float(np.mean(centered ** 4)) - emp * emp, 0.0) / reps)
        bound = variance_bound(v_st, [v_st] * t, p_max, q_max, t)
        worst_excess = max(worst_excess, (emp - bound) / se)
        ok = ok and emp <= bound + 3 * se
    verdict(5, ok, f"memory variance within decay bound for t = 1..10, worst "
                   f"(emp - bound)/se = {worst_excess:.2f}")


def test_criterion_6_memory_estimator_unbiased():
    rounds = uniform_rounds(DECREASING_MEAN_INTERVALS[:2], 40, seed=1006)
    truth = rounds.truth[0, 1]
    rng = spawn_rng(1066)
    reps = 100_000
    v1, v2 = rounds.values.reshape(2, 4, 10)
    first = v1[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    fresh = v2[np.arange(4)[None, :], rng.integers(0, 10, (reps, 4))]
    estimates, _ = gmst_estimate(np.stack([first, fresh], axis=1), rounds.means[0],
                                 rounds.variances[0], rounds.weights)
    estimates = estimates[:, 1]
    se = estimates.std(ddof=1) / math.sqrt(reps)
    gap = abs(float(estimates.mean()) - truth)
    verdict(6, gap <= 3 * se,
            f"round-2 estimate mean within {gap / se:.2f} standard errors of the "
            f"population mean over {reps} replications")


def test_criterion_7_synthetic_ordering():
    start = time.perf_counter()
    n_seeds = 1000
    lowest_mean = []
    lowest_std = []
    for family in Trend:
        rounds = generate_family(family, spawn_rngs([(1007, s) for s in range(n_seeds)]))
        race = trace_estimators(rounds, spawn_rngs([(1077, s) for s in range(n_seeds)]))
        summary = summarize_traces(race.sq_dev)
        means = dict(zip(summary["estimator"], summary["mean_sq_dev"]))
        stds = dict(zip(summary["estimator"], summary["std_sq_dev"]))
        lowest_mean.append(min(means, key=means.get) == "gmst"
                           and all(means["gmst"] < v for k, v in means.items()
                                   if k != "gmst"))
        lowest_std.append(all(stds["gmst"] < v for k, v in stds.items() if k != "gmst"))
    elapsed = time.perf_counter() - start
    n_fam = len(list(Trend))
    ok = all(lowest_mean) and sum(lowest_std) >= n_fam - 1 and elapsed < 120.0
    verdict(7, ok, f"memory estimator ranked lowest mean sq-dev in "
                   f"{sum(lowest_mean)}/{n_fam} families and lowest std in "
                   f"{sum(lowest_std)}/{n_fam} over {n_seeds} seeds in {elapsed:.0f}s")


@pytest.mark.parametrize("shape", [(4, 3, 2), (6, 5, 4, 3)])
def test_criterion_8_gradient_check(shape):
    params = mlp.init_params(shape, seed=1008)
    rng = spawn_rng(1088)
    features = rng.uniform(0, 1, (5, shape[0]))
    labels = rng.integers(0, shape[-1], 5)
    analytic = mlp.gradient(params, features, labels, 0.05)
    numeric = numeric_gradient(params, features, labels, 0.05)
    err = max_relative_error(analytic, numeric)
    verdict(8, err < 1e-5,
            f"analytic gradient vs central differences on {shape}: max rel err {err:.2e}")


def test_criterion_9_desk_scale_gradient_matrix(tmp_path, data_dir):
    start = time.perf_counter()
    wins = 0
    reruns = 10
    for r in range(reruns):
        out = tmp_path / f"rerun{r}"
        rc = cli_main(["gradmatrix", "--data-dir", str(data_dir), "--desk",
                       "--per-class", "200", "--test-per-class", "50",
                       "--iterations", "10", "--reps", "10",
                       "--seed", str(2000 + r), "--out-dir", str(out)])
        assert rc == 0
        cols = read_csv_columns(out / "deviation_summary.csv")
        means = dict(zip(cols["estimator"],
                         (float(v) for v in cols["mean_sq_dev"])))
        wins += all(means["gmst"] < v for k, v in means.items() if k != "gmst")
    elapsed = time.perf_counter() - start
    verdict(9, wins >= 8 and elapsed < 300.0,
            f"memory estimator won the gradient-matrix replay in {wins}/{reruns} "
            f"seeded reruns in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_full_mnist_headline(real_mnist_dir):
    train = to_dataset(*read_mnist_split(real_mnist_dir, "train"))
    test = to_dataset(*read_mnist_split(real_mnist_dir, "test"))
    params = mlp.init_params((784, 500, 500, 200, 10), seed=1010)
    params, _, _ = mlp.full_gradient_train(params, train.features(), train.labels,
                                           60, 0.2, 0.001)
    acc = accuracy(params, test) * 100.0
    verdict(10, abs(acc - 87.73) <= 2.0,
            f"full-gradient 60-iteration test accuracy {acc:.2f}% vs 87.73 +/- 2.0")


@pytest.mark.slow
def test_criterion_10b_memory_trainer_accuracy_grid(real_mnist_dir):
    # long-run reproduction of the 1k-iteration accuracy row: 6 grid cells x
    # 1,000 full-shape mssg iterations at about 0.25 s each (in-process, one
    # BLAS thread, 2-core x86_64), so about 25 minutes
    train_split = to_dataset(*read_mnist_split(real_mnist_dir, "train"))
    test = to_dataset(*read_mnist_split(real_mnist_dir, "test"))

    # each cell scores its final checkpoint; ties go to the smaller step, then decay
    cells = []
    for h, lam in itertools.product([0.01, 1, 0.001], [0.001, 0.0001]):
        params = mlp.init_params((784, 500, 500, 200, 10), seed=1010)
        config = TrainConfig(step_size=h, batch_size=10, iterations=1000,
                             weight_decay=lam, seed=1010, pilot_size=8,
                             checkpoint_every=1000)
        _, reports, _ = train(params, train_split, config, "mssg", test)
        cells.append((-reports[-1].test_accuracy, h, lam))
    acc = -min(cells)[0] * 100.0
    verdict("10b", abs(acc - 94.46) <= 1.5,
            f"memory trainer 1k-iteration best-grid test accuracy {acc:.2f}% "
            f"vs 94.46 +/- 1.5")


def _compare_runs(tmp_path, data_dir, name, argv):
    out_a = tmp_path / f"{name}_a"
    out_b = tmp_path / f"{name}_b"
    for out in (out_a, out_b):
        rc = cli_main(argv + ["--out-dir", str(out)])
        assert rc == 0, name
    files_a = sorted(p.name for p in out_a.iterdir() if p.suffix in (".csv", ".svg"))
    files_b = sorted(p.name for p in out_b.iterdir() if p.suffix in (".csv", ".svg"))
    assert files_a == files_b and files_a, name
    return all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a)


def test_criterion_11_cli_determinism(tmp_path, data_dir):
    data = str(data_dir)
    cases = {
        "synthetic": ["synthetic", "--family", "normal-var-inc", "--seeds", "3",
                      "--seed", "11"],
        "variance-oracle": ["variance-oracle", "--random-tuples", "3", "--strata", "2",
                            "--replications", "10000", "--seed", "11"],
        "gradmatrix": ["gradmatrix", "--data-dir", data, "--desk", "--per-class", "30",
                       "--test-per-class", "10", "--iterations", "3", "--reps", "2",
                       "--seed", "11"],
        "train": ["train", "--algorithm", "mssg", "--data-dir", data, "--desk",
                  "--per-class", "20", "--test-per-class", "5", "--iterations", "3",
                  "--checkpoint-every", "2", "--pilot-size", "4", "--seed", "11"],
        "gridsearch": ["gridsearch", "--algorithm", "batch", "--data-dir", data,
                       "--desk", "--per-class", "20", "--test-per-class", "5",
                       "--alphas", "0.5,0.1", "--lambdas", "0.001",
                       "--budget-iterations", "2", "--seed", "11"],
    }
    identical = {name: _compare_runs(tmp_path, data_dir, name, argv)
                 for name, argv in cases.items()}
    bad = [name for name, ok in identical.items() if not ok]
    verdict(11, not bad,
            f"byte-identical outputs for subcommands: "
            f"{', '.join(cases)}" + (f"; mismatches: {bad}" if bad else ""))


# the claims of the abstract, and the criteria that bear on each
CLAIMS = [("(i)", "G_mst is an unbiased stratified statistic", ("1", "2", "6")),
          ("(ii)", "a sufficient condition of fast convergence", ("5",)),
          ("(iii)", "MSSG outperforms SGD-like algorithms", ("10", "10b"))]


def test_ledger_of_the_abstracts_claims():
    """One LEDGER line per claim; a criterion that skipped or did not run reads
    'not run'. The ledger reports and gates nothing."""
    for claim, text, criteria in CLAIMS:
        outcomes = [{True: "PASS", False: "FAIL"}.get(VERDICTS.get(c), "not run")
                    for c in criteria]
        print(f"LEDGER {claim} {text}: "
              + ", ".join(f"criterion {c} {o}" for c, o in zip(criteria, outcomes)))
