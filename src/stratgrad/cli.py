"""Command-line experiment harness.

One subcommand per experiment: synthetic estimator races, Monte-Carlo
verification of the variance prediction, the tracked-weight gradient-matrix
replay, single training runs, and the hyperparameter grid search. Every
run is byte-deterministic given (seed, config, dataset) and a fixed BLAS
thread count, emits CSV/SVG files into --out-dir, and finishes by writing
a run manifest listing them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, mlp, trainer
from .dataio import (LabeledDataset, default_data_dir, load_mnist_split, subsample,
                     write_csv, write_manifest, write_svg_lineplot)
from .estimators import (ESTIMATOR_NAMES, optimal_coefficients, predicted_variance_vsp,
                         summarize_traces, trace_estimators)
from .population import (DECREASING_MEAN_INTERVALS, INCREASING_MEAN_INTERVALS,
                         NORMAL_TRENDS, RANDOM_PARAM_RANGE, PopulationRound,
                         StratifiedPopulation, Stratum, StratumStats, Trend,
                         generate_family, trend_schedules)
from .rng import spawn_rng

DESK_SHAPE = (784, 50, 50, 20, 10)
FULL_SHAPE = (784, 500, 500, 200, 10)

_FAMILY_CHOICES = tuple(t.value for t in Trend)
_POP_STREAM, _INIT_STREAM, _REP_STREAM, _TEST_STREAM = 1, 2, 3, 4
_TRACE_STREAM = 7000
_TUPLE_STREAM, _MC_STREAM = 31, 37
_ALGORITHMS = ("mssg", *(k.value for k in trainer.BaselineKind))


class _Run:
    """Tracks output files so failures can mark them as partial."""

    def __init__(self, args):
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = getattr(args, "manifest_out", None)
        self.manifest_path = Path(manifest) if manifest else self.out_dir / "manifest.txt"
        self.outputs: list[Path] = []
        self.started = time.perf_counter()

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.outputs.append(p)
        return p

    def finish(self, args, extra: dict | None = None) -> None:
        missing = [str(p) for p in self.outputs if not p.exists()]
        if missing:
            raise RuntimeError(f"declared outputs were never written: {missing}")
        entries: dict = {"subcommand": args.subcommand, "code_version": __version__}
        for key in sorted(vars(args)):
            if key in ("func", "subcommand"):
                continue
            entries[f"config.{key}"] = getattr(args, key)
        if extra:
            entries.update(extra)
        entries["wall_time_s"] = f"{time.perf_counter() - self.started:.3f}"
        entries["output"] = [str(p) for p in self.outputs]
        write_manifest(self.manifest_path, entries)

    def mark_partial(self) -> None:
        for p in self.outputs:
            if p.exists():
                p.rename(p.with_name(p.name + ".partial"))


def _load_split_pair(args) -> tuple[LabeledDataset, LabeledDataset]:
    data_dir = args.data_dir or default_data_dir()
    if not data_dir:
        raise FileNotFoundError(
            "no dataset directory: pass --data-dir or set MNIST_DIR")
    train = load_mnist_split(data_dir, "train")
    test = load_mnist_split(data_dir, "test")
    if args.desk:
        train = subsample(train, args.per_class, (args.seed, _POP_STREAM))
        test = subsample(test, args.test_per_class, (args.seed, _TEST_STREAM))
    return train, test


def cmd_synthetic(args, run: _Run) -> None:
    family = Trend(args.family)
    counters: dict = {}
    per_seed = []
    rows = {"estimator": [], "seed": [], "round": [], "estimate": [], "truth": [],
            "sq_dev": []}
    for s in range(args.seeds):
        rounds = generate_family(family, (args.seed, s), n_per_round=args.n_per_round,
                                 n_rounds=args.rounds)
        traces = trace_estimators(rounds, per_stratum=args.per_stratum,
                                  batch_size=args.batch_size,
                                  seed=(args.seed, s, _TRACE_STREAM), counters=counters)
        per_seed.append(traces)
        for name in ESTIMATOR_NAMES:
            for t in traces[name]:
                rows["estimator"].append(name)
                rows["seed"].append(s)
                rows["round"].append(t.iteration)
                rows["estimate"].append(t.estimate)
                rows["truth"].append(t.truth)
                rows["sq_dev"].append(t.sq_dev)
    write_csv(run.path(f"{family.value}_traces.csv"), rows)

    summary = summarize_traces(per_seed)
    write_csv(run.path(f"{family.value}_summary.csv"), {
        "estimator": list(ESTIMATOR_NAMES),
        "mean_sq_dev": [summary[n]["mean_sq_dev"] for n in ESTIMATOR_NAMES],
        "std_sq_dev": [summary[n]["std_sq_dev"] for n in ESTIMATOR_NAMES],
        "n_rounds": [args.rounds] * len(ESTIMATOR_NAMES),
        "n_seeds": [args.seeds] * len(ESTIMATOR_NAMES),
    })

    n_rounds = len(per_seed[0][ESTIMATOR_NAMES[0]])
    curves = {}
    for name in ESTIMATOR_NAMES:
        devs = np.array([[t.sq_dev for t in traces[name]] for traces in per_seed])
        curves[name] = devs.mean(axis=0).tolist()
    write_svg_lineplot(run.path(f"{family.value}_curves.svg"), curves,
                       x=range(1, n_rounds + 1), title=f"squared deviation ({family.value})",
                       x_label="round", y_label="mean squared deviation")
    run.finish(args, {"gmst_fallbacks": counters.get("gmst_fallbacks", 0),
                      "schedule": _family_schedule_note(family, args.rounds)})


def _family_schedule_note(family: Trend, n_rounds: int) -> str:
    """The drift schedule behind a family, recorded in the run manifest."""
    if family is Trend.UNIFORM_DEC:
        return f"intervals={list(DECREASING_MEAN_INTERVALS[:n_rounds])}"
    if family is Trend.UNIFORM_INC:
        return f"intervals={list(INCREASING_MEAN_INTERVALS[:n_rounds])}"
    if family in NORMAL_TRENDS:
        pairs = [(round(mu, 6), round(sg, 6)) for mu, sg in trend_schedules(family, n_rounds)]
        return f"normal(mu,sigma)={pairs}"
    lo, hi = RANDOM_PARAM_RANGE
    return f"normal(mu,sigma) drawn uniformly per round from [{lo},{hi}]"


def _parse_stats_spec(spec: str):
    strata = []
    for part in spec.split(";"):
        fields = [float(x) for x in part.split(",")]
        if len(fields) == 4:
            fields.append(-1.0)  # placeholder: equal weights
        if len(fields) != 5:
            raise ValueError(
                f"stats spec needs 'mean_prev,var_prev,mean_curr,var_curr[,weight]', got {part!r}")
        strata.append(tuple(fields))
    raw_w = np.array([s[4] for s in strata])
    if np.all(raw_w < 0):
        raw_w = np.ones(len(strata))
    elif np.any(raw_w <= 0):
        raise ValueError("stratum weights must all be given (positive) or all omitted")
    weights = raw_w / raw_w.sum()
    return [(s[0], s[1], s[2], s[3], float(w)) for s, w in zip(strata, weights)]


def _variance_zscore(samples: np.ndarray, predicted: float) -> float:
    emp = float(samples.var(ddof=1))
    centered = samples - samples.mean()
    m4 = float(np.mean(centered ** 4))
    se = float(np.sqrt(max(m4 - emp * emp, 0.0) / samples.size))
    if se == 0.0:
        return 0.0 if emp == predicted else float("inf")
    return (emp - predicted) / se


def _random_stat_tuples(rng, n_strata: int):
    """Stat tuples inside the region where the minimum-variance pair applies.

    The blend coefficient obeys |p| <= sqrt(var_curr / var_prev) / 2, so a
    variance ratio below 4 keeps the formula pair in force (no fallback)
    and the variance prediction is exactly the simulated blend's variance.
    """
    strata = []
    for _ in range(n_strata):
        var_prev = rng.uniform(0.3, 3.0)
        var_curr = var_prev * rng.uniform(0.3, 3.5)
        strata.append((rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0), var_prev,
                       rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0), var_curr,
                       1.0 / n_strata))
    return strata


def cmd_variance_oracle(args, run: _Run) -> None:
    if args.replications < 10_000:
        raise ValueError("need at least 10000 replications for a meaningful z-score")
    if args.stats:
        experiments = [_parse_stats_spec(args.stats)]
    else:
        rng = spawn_rng(args.seed, _TUPLE_STREAM)
        experiments = [_random_stat_tuples(rng, args.strata)
                       for _ in range(args.random_tuples)]

    rows = {"experiment": [], "stratum": [], "weight": [], "predicted": [],
            "empirical": [], "z": [], "fallback": []}
    for e, strata in enumerate(experiments):
        rng = spawn_rng(args.seed, _MC_STREAM, e)
        total = np.zeros(args.replications)
        prev_stats, curr_stats, weights = [], [], []
        n_fallback = 0
        for j, (mp, vp, mc, vc, w) in enumerate(strata):
            prev_stats.append(StratumStats(mp, vp))
            curr_stats.append(StratumStats(mc, vc))
            weights.append(w)
            coeffs = optimal_coefficients(mp, vp, mc, vc)
            n_fallback += coeffs.is_fallback
            memory = rng.normal(mp, np.sqrt(vp), args.replications)
            fresh = rng.normal(mc, np.sqrt(vc), args.replications)
            combined = coeffs.p * memory + coeffs.q * fresh
            total += w * combined
            predicted = predicted_variance_vsp([prev_stats[-1]], [curr_stats[-1]], [1.0])
            rows["experiment"].append(e)
            rows["stratum"].append(str(j))
            rows["weight"].append(w)
            rows["predicted"].append(predicted)
            rows["empirical"].append(float(combined.var(ddof=1)))
            rows["z"].append(_variance_zscore(combined, predicted))
            rows["fallback"].append(int(coeffs.is_fallback))
        # strata that fell back to the pure fresh draw blend away from the
        # predicted optimum, so their z scores flag a real gap
        predicted_total = predicted_variance_vsp(prev_stats, curr_stats, weights)
        rows["experiment"].append(e)
        rows["stratum"].append("total")
        rows["weight"].append(1.0)
        rows["predicted"].append(predicted_total)
        rows["empirical"].append(float(total.var(ddof=1)))
        rows["z"].append(_variance_zscore(total, predicted_total))
        rows["fallback"].append(n_fallback)
    write_csv(run.path("variance_oracle.csv"), rows)
    run.finish(args)


def _matrix_rounds(matrix: np.ndarray, class_index) -> PopulationRound:
    """Each matrix column becomes one stratified population, one stratum per class."""
    pops = []
    for t in range(matrix.shape[1]):
        strata = [Stratum(matrix[idx, t], c) for c, idx in enumerate(class_index)]
        pops.append(StratifiedPopulation.from_strata(strata))
    return PopulationRound(pops, trend=None)


def cmd_gradmatrix(args, run: _Run) -> None:
    train, test = _load_split_pair(args)
    shape = DESK_SHAPE if args.desk else FULL_SHAPE
    iterations = args.iterations if args.iterations else (10 if args.desk else 60)
    params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
    snapshots: list = []
    params, losses = mlp.full_gradient_train(
        params, train.features, train.labels, iterations, args.alpha,
        args.weight_decay, snapshots=snapshots)
    tracked = (params.n_layers - 1, 0, 0)
    matrix = mlp.record_weight_gradient(snapshots, train.features, train.labels,
                                        tracked, args.weight_decay)

    n, t = matrix.shape
    write_csv(run.path("grad_matrix.csv"), {
        "sample": np.repeat(np.arange(n), t),
        "iteration": np.tile(np.arange(t), n),
        "grad": matrix.reshape(-1),
    })

    rounds = _matrix_rounds(matrix, train.class_index)
    counters: dict = {}
    reps = []
    for r in range(args.reps):
        reps.append(trace_estimators(rounds, per_stratum=1, batch_size=args.batch_size,
                                     seed=(args.seed, _REP_STREAM, r), counters=counters))
    summary = summarize_traces(reps)
    write_csv(run.path("deviation_summary.csv"), {
        "estimator": list(ESTIMATOR_NAMES),
        "mean_sq_dev": [summary[name]["mean_sq_dev"] for name in ESTIMATOR_NAMES],
        "std_sq_dev": [summary[name]["std_sq_dev"] for name in ESTIMATOR_NAMES],
        "n_rounds": [t] * len(ESTIMATOR_NAMES),
        "n_seeds": [args.reps] * len(ESTIMATOR_NAMES),
    })
    truth = [tr.truth for tr in reps[0]["gmst"]]
    for name in ESTIMATOR_NAMES:
        write_svg_lineplot(
            run.path(f"tracking_{name}.svg"),
            {"population": truth, name: [tr.estimate for tr in reps[0][name]]},
            x=range(1, t + 1), title=f"{name} vs population gradient",
            x_label="iteration", y_label="tracked-weight gradient")
    run.finish(args, {
        "final_loss": losses[-1],
        "train_accuracy": trainer.accuracy(params, train),
        "test_accuracy": trainer.accuracy(params, test),
        "gmst_fallbacks": counters.get("gmst_fallbacks", 0),
    })


def _report_rows(reports, seed: int) -> dict:
    return {
        "iterations_k": [r.iterations / 1000.0 for r in reports],
        "algorithm": [r.algorithm for r in reports],
        "test_accu": [r.test_accuracy for r in reports],
        "train_accu": [r.train_accuracy for r in reports],
        "h": [r.step_size for r in reports],
        "lambda": [r.weight_decay for r in reports],
        "seed": [seed] * len(reports),
    }


def _make_config(args, step_size=None, weight_decay=None, iterations=None,
                 checkpoint_every=None) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        step_size=step_size if step_size is not None else args.alpha,
        batch_size=args.batch_size,
        iterations=iterations if iterations is not None else args.iterations,
        weight_decay=weight_decay if weight_decay is not None else args.weight_decay,
        seed=args.seed,
        pilot_size=args.pilot_size,
        checkpoint_every=checkpoint_every if checkpoint_every is not None
        else args.checkpoint_every,
    )


def _run_algorithm(algorithm: str, params, train, test, config, sgd_multiplier: int):
    """Returns (trained params, reports, coefficient-fallback count)."""
    if algorithm == "mssg":
        memory = trainer.ClassMemory([])
        params, reports = trainer.mssg_train(params, train, config, test,
                                             memory_out=memory)
        return params, reports, memory.fallbacks
    kind = trainer.BaselineKind(algorithm)
    params, reports = trainer.baseline_train(params, train, config, kind, test,
                                             sgd_multiplier=sgd_multiplier)
    return params, reports, 0


def cmd_train(args, run: _Run) -> None:
    train, test = _load_split_pair(args)
    shape = DESK_SHAPE if args.desk else FULL_SHAPE
    params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
    config = _make_config(args)
    params, reports, fallbacks = _run_algorithm(args.algorithm, params, train, test,
                                                config, args.sgd_multiplier)
    write_csv(run.path(f"accuracy_{args.algorithm}.csv"), _report_rows(reports, args.seed))
    run.finish(args, {"final_test_accuracy": reports[-1].test_accuracy,
                      "coefficient_fallbacks": fallbacks})


def cmd_gridsearch(args, run: _Run) -> None:
    train, test = _load_split_pair(args)
    shape = DESK_SHAPE if args.desk else FULL_SHAPE
    step_sizes = [float(x) for x in args.alphas.split(",")]
    decays = [float(x) for x in args.lambdas.split(",")]

    def train_fn(h: float, lam: float, iterations: int):
        params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
        config = _make_config(args, step_size=h, weight_decay=lam,
                              iterations=iterations, checkpoint_every=iterations)
        trained, _, _ = _run_algorithm(args.algorithm, params, train, test, config,
                                       args.sgd_multiplier)
        return trained

    best, cells = trainer.grid_search(train_fn, step_sizes, decays,
                                      args.budget_iterations, test)
    write_csv(run.path("grid_results.csv"), {
        "h": [c.step_size for c in cells],
        "lambda": [c.weight_decay for c in cells],
        "test_accuracy": [c.test_accuracy for c in cells],
        "algorithm": [args.algorithm] * len(cells),
    })
    write_csv(run.path("grid_best.csv"), {
        "h": [best.step_size], "lambda": [best.weight_decay],
        "test_accuracy": [best.test_accuracy], "algorithm": [args.algorithm],
    })
    run.finish(args, {"best_h": best.step_size, "best_lambda": best.weight_decay})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for every stream")
    p.add_argument("--out-dir", required=True, help="directory for result files")
    p.add_argument("--manifest-out", default=None,
                   help="manifest path (default: <out-dir>/manifest.txt)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=None,
                   help="IDX dataset directory (default: $MNIST_DIR)")
    p.add_argument("--desk", action="store_true",
                   help="desk-scale preset: stratified subsample and a small network")
    p.add_argument("--per-class", type=int, default=200,
                   help="training rows per class under --desk")
    p.add_argument("--test-per-class", type=int, default=50,
                   help="test rows per class under --desk")


def _add_train_flags(p: argparse.ArgumentParser, alpha: float, iterations: int) -> None:
    p.add_argument("--alpha", type=float, default=alpha, help="step size")
    p.add_argument("--weight-decay", type=float, default=0.001,
                   help="L2 penalty coefficient on weights")
    p.add_argument("--iterations", type=int, default=iterations, help="training iterations")
    p.add_argument("--batch-size", type=int, default=10, help="pooled mini-batch size")
    p.add_argument("--pilot-size", type=int, default=8,
                   help="per-class pilot batch for gradient statistics")
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   help="iterations between accuracy checkpoints")
    p.add_argument("--sgd-multiplier", type=int, default=1,
                   help="extra iteration multiplier applied to the sgd baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratgrad",
        description="Stratified gradient estimator experiments",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synthetic", help="race the four estimators on a drift family",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--family", required=True, choices=_FAMILY_CHOICES,
                   help="synthetic drift family")
    p.add_argument("--seeds", type=int, default=1000, help="independent replications")
    p.add_argument("--rounds", type=int, default=10, help="rounds per replication")
    p.add_argument("--n-per-round", type=int, default=40, help="values per round")
    p.add_argument("--per-stratum", type=int, default=1,
                   help="draws per stratum for the stratified estimators")
    p.add_argument("--batch-size", type=int, default=4, help="pooled draws for batch")
    _add_common(p)
    p.set_defaults(func=cmd_synthetic)

    p = sub.add_parser("variance-oracle",
                       help="compare predicted blend variance against Monte Carlo",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--stats", default=None,
                   help="semicolon-separated 'mean_prev,var_prev,mean_curr,var_curr[,weight]' "
                        "strata (default: random tuples)")
    p.add_argument("--random-tuples", type=int, default=10,
                   help="number of random experiments when --stats is omitted")
    p.add_argument("--strata", type=int, default=1, help="strata per random experiment")
    p.add_argument("--replications", type=int, default=100_000,
                   help="Monte-Carlo replications (>= 10000)")
    _add_common(p)
    p.set_defaults(func=cmd_variance_oracle)

    p = sub.add_parser("gradmatrix",
                       help="record a tracked-weight gradient matrix and replay the estimators",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_data_flags(p)
    p.add_argument("--iterations", type=int, default=None,
                   help="full-gradient iterations (default: 10 desk / 60 full)")
    p.add_argument("--alpha", type=float, default=0.2, help="full-gradient step size")
    p.add_argument("--weight-decay", type=float, default=0.001, help="L2 penalty")
    p.add_argument("--batch-size", type=int, default=10, help="pooled draws for batch")
    p.add_argument("--reps", type=int, default=10, help="estimator replications")
    _add_common(p)
    p.set_defaults(func=cmd_gradmatrix)

    p = sub.add_parser("train", help="train one algorithm and checkpoint accuracy",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    _add_data_flags(p)
    _add_train_flags(p, alpha=0.2, iterations=1000)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="grid-search step size and weight decay",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--algorithm", default="mssg", choices=_ALGORITHMS)
    _add_data_flags(p)
    _add_train_flags(p, alpha=0.2, iterations=1000)
    p.add_argument("--alphas", default="0.01,1,0.001", help="comma-separated step sizes")
    p.add_argument("--lambdas", default="0.001,0.0001", help="comma-separated decays")
    p.add_argument("--budget-iterations", type=int, default=1000,
                   help="iterations per grid cell")
    _add_common(p)
    p.set_defaults(func=cmd_gridsearch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        args.func(args, run)
    except Exception as exc:
        run.mark_partial()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
