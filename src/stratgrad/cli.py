"""Command-line experiment harness: one subcommand per experiment.

Every run is byte-deterministic given (seed, config, dataset) on one
machine, BLAS build and BLAS thread count. It writes its CSV and SVG files
into --out-dir, then a run manifest that lists them and records those
conditions.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, mlp, trainer
from .dataio import (LabeledDataset, check_class_sizes, read_mnist_split, to_dataset,
                     write_csv, write_manifest, write_svg_lineplot)
from .estimators import (ESTIMATOR_NAMES, blended_variance, optimal_coefficients_elementwise,
                         summarize_traces, trace_estimators)
from .population import (N_STRATA, RANDOM_PARAM_RANGE, UNIFORM_TRENDS, PopulationRound, Trend,
                         generate_family, trend_schedules)
from .rng import spawn_rng, spawn_rngs

DESK_SHAPE = (784, 50, 50, 20, 10)
FULL_SHAPE = (784, 500, 500, 200, 10)

_POP_STREAM, _INIT_STREAM, _REP_STREAM, _TEST_STREAM, _TRAIN_STREAM = 1, 2, 3, 4, 5
_TUPLE_STREAM, _MC_STREAM = 31, 37

# The least value of every integer flag that a parser declares, by
# destination; `main` refuses a smaller one by name before any handler runs
_LEAST = {"seed": 0, "seeds": 1, "rounds": 1, "n_per_round": N_STRATA, "per_stratum": 1,
          "random_tuples": 1, "strata": 1, "replications": 10_000, "per_class": 1,
          "test_per_class": 1, "iterations": 1, "reps": 1, "batch_size": 1, "pilot_size": 2,
          "checkpoint_every": 1, "budget_iterations": 1}


class _Run:
    """Tracks output files so failures can mark them as partial.

    Starting a run deletes an earlier run's manifest, so a failed rerun does
    not read as finished.
    """

    def __init__(self, args):
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = self.out_dir / "manifest.txt"
        self.manifest.unlink(missing_ok=True)
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
        # vars() reads no attribute, so the manifest does not count as reading a flag
        entries.update((f"config.{key}", value) for key, value in sorted(vars(args).items())
                       if key not in ("func", "subcommand"))
        if extra:
            entries.update(extra)
        # BLAS splits its sums by thread count and picks its kernels by CPU, so
        # the thread count, the BLAS build and the machine decide the output bits
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            entries[f"env.{var}"] = os.environ.get(var, "unset")
        entries["env.numpy"] = np.__version__
        entries["env.blas"] = entries["env.simd"] = "unknown"
        try:
            config = np.show_config(mode="dicts")
            blas = config["Build Dependencies"]["blas"]
            entries["env.blas"] = f"{blas['name']} {blas['version']}"
            entries["env.simd"] = " ".join(config["SIMD Extensions"]["found"])
        except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
            pass
        entries["env.blas_core"] = _blas_core()
        entries["env.machine"] = platform.machine()
        entries["wall_time_s"] = f"{time.perf_counter() - self.started:.3f}"
        entries["output"] = [str(p) for p in self.outputs]
        write_manifest(self.manifest, entries)

    def mark_partial(self) -> None:
        for p in self.outputs:
            if p.exists():
                p.rename(p.with_name(p.name + ".partial"))


def _blas_core() -> str:
    """The kernel set that the loaded OpenBLAS picked for this CPU, or 'unknown'.

    A DYNAMIC_ARCH build names one CPU in its build string but chooses its
    kernels when it loads, so only the library itself can say which ran.
    It is found among this process's mappings, which only Linux lists.
    """
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split(None, 5)[5].strip() for line in maps if "openblas" in line)
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (OSError, StopIteration, IndexError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return corename().decode()


def _mode_flags(args, in_mode: bool, mode: str, defaults: dict) -> None:
    """Refuse each flag of `defaults` set outside `mode`; inside it, default the unset ones.

    So no flag is silently dropped, and the manifest records what ran.
    """
    for flag, default in defaults.items():
        if not in_mode and getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} needs {mode}")
        if in_mode and getattr(args, flag) is None:
            setattr(args, flag, default)


def _load_split_pair(args) -> tuple[LabeledDataset, LabeledDataset, tuple[int, ...]]:
    """The train and test splits, and the network shape: DESK_SHAPE under --desk."""
    _mode_flags(args, args.desk, "--desk", {"per_class": 200, "test_per_class": 50})
    data_dir = os.environ.get("MNIST_DIR") if args.data_dir is None else args.data_dir
    if not data_dir:
        raise FileNotFoundError("no dataset directory: set a non-empty --data-dir or MNIST_DIR")
    # under --desk, pick the rows from the labels and read only those images
    splits = [to_dataset(*read_mnist_split(data_dir, split, per_class, (args.seed, stream)))
              for split, per_class, stream in (("train", args.per_class, _POP_STREAM),
                                               ("test", args.test_per_class, _TEST_STREAM))]
    return (*splits, DESK_SHAPE if args.desk else FULL_SHAPE)


def _phase_entries(names, marks) -> dict:
    """Manifest entries phase.<name>_s, the time between consecutive marks."""
    return {f"phase.{name}_s": f"{end - start:.3f}"
            for name, start, end in zip(names, marks, marks[1:])}


def cmd_synthetic(args, run: _Run) -> None:
    family = Trend(args.family)
    marks = [time.perf_counter()]
    rngs = spawn_rngs([(args.seed, s) for s in range(args.seeds)])
    rounds = generate_family(family, rngs, n_per_round=args.n_per_round, n_rounds=args.rounds)
    marks.append(time.perf_counter())
    race = trace_estimators(rounds, rngs, per_stratum=args.per_stratum)
    marks.append(time.perf_counter())

    # (seeds, estimators, rounds), written seed by seed, estimator by estimator
    sq_dev = race.sq_dev
    n_seeds, n_estimators, n_rounds = sq_dev.shape
    write_csv(run.path(f"{family.value}_traces.csv"), {
        "estimator": np.tile(np.repeat(ESTIMATOR_NAMES, n_rounds), n_seeds),
        "seed": np.repeat(np.arange(n_seeds), n_estimators * n_rounds),
        "round": np.tile(np.arange(1, n_rounds + 1), n_seeds * n_estimators),
        "estimate": race.estimates.reshape(-1),
        "truth": np.broadcast_to(race.truth[:, None, :], sq_dev.shape).reshape(-1),
        "sq_dev": sq_dev.reshape(-1),
    })

    write_csv(run.path(f"{family.value}_summary.csv"), summarize_traces(sq_dev))

    curves = {name: sq_dev[:, e].mean(axis=0) for e, name in enumerate(ESTIMATOR_NAMES)}
    write_svg_lineplot(run.path(f"{family.value}_curves.svg"), curves,
                       x=range(1, n_rounds + 1), title=f"squared deviation ({family.value})",
                       x_label="round", y_label="mean squared deviation")
    marks.append(time.perf_counter())
    run.finish(args, {"gmst_fallbacks": race.fallbacks,
                      "schedule": _family_schedule_note(family, n_rounds),
                      **_phase_entries(("generate", "race", "write"), marks)})


def _family_schedule_note(family: Trend, n_rounds: int) -> str:
    """The drift schedule behind a family, recorded in the run manifest."""
    if family is Trend.NORMAL_RANDOM:
        lo, hi = RANDOM_PARAM_RANGE
        return f"normal(mu,sigma) drawn uniformly per round from [{lo},{hi}]"
    pairs = [(round(a, 6), round(b, 6)) for a, b in trend_schedules(family, n_rounds)]
    kind = "intervals" if family in UNIFORM_TRENDS else "normal(mu,sigma)"
    return f"{kind}={pairs}"


def _numbers(what: str, text: str) -> list[float]:
    """The comma-separated numbers of `text`; refuses, naming `what`, an entry that is not one."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} {text!r} is not a comma-separated list of numbers") from None


def _parse_stats_spec(spec: str):
    strata = []
    for part in spec.split(";"):
        fields = _numbers("--stats stratum", part)
        if len(fields) not in (4, 5):
            raise ValueError(
                f"stats spec needs 'mean_prev,var_prev,mean_curr,var_curr[,weight]', got {part!r}")
        if not np.isfinite(fields).all():
            raise ValueError(f"stats spec fields must be finite, got {part!r}")
        for i in (1, 3):
            if fields[i] == 0.0:
                # -0 is a zero variance, but np.sqrt(-0.0) is -0.0, a scale
                # that Generator.normal rejects as negative
                fields[i] = 0.0
        strata.append(fields)
    given = [s[4] for s in strata if len(s) == 5]
    if not given:
        raw_w = np.ones(len(strata))  # all omitted: equal weights
    elif len(given) == len(strata) and all(w > 0 for w in given):
        raw_w = np.array(given)
    else:
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
    _mode_flags(args, args.stats is None, "random mode, without --stats",
                {"random_tuples": 10, "strata": 1})
    if args.stats is not None:
        experiments = [_parse_stats_spec(args.stats)]
    else:
        rng = spawn_rng(args.seed, _TUPLE_STREAM)
        experiments = [_random_stat_tuples(rng, args.strata)
                       for _ in range(args.random_tuples)]

    rows = []
    streams = spawn_rngs([(args.seed, _MC_STREAM, e) for e in range(len(experiments))])
    for e, (strata, rng) in enumerate(zip(experiments, streams)):
        mp, vp, mc, vc, w = np.array(strata).T
        predicted = blended_variance(mp, vp, mc, vc)
        total = np.zeros(args.replications)
        n_fallback = 0
        for j in range(mp.size):
            p, q, fallback = optimal_coefficients_elementwise(mp[j], vp[j], mc[j], vc[j])
            n_fallback += fallback
            memory = rng.normal(mp[j], np.sqrt(vp[j]), args.replications)
            fresh = rng.normal(mc[j], np.sqrt(vc[j]), args.replications)
            combined = p * memory + q * fresh
            total += w[j] * combined
            rows.append((e, str(j), float(w[j]), float(predicted[j]),
                         float(combined.var(ddof=1)), _variance_zscore(combined, predicted[j]),
                         fallback))
        # strata that fell back to the pure fresh draw blend away from the
        # predicted optimum, so their z scores flag a real gap; the total
        # adds the strata in order, as the blend above does
        predicted_total = float(np.cumsum(w * w * predicted)[-1])
        rows.append((e, "total", 1.0, predicted_total, float(total.var(ddof=1)),
                     _variance_zscore(total, predicted_total), n_fallback))
    columns = ("experiment", "stratum", "weight", "predicted", "empirical", "z", "fallback")
    write_csv(run.path("variance_oracle.csv"), dict(zip(columns, zip(*rows))))
    run.finish(args)


def _matrix_rounds(matrix: np.ndarray, class_index) -> PopulationRound:
    """One replication: each matrix column is a round, one (possibly ragged) stratum per class."""
    return PopulationRound(matrix[np.concatenate(class_index)].T[None],
                           [idx.size for idx in class_index])


def cmd_gradmatrix(args, run: _Run) -> None:
    if args.iterations is None:  # so the manifest records the count that ran
        args.iterations = 10 if args.desk else 60
    train, test, shape = _load_split_pair(args)
    check_class_sizes(train.class_index, 1, "the estimator replay")
    marks = [time.perf_counter()]
    params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
    params, final_loss, matrix = mlp.full_gradient_train(
        params, train.features(), train.labels, args.iterations, args.alpha, args.weight_decay)
    marks.append(time.perf_counter())

    n, t = matrix.shape
    write_csv(run.path("grad_matrix.csv"), {
        "sample": np.repeat(np.arange(n), t),
        "iteration": np.tile(np.arange(t), n),
        "grad": matrix.reshape(-1),
    })
    marks.append(time.perf_counter())

    rngs = spawn_rngs([(args.seed, _REP_STREAM, r) for r in range(args.reps)])
    # every replication races the one matrix, as a broadcast view
    race = trace_estimators(_matrix_rounds(matrix, train.class_index), rngs)
    write_csv(run.path("deviation_summary.csv"), summarize_traces(race.sq_dev))
    for e, name in enumerate(ESTIMATOR_NAMES):
        write_svg_lineplot(
            run.path(f"tracking_{name}.svg"),
            {"population": race.truth[0], name: race.estimates[0, e]},
            x=range(1, t + 1), title=f"{name} vs population gradient",
            x_label="iteration", y_label="tracked-weight gradient")
    marks.append(time.perf_counter())

    train_accuracy = trainer.accuracy(params, train)
    test_accuracy = trainer.accuracy(params, test)
    marks.append(time.perf_counter())
    run.finish(args, {
        "final_loss": final_loss,
        "train_accuracy": train_accuracy,
        "test_accuracy": test_accuracy,
        "gmst_fallbacks": race.fallbacks,
        **_phase_entries(("descent", "matrix_csv", "replay", "score"), marks),
    })


def _make_config(args, step_size: float, weight_decay: float, iterations: int,
                 checkpoint_every: int) -> trainer.TrainConfig:
    """The run's TrainConfig; --batch-size and --pilot-size are refused outside
    the algorithm that reads them."""
    _mode_flags(args, args.algorithm == "batch", "--algorithm batch", {"batch_size": 10})
    _mode_flags(args, args.algorithm == "mssg", "--algorithm mssg", {"pilot_size": 8})
    return trainer.TrainConfig(step_size=step_size, batch_size=args.batch_size,
                               iterations=iterations, weight_decay=weight_decay,
                               seed=(args.seed, _TRAIN_STREAM), pilot_size=args.pilot_size,
                               checkpoint_every=checkpoint_every)


def _report_rows(reports, args) -> dict:
    return {
        "iterations_k": [r.iterations / 1000.0 for r in reports],
        "algorithm": [args.algorithm] * len(reports),
        "test_accu": [r.test_accuracy for r in reports],
        "train_accu": [r.train_accuracy for r in reports],
        "h": [args.alpha] * len(reports),
        "lambda": [args.weight_decay] * len(reports),
        "seed": [args.seed] * len(reports),
    }


def cmd_train(args, run: _Run) -> None:
    config = _make_config(args, args.alpha, args.weight_decay, args.iterations,
                          args.checkpoint_every)
    train, test, shape = _load_split_pair(args)
    params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
    params, reports, fallbacks = trainer.train(params, train, config, args.algorithm, test)
    write_csv(run.path(f"accuracy_{args.algorithm}.csv"), _report_rows(reports, args))
    run.finish(args, {"final_test_accuracy": reports[-1].test_accuracy,
                      "coefficient_fallbacks": fallbacks})


def cmd_gridsearch(args, run: _Run) -> None:
    budget = args.budget_iterations
    alphas, lambdas = _numbers("--alphas", args.alphas), _numbers("--lambdas", args.lambdas)
    configs = [_make_config(args, h, lam, budget, budget)  # refused before the split is read
               for h in alphas for lam in lambdas]
    if len({(c.step_size, c.weight_decay) for c in configs}) < len(configs):
        raise ValueError(f"--alphas {args.alphas} or --lambdas {args.lambdas} repeats a value")
    train, test, shape = _load_split_pair(args)
    accuracies, fallbacks = [], []
    for config in configs:  # a cell's score is its final checkpoint's test accuracy
        params = mlp.init_params(shape, (args.seed, _INIT_STREAM))
        _, reports, n_fallback = trainer.train(params, train, config, args.algorithm, test)
        accuracies.append(reports[-1].test_accuracy)
        fallbacks.append(n_fallback)
    # ties go to the smaller step size, then the smaller decay
    best = min(range(len(configs)), key=lambda i: (-accuracies[i], configs[i].step_size,
                                                   configs[i].weight_decay))
    columns = {"h": [c.step_size for c in configs], "lambda": [c.weight_decay for c in configs],
               "test_accuracy": accuracies, "algorithm": [args.algorithm] * len(configs)}
    write_csv(run.path("grid_results.csv"), columns)
    write_csv(run.path("grid_best.csv"), {k: v[best:best + 1] for k, v in columns.items()})
    # each cell's fallback count, in grid order, shows a moved trajectory
    # even where every cell scores alike
    run.finish(args, {"best_h": configs[best].step_size,
                      "best_lambda": configs[best].weight_decay,
                      "coefficient_fallbacks": fallbacks})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for every stream")
    p.add_argument("--out-dir", required=True, help="directory for result files")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=None,
                   help="IDX dataset directory (default: $MNIST_DIR)")
    p.add_argument("--desk", action="store_true",
                   help="desk-scale preset: stratified subsample and a small network")
    p.add_argument("--per-class", type=int, default=None,
                   help="training rows per class, --desk only; unset means 200")
    p.add_argument("--test-per-class", type=int, default=None,
                   help="test rows per class, --desk only; unset means 50")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The flags that one algorithm alone reads, shared by train and gridsearch.

    Step, decay and length are not here: gridsearch takes them from its grid.
    """
    p.add_argument("--batch-size", type=int, default=None,
                   help="pooled mini-batch size, --algorithm batch only; unset means 10")
    p.add_argument("--pilot-size", type=int, default=None,
                   help="per-class pilot batch for gradient statistics, --algorithm mssg "
                        "only; unset means 8")


def build_parser() -> argparse.ArgumentParser:
    """The `stratgrad` parser; no parser takes a prefix of a flag for the flag."""
    parser = argparse.ArgumentParser(
        prog="stratgrad", description="Stratified gradient estimator experiments",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, summary, handler, *flag_groups) -> argparse.ArgumentParser:
        """Declares `name` with its flag groups and the common flags; returns its parser."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for add_flags in (*flag_groups, _add_common):
            add_flags(p)
        p.set_defaults(func=handler)
        return p

    p = subcommand("synthetic", "race the four estimators on a drift family", cmd_synthetic)
    p.add_argument("--family", required=True, choices=[t.value for t in Trend],
                   help="synthetic drift family")
    p.add_argument("--seeds", type=int, default=1000, help="independent replications")
    p.add_argument("--rounds", type=int, default=10, help="rounds per replication")
    p.add_argument("--n-per-round", type=int, default=40, help="values per round")
    p.add_argument("--per-stratum", type=int, default=1,
                   help="draws per stratum for gmst and gst; batch draws as many in all")

    p = subcommand("variance-oracle", "compare predicted blend variance against Monte Carlo",
                   cmd_variance_oracle)
    p.add_argument("--stats", default=None,
                   help="semicolon-separated 'mean_prev,var_prev,mean_curr,var_curr[,weight]' "
                        "strata (default: random tuples)")
    p.add_argument("--random-tuples", type=int, default=None,
                   help="number of random experiments, without --stats; unset means 10")
    p.add_argument("--strata", type=int, default=None,
                   help="strata per random experiment, without --stats; unset means 1")
    p.add_argument("--replications", type=int, default=100_000,
                   help="Monte-Carlo replications (>= 10000)")

    p = subcommand("gradmatrix",
                   "record one weight's per-sample gradient matrix and replay the estimators",
                   cmd_gradmatrix, _add_data_flags)
    p.add_argument("--iterations", type=int, default=None,
                   help="full-gradient iterations (default: 10 desk / 60 full)")
    p.add_argument("--alpha", type=float, default=0.2, help="full-gradient step size")
    p.add_argument("--weight-decay", type=float, default=0.001, help="L2 penalty")
    p.add_argument("--reps", type=int, default=10, help="estimator replications")

    p = subcommand("train", "train one algorithm and checkpoint accuracy", cmd_train,
                   _add_data_flags, _add_train_flags)
    p.add_argument("--algorithm", required=True, choices=trainer.ALGORITHMS)
    p.add_argument("--alpha", type=float, default=0.2, help="step size")
    p.add_argument("--weight-decay", type=float, default=0.001,
                   help="L2 penalty coefficient on weights")
    p.add_argument("--iterations", type=int, default=1000, help="training iterations")
    p.add_argument("--checkpoint-every", type=int, default=1000,
                   help="iterations between accuracy checkpoints")

    p = subcommand("gridsearch", "grid-search step size and weight decay", cmd_gridsearch,
                   _add_data_flags, _add_train_flags)
    p.add_argument("--algorithm", default="mssg", choices=trainer.ALGORITHMS)
    p.add_argument("--alphas", default="0.01,1,0.001", help="comma-separated step sizes")
    p.add_argument("--lambdas", default="0.001,0.0001", help="comma-separated decays")
    p.add_argument("--budget-iterations", type=int, default=1000,
                   help="iterations per grid cell")
    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _retain_freed_memory() -> None:
    """Have glibc keep freed memory for reuse instead of handing it back.

    The mssg trainer allocates and frees several arrays of a few hundred KB
    per parameter block. Under glibc's default, self-adjusting thresholds
    each one is a fresh mmap, or heap top that free() returns to the
    system, until some larger array happens to be freed and raises the
    thresholds; until then every block faults its temporaries' pages in
    again. A 3-iteration full-shape `train --algorithm mssg` on 5,000 rows
    took 1.12-1.25 s with 172,000 minor faults that way, against 0.92-0.96 s
    and 16,000 with fixed thresholds (8 runs each as a child process;
    2-core x86_64, one BLAS thread). Arrays below 16 MB now come from the
    heap, and up to 32 MB of free heap top is kept.
    Where there is no glibc mallopt, the allocator is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _retain_freed_memory()
    run = _Run(args)
    try:
        for dest, least in _LEAST.items():
            value = getattr(args, dest, None)
            if value is not None and value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be at least {least}, "
                                 f"got {value}")
        if hasattr(args, "alpha"):  # train and gradmatrix; gridsearch checks each cell
            try:
                mlp.check_step(args.alpha, args.weight_decay)
            except ValueError as exc:
                raise ValueError(f"--alpha {args.alpha} or --weight-decay {args.weight_decay}: "
                                 f"{exc}") from None
        args.func(args, run)
    except Exception as exc:
        run.mark_partial()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
