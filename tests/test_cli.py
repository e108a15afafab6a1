import argparse
import ast
import io
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stratgrad
from stratgrad import cli, rng
from stratgrad.cli import build_parser, main
from stratgrad.dataio import MNIST_FILES, read_mnist_split, to_dataset
from stratgrad.estimators import ESTIMATOR_NAMES
from stratgrad.population import (RANDOM_PARAM_RANGE, UNIFORM_TRENDS, Trend,
                                 generate_family, trend_schedules)

from idxtools import pack_idx_images, pack_idx_labels, synthetic_digits, write_mnist_style_dir
from oracles import (StratumStats, blended_variance_term, family_reference, numpy_stream,
                     optimal_coefficients, predicted_variance_vsp, read_csv_columns,
                     subsample_reference, trace_estimators_reference, variance_zscore,
                     write_csv_reference)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_floats(path, column):
    return [float(v) for v in read_csv_columns(path)[column]]


# ---------------------------------------------------------------- parser

def test_every_subcommand_documents_defaults(capsys):
    for sub in ("synthetic", "variance-oracle", "gradmatrix", "train", "gridsearch"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "--out-dir" in text
        assert "default" in text


def test_unknown_family_exits_nonzero(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synthetic", "--family", "sideways", "--out-dir", tmp_path)
    assert exc.value.code != 0
    capsys.readouterr()


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def long_flags(parser: argparse.ArgumentParser) -> list[str]:
    return [f for a in parser._actions for f in a.option_strings if f.startswith("--")]


def required_argv(parser: argparse.ArgumentParser) -> list[str]:
    """Values for the parser's required flags: the first choice, or a placeholder."""
    return [arg for a in parser._actions if a.required
            for arg in (a.option_strings[0], a.choices[0] if a.choices else "unused")]


SUBPARSERS = subparsers(build_parser())
# every long flag whose name less its last letter names no other flag
UNIQUE_PREFIXES = [(name, flag) for name, p in SUBPARSERS.items() for flag in long_flags(p)
                   if [f for f in long_flags(p) if f.startswith(flag[:-1])] == [flag]]
# flags that were removed, and that their subcommands keep refusing in full and
# abbreviated: the manifest is always <out-dir>/manifest.txt, the race's
# pooled batch always spends the stratified estimators' budget, and a k-fold
# sgd run is k times --iterations and --checkpoint-every, or --budget-iterations
RETIRED = [*((name, "--manifest-out") for name in SUBPARSERS),
           ("synthetic", "--batch-size"), ("gradmatrix", "--batch-size"),
           ("train", "--sgd-multiplier"), ("gridsearch", "--sgd-multiplier")]
REFUSED = UNIQUE_PREFIXES + RETIRED


def refused(name, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([name, *required_argv(SUBPARSERS[name]), flag, "7"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name, flag", REFUSED, ids=[f"{name} {flag}" for name, flag in REFUSED])
def test_abbreviated_flags_are_refused(name, flag, capsys):
    refused(name, flag[:-1], capsys)
    if (name, flag) in RETIRED:
        refused(name, flag, capsys)
        assert flag not in long_flags(SUBPARSERS[name])


def test_abbreviations_cover_every_subcommand_and_the_top_level_refuses_them(capsys):
    assert {name for name, _ in UNIQUE_PREFIXES} == set(SUBPARSERS)
    assert ("gridsearch", "--alphas") in UNIQUE_PREFIXES
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--hel"])  # not taken for --help, which exits 0
    assert exc.value.code == 2
    capsys.readouterr()


FLAG_ACTIONS = [(name, a) for name, p in SUBPARSERS.items() for a in p._actions
                if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("name, action", FLAG_ACTIONS,
                         ids=[f"{name} {a.option_strings[0]}" for name, a in FLAG_ACTIONS])
def test_full_flag_names_parse(name, action):
    value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "7"]
    args = build_parser().parse_args(
        [name, *required_argv(SUBPARSERS[name]), action.option_strings[0], *value])
    want = action.const if action.nargs == 0 else (action.type or str)(value[0])
    assert getattr(args, action.dest) == want


def recording_namespace():
    """A Namespace, and the set that each attribute read on it adds the name to.

    vars() reads no attribute, so dumping every setting counts as no read.
    """
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recording(), reads


def unread_flags(parser, runs, execute) -> list[str]:
    """'<subcommand> <flag>' for each flag that a subcommand in `runs` declares
    and that `execute(args)` reads in none of that subcommand's runs.

    Each argv in `runs` starts with its subcommand. Parsing itself reads every
    destination, so reads count only from `execute` on.
    """
    read: dict[str, set] = {}
    for argv in runs:
        args, reads = recording_namespace()
        parser.parse_args(argv, namespace=args)
        reads.clear()
        execute(args)
        read.setdefault(argv[0], set()).update(reads)
    return [f"{name} {a.option_strings[0]}" for name, names in read.items()
            for a in subparsers(parser)[name]._actions
            if a.option_strings and a.dest != "help" and a.dest not in names]


def test_flag_guard_flags_only_unread_flags():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers(dest="subcommand").add_parser("toy")
    for flag in ("--mode", "--in-one-mode", "--dumped"):
        p.add_argument(flag)

    def execute(args):
        vars(args)  # the manifest's dump of every setting
        if args.mode == "b":
            args.in_one_mode

    runs = [["toy", "--mode", "a"], ["toy", "--mode", "b"]]
    assert unread_flags(parser, runs, execute) == ["toy --dumped"]
    assert unread_flags(parser, runs[:1], execute) == ["toy --in-one-mode", "toy --dumped"]


def test_every_declared_flag_is_read(tmp_path, fixture_data_dir):
    data = ["--data-dir", str(fixture_data_dir)]
    desk = [*data, "--desk", "--per-class", "10", "--test-per-class", "5"]
    grid = ["gridsearch", "--algorithm", "gst", "--alphas", "0.5", "--lambdas", "0",
            "--budget-iterations", "1"]
    runs = [
        ["synthetic", "--family", "normal-random", "--seeds", "2", "--rounds", "3"],
        ["variance-oracle", "--random-tuples", "1", "--replications", "10000"],
        ["variance-oracle", "--stats", "2,1,1,1", "--replications", "10000"],
        ["gradmatrix", *desk, "--iterations", "2", "--reps", "2"],
        ["gradmatrix", *data, "--iterations", "1", "--reps", "1"],
        ["train", "--algorithm", "gst", *desk, "--iterations", "2", "--checkpoint-every", "2"],
        ["train", "--algorithm", "gst", *data, "--iterations", "1", "--checkpoint-every", "1"],
        [*grid, *desk],
        [*grid, *data],
    ]
    runs = [[*argv, "--out-dir", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    assert {argv[0] for argv in runs} == set(SUBPARSERS)
    assert unread_flags(build_parser(), runs,
                        lambda args: args.func(args, cli._Run(args))) == []


# (subcommand, destination, flag) of every integer flag that a parser declares
INT_FLAGS = [(name, a.dest, a.option_strings[0]) for name, p in SUBPARSERS.items()
             for a in p._actions if a.type is int]


def test_every_integer_flag_has_one_least_value_and_every_least_value_a_flag():
    assert {dest for _, dest, _ in INT_FLAGS} == set(cli._LEAST)
    # the refusal names the flag after its destination, and no other flag
    # shares a destination with an integer flag
    assert all(flag == "--" + dest.replace("_", "-") for _, dest, flag in INT_FLAGS)
    assert all(a.type is int for p in SUBPARSERS.values() for a in p._actions
               if a.dest in cli._LEAST)


@pytest.mark.parametrize("name, dest, flag", INT_FLAGS,
                         ids=[f"{name} {flag}" for name, _, flag in INT_FLAGS])
def test_an_integer_flag_below_its_least_value_is_refused_by_name_before_any_read(
        tmp_path, capsys, monkeypatch, name, dest, flag):
    for module, reader in ((cli, "read_mnist_split"), (cli, "generate_family"),
                           (cli.trainer, "train")):
        monkeypatch.setattr(module, reader, lambda *_, r=reader, **__: pytest.fail(f"{r} ran"))
    # each trainer flag goes to the algorithm that reads it
    algorithm = ("--algorithm", "batch" if dest == "batch_size" else "mssg")
    argv = {"synthetic": ("--family", "normal-random"), "variance-oracle": (),
            "gradmatrix": ("--data-dir", tmp_path, "--desk"),
            "train": (*algorithm, "--data-dir", tmp_path, "--desk"),
            "gridsearch": (*algorithm, "--data-dir", tmp_path, "--desk")}[name]
    least = cli._LEAST[dest]
    out = tmp_path / "run"
    assert run_cli(name, *argv, flag, least - 1, "--out-dir", out) == 1
    assert f"{flag} must be at least {least}, got {least - 1}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------- synthetic

def test_synthetic_single_seed_still_produces_files(tmp_path):
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", "normal-random", "--seeds", 1,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / "normal-random_traces.csv")
    assert len(cols["round"]) == 40  # 4 estimators x 10 rounds
    summary = read_csv_columns(out / "normal-random_summary.csv")
    assert summary["estimator"] == ["gmst", "gst", "batch", "sgd"]
    assert (out / "normal-random_curves.svg").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "subcommand=synthetic" in manifest
    assert "gmst_fallbacks=" in manifest
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    for phase in ("generate", "race", "write"):
        assert float(entries[f"phase.{phase}_s"]) >= 0.0


@pytest.mark.parametrize("seeds", [0, -2])
def test_synthetic_refuses_seeds_below_one_by_name_before_any_draw(tmp_path, capsys,
                                                                    monkeypatch, seeds):
    monkeypatch.setattr(cli, "generate_family", lambda *_, **__: pytest.fail("a population"))
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", "normal-random", "--seeds", seeds,
                   "--out-dir", out) == 1
    assert f"--seeds must be at least 1, got {seeds}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("family", ["uniform-dec", "uniform-inc"])
def test_uniform_families_refuse_rounds_beyond_their_intervals(tmp_path, capsys, family):
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", family, "--seeds", 2, "--rounds", 12,
                   "--out-dir", out) == 1
    assert "10 rounds" in capsys.readouterr().err
    assert not list(out.glob("*traces.csv*"))


def test_normal_trend_runs_the_requested_rounds(tmp_path):
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", "normal-mean-inc", "--seeds", 2, "--rounds", 12,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / "normal-mean-inc_traces.csv")
    assert sorted(set(map(int, cols["round"]))) == list(range(1, 13))
    assert read_csv_columns(out / "normal-mean-inc_summary.csv")["n_rounds"] == ["12"] * 4


@pytest.mark.parametrize("family,flags", [
    (Trend.UNIFORM_INC, ()),
    (Trend.NORMAL_VAR_DEC, ("--per-stratum", 2, "--n-per-round", 24)),
])
def test_synthetic_csv_bytes_equal_per_round_reference(tmp_path, family, flags):
    seeds, master = 6, 3
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", family.value, "--seeds", seeds, "--seed", master,
                   *flags, "--out-dir", out) == 0
    opts = dict(zip(flags[::2], flags[1::2]))
    rows = {"estimator": [], "seed": [], "round": [], "estimate": [], "truth": [],
            "sq_dev": []}
    pooled = {name: [] for name in ESTIMATOR_NAMES}
    per_stratum = opts.get("--per-stratum", 1)
    # replication s draws its population, then its race, from the stream (master, s)
    rngs = [numpy_stream(master, s) for s in range(seeds)]
    race = trace_estimators_reference(  # batch spends per_stratum draws on each of 4 strata
        family_reference(family, rngs, n_per_round=opts.get("--n-per-round", 40)),
        rngs, per_stratum, 4 * per_stratum)
    for s in range(seeds):
        for e, name in enumerate(ESTIMATOR_NAMES):
            for k in range(race.truth.shape[1]):
                rows["estimator"].append(name)
                rows["seed"].append(s)
                rows["round"].append(k + 1)
                rows["estimate"].append(float(race.estimates[s, e, k]))
                rows["truth"].append(float(race.truth[s, k]))
                rows["sq_dev"].append(float(race.sq_dev[s, e, k]))
                pooled[name].append(float(race.sq_dev[s, e, k]))
    write_csv_reference(tmp_path / "traces.csv", rows)
    devs = {name: np.array(v) for name, v in pooled.items()}
    write_csv_reference(tmp_path / "summary.csv", {
        "estimator": list(ESTIMATOR_NAMES),
        "mean_sq_dev": [float(devs[n].mean()) for n in ESTIMATOR_NAMES],
        "std_sq_dev": [float(devs[n].std(ddof=1)) for n in ESTIMATOR_NAMES],
        "n_rounds": [10] * 4,
        "n_seeds": [seeds] * 4,
    })
    for kind in ("traces", "summary"):
        assert (out / f"{family.value}_{kind}.csv").read_bytes() == \
            (tmp_path / f"{kind}.csv").read_bytes()


def test_synthetic_summary_ranks_memory_estimator_first(tmp_path):
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", "uniform-dec", "--seeds", 200,
                   "--seed", 5, "--out-dir", out) == 0
    cols = read_csv_columns(out / "uniform-dec_summary.csv")
    means = dict(zip(cols["estimator"], (float(v) for v in cols["mean_sq_dev"])))
    assert means["gmst"] == min(means.values())


def test_synthetic_manifest_lists_existing_outputs(tmp_path):
    out = tmp_path / "syn"
    run_cli("synthetic", "--family", "uniform-inc", "--seeds", 2, "--out-dir", out)
    listed = [line.split("=", 1)[1] for line in
              (out / "manifest.txt").read_text().splitlines()
              if line.startswith("output=")]
    assert len(listed) == 3
    import pathlib
    assert all(pathlib.Path(p).exists() for p in listed)


@pytest.mark.parametrize("master, n_rounds", [(0, 10), (11, 3)])
@pytest.mark.parametrize("family", list(Trend), ids=lambda family: family.value)
def test_synthetic_manifest_schedule_is_the_one_the_draws_follow(tmp_path, monkeypatch, family,
                                                                 master, n_rounds):
    drawn = []

    def recording_generate(*args, **kwargs):
        drawn.append(generate_family(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cli, "generate_family", recording_generate)
    out = tmp_path / "syn"
    assert run_cli("synthetic", "--family", family.value, "--seeds", 3, "--seed", master,
                   "--rounds", n_rounds, "--out-dir", out) == 0
    entries = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    if family is Trend.NORMAL_RANDOM:
        lo, hi = RANDOM_PARAM_RANGE
        assert entries["schedule"] == \
            f"normal(mu,sigma) drawn uniformly per round from [{lo},{hi}]"
        return
    pairs = [(round(a, 6), round(b, 6)) for a, b in trend_schedules(family, n_rounds)]
    kind = "intervals" if family in UNIFORM_TRENDS else "normal(mu,sigma)"
    assert entries["schedule"] == f"{kind}={pairs}"
    if family in UNIFORM_TRENDS:
        intervals = ast.literal_eval(entries["schedule"].removeprefix("intervals="))
        (rounds,) = drawn
        assert len(intervals) == rounds.n_rounds == n_rounds
        for k, (lo, hi) in enumerate(intervals):
            assert ((lo <= rounds.values[:, k]) & (rounds.values[:, k] <= hi)).all(), k


# ---------------------------------------------------------------- variance oracle

def test_variance_oracle_hand_case(tmp_path):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", "2,1,1,1",
                   "--replications", 100_000, "--out-dir", out) == 0
    cols = read_csv_columns(out / "variance_oracle.csv")
    assert cols["stratum"] == ["0", "total"]
    predicted = read_floats(out / "variance_oracle.csv", "predicted")
    zs = read_floats(out / "variance_oracle.csv", "z")
    assert predicted[0] == pytest.approx(0.2)
    assert abs(zs[0]) < 3


def test_variance_oracle_zero_variance_strata(tmp_path):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", "2,0,3,0;1,0,1,0",
                   "--replications", 10_000, "--out-dir", out) == 0
    predicted = read_floats(out / "variance_oracle.csv", "predicted")
    empirical = read_floats(out / "variance_oracle.csv", "empirical")
    assert all(v == 0.0 for v in predicted)
    assert all(v == 0.0 for v in empirical)


def test_variance_oracle_random_tuples(tmp_path):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--random-tuples", 10, "--strata", 2,
                   "--replications", 20_000, "--seed", 9, "--out-dir", out) == 0
    cols = read_csv_columns(out / "variance_oracle.csv")
    assert len(cols["z"]) == 10 * 3  # two strata plus a total row each
    assert all(abs(float(z)) < 4 for z in cols["z"])


def test_variance_oracle_negative_zero_variance_is_zero(tmp_path):
    # np.sqrt(-0.0) is -0.0, which Generator.normal rejects as a negative scale
    for name, stats in (("neg", "0,-0,0,1;1,1,2,-0"), ("pos", "0,0,0,1;1,1,2,0")):
        assert run_cli("variance-oracle", "--stats", stats, "--replications", 10_000,
                       "--out-dir", tmp_path / name) == 0
    csv = "variance_oracle.csv"
    assert (tmp_path / "neg" / csv).read_bytes() == (tmp_path / "pos" / csv).read_bytes()


@pytest.mark.parametrize("stats", ["2,1,1,1,-2;1,1,1,1,-3", "2,1,1,1,1;1,1,1,1,0",
                                   "2,1,1,1,1;1,1,1,1"])
def test_variance_oracle_rejects_nonpositive_or_partial_weights(tmp_path, capsys, stats):
    assert run_cli("variance-oracle", "--stats", stats, "--replications", 10_000,
                   "--out-dir", tmp_path / "vo") == 1
    assert "weights" in capsys.readouterr().err


@pytest.mark.parametrize("stats", ["nan,1,1,1", "1,inf,1,1"])
def test_variance_oracle_rejects_nonfinite_stats(tmp_path, capsys, stats):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", stats, "--replications", 10_000,
                   "--out-dir", out) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "variance_oracle.csv").exists()


def test_variance_oracle_rows_match_the_scalar_reference(tmp_path):
    rng = np.random.default_rng(0)
    n = 12
    strata = np.column_stack([rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 5.0, n),
                              rng.uniform(0.1, 3.0, n),
                              rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 5.0, n),
                              rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 1.0, n)])
    strata[3, :4] = (1.0, 0.1, 5.0, 4.0)  # |p| >= 1: falls back, off the optimum
    strata[7, :4] = (0.0, 2.0, 0.0, 1.0)  # both means zero
    out = tmp_path / "vo"
    spec = ";".join(",".join(repr(float(x)) for x in row) for row in strata)
    assert run_cli("variance-oracle", "--stats", spec, "--replications", 10_000,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / "variance_oracle.csv")
    assert cols["stratum"] == [*map(str, range(n)), "total"]
    weights = strata[:, 4] / strata[:, 4].sum()
    predicted = [float(v) for v in cols["predicted"]]
    assert predicted[:n] == [blended_variance_term(*row[:4]) for row in strata.tolist()]
    want = predicted_variance_vsp([StratumStats(*row[:2]) for row in strata],
                                  [StratumStats(*row[2:4]) for row in strata], weights)
    terms = weights * weights * np.array(predicted[:n])
    assert float(np.sum(terms)) != want  # the strata are summed in order, not pairwise
    assert predicted[n] == want
    fallbacks = [optimal_coefficients(*row[:4]).is_fallback for row in strata.tolist()]
    assert cols["fallback"] == [*(str(int(f)) for f in fallbacks), str(sum(fallbacks))]
    assert fallbacks[3] and not all(fallbacks)


def test_variance_oracle_z_scores_equal_the_oracles_on_the_blends_it_draws(tmp_path):
    # the second stratum's |p| >= 1 falls back to the fresh draw, off the optimum
    strata = [(2.0, 1.0, 1.0, 1.0, 1.0), (1.0, 0.1, 5.0, 4.0, 3.0), (-1.0, 2.0, 0.5, 1.5, 2.0)]
    seed, reps = 6, 10_000
    out = tmp_path / "vo"
    spec = ";".join(",".join(map(repr, row)) for row in strata)
    assert run_cli("variance-oracle", "--stats", spec, "--replications", reps, "--seed", seed,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / "variance_oracle.csv")
    assert cols["fallback"] == ["0", "1", "0", "1"]
    weights = np.array([row[4] for row in strata]) / sum(row[4] for row in strata)
    rng = numpy_stream(seed, cli._MC_STREAM, 0)
    blends, total = [], np.zeros(reps)
    for (mp, vp, mc, vc, _), w in zip(strata, weights):
        c = optimal_coefficients(mp, vp, mc, vc)
        memory = rng.normal(mp, np.sqrt(vp), reps)  # memory before fresh
        blends.append(c.p * memory + c.q * rng.normal(mc, np.sqrt(vc), reps))
        total += w * blends[-1]
    blends.append(total)
    empirical, z, predicted = ([float(v) for v in cols[name]]
                               for name in ("empirical", "z", "predicted"))
    assert empirical == [float(b.var(ddof=1)) for b in blends]
    assert z == [variance_zscore(b, v) for b, v in zip(blends, predicted)]
    assert abs(z[1]) > 4  # the fallback's gap


def test_manifest_records_blas_threads_and_numpy(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", "2,1,1,1", "--replications", 10_000,
                   "--out-dir", out) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert "env.OPENBLAS_NUM_THREADS=3" in lines
    assert "env.OMP_NUM_THREADS=unset" in lines
    assert f"env.numpy={np.__version__}" in lines
    # the build, the kernel set OpenBLAS picked at load time, and numpy's own
    # SIMD kernels: each is one non-empty entry
    for key in ("env.blas=", "env.blas_core=", "env.simd="):
        entry = [line for line in lines if line.startswith(key)]
        assert len(entry) == 1 and entry[0] != key, key
    assert f"env.machine={platform.machine()}" in lines


@pytest.mark.parametrize("maps", ["", "7f00-7f01 r-xp 0 00:00 0 /nonexistent/libopenblas.so\n"],
                         ids=["no-openblas-mapped", "unloadable-library"])
def test_blas_core_is_unknown_without_a_loadable_openblas(monkeypatch, maps):
    monkeypatch.setattr(cli, "open", lambda path: io.StringIO(maps), raising=False)
    assert cli._blas_core() == "unknown"


def test_variance_oracle_rejects_thin_replications(tmp_path, capsys):
    assert run_cli("variance-oracle", "--replications", 100,
                   "--out-dir", tmp_path / "vo") == 1
    assert "replications" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--strata", 4), ("--random-tuples", 3),
                                   ("--strata", 4, "--random-tuples", 3)],
                         ids=["strata", "random-tuples", "both"])
def test_variance_oracle_refuses_random_mode_flags_with_stats(tmp_path, capsys, flags):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", "2,1,1,1", *flags, "--replications", 10_000,
                   "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert any(f"{flag} needs random mode, without --stats" in err for flag in flags[::2])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("stats, part", [("1,1,1,1;", ""), ("1,1,1,1;2,x,1,1", "2,x,1,1"),
                                         ("1,,1,1", "1,,1,1")])
def test_variance_oracle_names_a_stats_entry_that_is_not_a_number(tmp_path, capsys, stats, part):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", stats, "--replications", 10_000,
                   "--out-dir", out) == 1
    assert f"--stats stratum {part!r} is not a comma-separated list of numbers" in \
        capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_variance_oracle_refuses_an_empty_stats_value(tmp_path, capsys):
    # an empty --stats is a malformed stratum, not random mode
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--stats", "", "--replications", 10_000,
                   "--out-dir", out) == 1
    assert "--stats stratum '' is not a comma-separated list of numbers" in \
        capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_variance_oracle_records_the_random_mode_defaults(tmp_path):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--replications", 10_000, "--out-dir", out) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert {"config.random_tuples=10", "config.strata=1"} <= set(lines)
    assert len(read_csv_columns(out / "variance_oracle.csv")["z"]) == 10 * 2


def test_variance_oracle_rejects_empty_random_experiments(tmp_path, capsys):
    out = tmp_path / "vo"
    assert run_cli("variance-oracle", "--strata", 0, "--out-dir", out) == 1
    assert "--strata must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli("variance-oracle", "--random-tuples", 0, "--out-dir", out) == 1
    assert "--random-tuples" in capsys.readouterr().err
    assert not (out / "variance_oracle.csv").exists()


# ---------------------------------------------------------------- gradmatrix

def test_gradmatrix_desk_outputs(tmp_path, fixture_data_dir):
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", fixture_data_dir, "--desk",
                   "--per-class", 40, "--test-per-class", 10, "--iterations", 5,
                   "--reps", 3, "--seed", 2, "--out-dir", out) == 0
    cols = read_csv_columns(out / "grad_matrix.csv")
    assert len(cols["grad"]) == 400 * 5
    summary = read_csv_columns(out / "deviation_summary.csv")
    assert summary["estimator"] == ["gmst", "gst", "batch", "sgd"]
    assert summary["n_seeds"] == ["3"] * 4
    for name in ("gmst", "gst", "batch", "sgd"):
        assert (out / f"tracking_{name}.svg").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "test_accuracy=" in manifest
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    for phase in ("descent", "matrix_csv", "replay", "score"):
        assert float(entries[f"phase.{phase}_s"]) >= 0.0


def test_gradmatrix_final_loss_is_the_loss_at_the_parameters_the_descent_returns(
        tmp_path, fixture_data_dir, monkeypatch):
    calls = []
    descend = cli.mlp.full_gradient_train

    def recording_descent(*args):
        calls.append((args, descend(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli.mlp, "full_gradient_train", recording_descent)
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
                   "--test-per-class", 5, "--iterations", 3, "--out-dir", out) == 0
    ((_, features, labels, _, _, weight_decay), (params, _, _)), = calls
    assert weight_decay > 0  # the penalty is part of the loss recorded
    entries = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert float(entries["final_loss"]) == cli.mlp.loss(params, features, labels, weight_decay)


@pytest.mark.parametrize("desk_flags, iterations", [
    (("--desk", "--per-class", 20, "--test-per-class", 5), 10), ((), 60)], ids=["desk", "full"])
def test_gradmatrix_records_the_iterations_its_mode_runs(tmp_path, desk_flags, iterations):
    data = write_mnist_style_dir(tmp_path / "data", 20 if desk_flags else 2, 5)
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", data, *desk_flags, "--reps", 1,
                   "--out-dir", out) == 0
    assert f"config.iterations={iterations}" in (out / "manifest.txt").read_text().splitlines()
    assert max(map(int, read_csv_columns(out / "grad_matrix.csv")["iteration"])) == iterations - 1


def test_gradmatrix_bytes_repeat_at_one_blas_thread(tmp_path, fixture_data_dir):
    # BLAS splits its sums by thread count, so the thread count is pinned in the child
    src = str(Path(stratgrad.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run(
            [sys.executable, "-m", "stratgrad", "gradmatrix", "--data-dir",
             str(fixture_data_dir), "--desk", "--per-class", "40", "--test-per-class", "10",
             "--iterations", "5", "--reps", "3", "--seed", "2", "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=300)
        assert "env.OPENBLAS_NUM_THREADS=1" in (out / "manifest.txt").read_text().splitlines()
    for name in ("grad_matrix.csv", "deviation_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_gradmatrix_zero_iterations_is_rejected(tmp_path, fixture_data_dir, capsys):
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", fixture_data_dir, "--desk",
                   "--per-class", 20, "--test-per-class", 5, "--iterations", 0,
                   "--out-dir", out) == 1
    assert "--iterations must be at least 1, got 0" in capsys.readouterr().err
    assert not (out / "grad_matrix.csv").exists()


def gapped_data_dir(path: Path) -> Path:
    """Train and test IDX files whose labels are {0, 1, 3}: class 2 has no rows."""
    images, labels = synthetic_digits(6, seed=4, n_classes=4)
    keep = labels != 2
    path.mkdir()
    for split in ("train", "test"):
        image_name, label_name = MNIST_FILES[split]
        (path / image_name).write_bytes(pack_idx_images(images[keep]))
        (path / label_name).write_bytes(pack_idx_labels(labels[keep]))
    return path


def test_gradmatrix_refuses_an_empty_class_before_the_descent(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.mlp, "full_gradient_train", lambda *_, **__: pytest.fail("descended"))
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", gapped_data_dir(tmp_path / "data"),
                   "--iterations", 1, "--out-dir", out) == 1
    assert "class 2 has 0 samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # not even a .partial


def empty_split_data_dir(path: Path, empty: str) -> Path:
    """Train and test IDX files, 3 rows a class, except that split `empty` counts zero items."""
    images, labels = synthetic_digits(3, seed=4)
    path.mkdir()
    for split in ("train", "test"):
        keep = slice(0) if split == empty else slice(None)
        image_name, label_name = MNIST_FILES[split]
        (path / image_name).write_bytes(pack_idx_images(images[keep]))
        (path / label_name).write_bytes(pack_idx_labels(labels[keep]))
    return path


@pytest.mark.parametrize("desk", [False, True], ids=["whole", "desk"])
@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("argv", [("train", "--algorithm", "gst"), ("gradmatrix",)],
                         ids=["train", "gradmatrix"])
def test_a_split_with_no_items_is_refused_by_name_before_any_descent(
        tmp_path, capsys, monkeypatch, argv, split, desk):
    monkeypatch.setattr(cli.mlp, "full_gradient_train", lambda *_, **__: pytest.fail("descended"))
    monkeypatch.setattr(cli.trainer, "train", lambda *_: pytest.fail("trained"))
    data = empty_split_data_dir(tmp_path / "data", split)
    out = tmp_path / "run"
    desk_flags = ("--desk", "--per-class", 2, "--test-per-class", 2) if desk else ()
    assert run_cli(*argv, "--data-dir", data, *desk_flags, "--out-dir", out) == 1
    assert f"the {split} split under {data} holds no items" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("split, flags, refusal", [
    ("train", ("--per-class", 25, "--test-per-class", 5), "class 0 has 20 samples, the "
                                                           "subsample needs 25"),
    ("test", ("--per-class", 5), "class 0 has 5 samples, the subsample needs 50")])
def test_a_desk_subsample_larger_than_a_class_is_refused_by_split_and_directory(
        tmp_path, capsys, split, flags, refusal):
    # 20 train and 5 test rows a class; an unset --test-per-class asks for 50
    data = write_mnist_style_dir(tmp_path / "data", 20, 5)
    out = tmp_path / "run"
    assert run_cli("train", "--algorithm", "gst", "--desk", *flags, "--data-dir", data,
                   "--out-dir", out) == 1
    assert f"the {split} split under {data}: {refusal}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_gradmatrix_requires_data(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    assert run_cli("gradmatrix", "--desk", "--out-dir", tmp_path / "gm") == 1
    assert "data" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [("gradmatrix", "--desk"), ("train", "--algorithm", "gst"),
                                  ("gridsearch", "--algorithm", "gst")],
                         ids=lambda argv: argv[0])
def test_an_empty_data_dir_is_refused_not_read_as_unset(tmp_path, fixture_data_dir, capsys,
                                                        monkeypatch, argv):
    monkeypatch.setenv("MNIST_DIR", str(fixture_data_dir))
    monkeypatch.setattr(cli, "read_mnist_split", lambda *_: pytest.fail("a split was read"))
    out = tmp_path / "run"
    assert run_cli(*argv, "--data-dir", "", "--out-dir", out) == 1
    assert "set a non-empty --data-dir or MNIST_DIR" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("desk", [True, False])
def test_desk_converts_only_the_sampled_rows(fixture_data_dir, monkeypatch, desk):
    converted = []

    def spy(images, labels):
        converted.append(images.shape[0])
        return to_dataset(images, labels)

    monkeypatch.setattr(cli, "to_dataset", spy)
    argv = ["train", "--algorithm", "gst", "--out-dir", "unused", "--data-dir",
            str(fixture_data_dir), "--seed", "5"]
    desk_flags = ["--desk", "--per-class", "7", "--test-per-class", "3"]
    train, test, shape = cli._load_split_pair(build_parser().parse_args(argv + desk_flags * desk))
    assert shape == (cli.DESK_SHAPE if desk else cli.FULL_SHAPE)
    assert converted == ([70, 30] if desk else [3000, 600])
    for got, split, per_class, stream in ((train, "train", 7, cli._POP_STREAM),
                                          (test, "test", 3, cli._TEST_STREAM)):
        want = to_dataset(*read_mnist_split(fixture_data_dir, split))
        if desk:  # the old path: read the whole split, then subsample it
            want = subsample_reference(want, per_class, (5, stream))
        assert got.pixels.tobytes() == want.pixels.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


def test_desk_subsample_sizes_default_to_200_and_50_and_are_recorded(fixture_data_dir):
    args = build_parser().parse_args(["gradmatrix", "--data-dir", str(fixture_data_dir),
                                      "--desk", "--out-dir", "unused"])
    train, test, _ = cli._load_split_pair(args)
    assert (train.n_samples, test.n_samples) == (10 * 200, 10 * 50)
    assert (args.per_class, args.test_per_class) == (200, 50)  # as the manifest dumps them


@pytest.mark.parametrize("flag", ["--per-class", "--test-per-class"])
@pytest.mark.parametrize("argv", [("train", "--algorithm", "gst"), ("gradmatrix",),
                                  ("gridsearch", "--algorithm", "gst")],
                         ids=["train", "gradmatrix", "gridsearch"])
def test_subsample_size_without_desk_is_refused_before_any_read(
        tmp_path, fixture_data_dir, capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(cli, "read_mnist_split", lambda *_: pytest.fail("a split was read"))
    out = tmp_path / "run"
    assert run_cli(*argv, "--data-dir", fixture_data_dir, flag, 10, "--out-dir", out) == 1
    assert f"{flag} needs --desk" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("train", "--algorithm", "gst", "--weight-decay", -0.5),
     "weight_decay must be non-negative and finite, got -0.5"),
    (("train", "--algorithm", "gst", "--alpha", "nan"),
     "step_size must be positive and finite, got nan"),
    (("gradmatrix", "--alpha", "nan"), "step_size must be positive and finite, got nan"),
], ids=["train-negative-decay", "train-nan-step", "gradmatrix-nan-step"])
def test_malformed_step_or_decay_is_refused_before_training(tmp_path, fixture_data_dir, capsys,
                                                            argv, message):
    out = tmp_path / "run"
    assert run_cli(*argv, "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
                   "--test-per-class", 5, "--iterations", 2, "--out-dir", out) == 1
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []  # not even a .partial


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "nan", "--alpha nan or --weight-decay 0.001: step_size must be positive"),
    ("--weight-decay", -0.5, "--alpha 0.2 or --weight-decay -0.5: weight_decay must be"),
    ("--iterations", 0, "--iterations must be at least 1, got 0"),
], ids=["alpha", "weight-decay", "iterations"])
def test_gradmatrix_refuses_bad_descent_flags_before_any_read(tmp_path, capsys, flag, value,
                                                              message):
    # the data directory holds no IDX files, so a read would fail on the dataset instead
    empty = tmp_path / "no-idx-files"
    empty.mkdir()
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", empty, flag, value, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert message in err and "missing" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("alphas, lambdas, message", [
    ("0.5,nan", "0", "step_size must be positive and finite, got nan"),
    ("0.5", "0,-0.5", "weight_decay must be non-negative and finite, got -0.5"),
    ("2,2", "0,0.0", "--alphas 2,2 or --lambdas 0,0.0 repeats a value"),
    ("2", "0,0.0", "--alphas 2 or --lambdas 0,0.0 repeats a value"),
    ("0.5,1,5e-1", "0.01", "--alphas 0.5,1,5e-1 or --lambdas 0.01 repeats a value"),
    ("0.1,", "0", "--alphas '0.1,' is not a comma-separated list of numbers"),
    ("0.5", "x", "--lambdas 'x' is not a comma-separated list of numbers")])
def test_gridsearch_refuses_a_bad_grid_value_before_any_cell_trains(
        tmp_path, fixture_data_dir, capsys, monkeypatch, alphas, lambdas, message):
    monkeypatch.setattr(cli.trainer, "train", lambda *_: pytest.fail("a cell trained"))
    monkeypatch.setattr(cli, "read_mnist_split", lambda *_: pytest.fail("a split was read"))
    assert run_cli("gridsearch", "--algorithm", "gst", "--data-dir", fixture_data_dir, "--desk",
                   "--per-class", 20, "--test-per-class", 5, "--alphas", alphas,
                   "--lambdas", lambdas, "--budget-iterations", 2,
                   "--out-dir", tmp_path / "gs") == 1
    assert message in capsys.readouterr().err


def test_gridsearch_refuses_a_bad_budget_before_the_split_is_read(
        tmp_path, fixture_data_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "read_mnist_split", lambda *_: pytest.fail("a split was read"))
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--data-dir", fixture_data_dir, "--desk",
                   "--budget-iterations", 0, "--out-dir", out) == 1
    assert "iterations must be at least 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# every algorithm but the one that reads the flag
UNREAD_TRAINER_FLAGS = [(sub, flag, algorithm, reader)
                        for sub in ("train", "gridsearch")
                        for flag, reader in (("--batch-size", "batch"), ("--pilot-size", "mssg"))
                        for algorithm in cli.trainer.ALGORITHMS if algorithm != reader]


@pytest.mark.parametrize("sub, flag, algorithm, reader", UNREAD_TRAINER_FLAGS,
                         ids=[f"{s} {f} {a}" for s, f, a, _ in UNREAD_TRAINER_FLAGS])
def test_a_trainer_flag_is_refused_outside_its_algorithm_before_any_read(
        tmp_path, capsys, sub, flag, algorithm, reader):
    # the data directory holds no IDX files, so a read would fail on the dataset instead
    empty = tmp_path / "no-idx-files"
    empty.mkdir()
    out = tmp_path / "run"
    assert run_cli(sub, "--algorithm", algorithm, "--data-dir", empty, flag, 3,
                   "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert f"{flag} needs --algorithm {reader}" in err and "missing" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--reps"])
def test_gradmatrix_refuses_a_zero_count_before_the_split_is_read(tmp_path, capsys, flag):
    # the data directory holds no IDX files, so a read would fail on the dataset instead
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", tmp_path, "--desk", flag, 0,
                   "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert f"{flag} must be at least 1, got 0" in err and "missing" not in err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradmatrix_refuses_a_diverging_descent_before_any_output(
        tmp_path, fixture_data_dir, capsys):
    out = tmp_path / "gm"
    assert run_cli("gradmatrix", "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
                   "--test-per-class", 5, "--iterations", 3, "--alpha", 1e300,
                   "--out-dir", out) == 1
    assert ("full-gradient descent produced non-finite parameters at iteration"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []  # not even a .partial


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_rerun_leaves_no_manifest_of_the_earlier_run(tmp_path, fixture_data_dir, capsys):
    out = tmp_path / "gm"
    argv = ("gradmatrix", "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
            "--test-per-class", 5, "--iterations", 3, "--out-dir", out)
    assert run_cli(*argv) == 0
    assert (out / "manifest.txt").exists()
    assert run_cli(*argv, "--alpha", 1e300) == 1  # the descent diverges
    assert "non-finite parameters" in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()
    assert (out / "grad_matrix.csv").exists()  # the earlier run's outputs stay, unlisted


@pytest.mark.parametrize("argv", [
    ("synthetic", "--family", "normal-random", "--seeds", 2),
    ("variance-oracle", "--random-tuples", 1, "--replications", 10_000),
    ("gradmatrix", "--desk"),
    ("train", "--algorithm", "gst", "--desk"),
    ("gridsearch", "--desk")], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_before_any_read(tmp_path, capsys, argv):
    # the data directory holds no IDX files, so a read would fail on the dataset instead
    empty = tmp_path / "no-idx-files"
    empty.mkdir()
    out = tmp_path / "run"
    data = ("--data-dir", empty) if argv[0] in ("gradmatrix", "train", "gridsearch") else ()
    assert run_cli(*argv, *data, "--seed", -1, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "--seed must be at least 0, got -1" in err and "missing" not in err
    assert list(out.iterdir()) == []


def test_failed_run_marks_partial_outputs(tmp_path, fixture_data_dir, capsys):
    out = tmp_path / "gm"
    # per-class larger than any class: subsample raises after out_dir exists
    assert run_cli("gradmatrix", "--data-dir", fixture_data_dir, "--desk",
                   "--per-class", 10_000, "--out-dir", out) == 1
    capsys.readouterr()
    assert not (out / "manifest.txt").exists()
    leftovers = [p for p in out.iterdir() if not p.name.endswith(".partial")]
    assert leftovers == []


# ---------------------------------------------------------------- train / grid

def test_gst_refuses_an_empty_class_before_training(tmp_path, capsys):
    assert run_cli("train", "--algorithm", "gst", "--data-dir",
                   gapped_data_dir(tmp_path / "data"), "--iterations", 1,
                   "--out-dir", tmp_path / "run") == 1
    assert "class 2 has 0 samples" in capsys.readouterr().err


def test_train_checkpoint_rows(tmp_path, fixture_data_dir):
    out = tmp_path / "tr"
    assert run_cli("train", "--algorithm", "mssg", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 30, "--test-per-class", 10,
                   "--iterations", 4, "--checkpoint-every", 2, "--pilot-size", 4,
                   "--alpha", 0.5, "--seed", 3, "--out-dir", out) == 0
    cols = read_csv_columns(out / "accuracy_mssg.csv")
    assert cols["algorithm"] == ["mssg", "mssg"]
    assert read_floats(out / "accuracy_mssg.csv", "iterations_k") == [0.002, 0.004]
    assert read_floats(out / "accuracy_mssg.csv", "h") == [0.5, 0.5]


@pytest.mark.parametrize("algorithm", ["fullgrad", "sgd", "batch", "gst"])
def test_train_all_algorithms_produce_reports(tmp_path, fixture_data_dir, algorithm):
    out = tmp_path / f"tr_{algorithm}"
    assert run_cli("train", "--algorithm", algorithm, "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5,
                   "--iterations", 3, "--checkpoint-every", 3,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / f"accuracy_{algorithm}.csv")
    assert len(cols["test_accu"]) >= 1
    assert cols["algorithm"] == [algorithm] * len(cols["test_accu"])
    for v in cols["test_accu"]:
        assert 0.0 <= float(v) <= 1.0


def test_gridsearch_cell_runs_the_stretched_sgd_of_train(tmp_path, fixture_data_dir,
                                                        monkeypatch):
    runs = []

    def spy(params, data, config, algorithm, test_data):
        trained, reports, fallbacks = train(params, data, config, algorithm, test_data)
        runs.append((config, trained))
        return trained, reports, fallbacks

    train = cli.trainer.train
    monkeypatch.setattr(cli.trainer, "train", spy)
    desk = ["--algorithm", "sgd", "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
            "--test-per-class", 5, "--seed", 4]
    assert run_cli("train", *desk, "--iterations", 6, "--alpha", 0.5,
                   "--weight-decay", 0.01, "--out-dir", tmp_path / "tr") == 0
    assert run_cli("gridsearch", *desk, "--budget-iterations", 6, "--alphas", "0.5",
                   "--lambdas", "0.01", "--out-dir", tmp_path / "gs") == 0
    final = read_csv_columns(tmp_path / "tr" / "accuracy_sgd.csv")["test_accu"][-1]
    assert read_csv_columns(tmp_path / "gs" / "grid_results.csv")["test_accuracy"] == [final]
    (train_config, train_params), (cell_config, cell_params) = runs
    assert (cell_config.iterations, cell_config.checkpoint_every) == (6, 6)
    assert (cell_config.step_size, cell_config.weight_decay) == (0.5, 0.01)
    assert train_config.iterations == 6
    for got, want in zip(cell_params.weights + cell_params.biases,
                         train_params.weights + train_params.biases):
        assert got.tobytes() == want.tobytes()


def manifest_list(out, key) -> list[str]:
    """The values of a manifest entry that repeats its key, in order."""
    return [line.split("=", 1)[1] for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith(f"{key}=")]


def test_gridsearch_records_each_cells_fallbacks_as_train_does(tmp_path, fixture_data_dir):
    desk = ["--algorithm", "mssg", "--data-dir", fixture_data_dir, "--desk", "--per-class", 20,
            "--test-per-class", 5, "--seed", 4]
    want = []
    for alpha, decay in ((0.5, 0.01), (0.5, 0.0)):
        out = tmp_path / f"tr-{decay}"
        assert run_cli("train", *desk, "--iterations", 3, "--checkpoint-every", 3,
                       "--alpha", alpha, "--weight-decay", decay, "--out-dir", out) == 0
        want += manifest_list(out, "coefficient_fallbacks")
    assert len(want) == len(set(want)) == 2  # the cells' counts differ, so their order shows
    assert run_cli("gridsearch", *desk, "--budget-iterations", 3, "--alphas", "0.5",
                   "--lambdas", "0.01,0", "--out-dir", tmp_path / "gs") == 0
    assert manifest_list(tmp_path / "gs", "coefficient_fallbacks") == want


@pytest.mark.parametrize("algorithm", ["mssg", "gst"])
def test_train_hands_the_trainer_the_train_stream_prefix(tmp_path, fixture_data_dir, monkeypatch,
                                                         algorithm):
    seeds = []

    def spy(params, data, config, *rest):
        seeds.append(config.seed)
        return train(params, data, config, *rest)

    train = cli.trainer.train
    monkeypatch.setattr(cli.trainer, "train", spy)
    assert run_cli("train", "--algorithm", algorithm, "--data-dir", fixture_data_dir, "--desk",
                   "--per-class", 20, "--test-per-class", 5, "--iterations", 2, "--seed", 6,
                   "--out-dir", tmp_path / "tr") == 0
    assert seeds == [(6, cli._TRAIN_STREAM)]


@pytest.mark.parametrize("algorithm", ["sgd", "gst"])
def test_gridsearch_labels_rows_as_train_does(tmp_path, fixture_data_dir, algorithm):
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--algorithm", algorithm, "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5, "--alphas", "0.5,0.1",
                   "--lambdas", "0.01", "--budget-iterations", 2, "--out-dir", out) == 0
    assert read_csv_columns(out / "grid_results.csv")["algorithm"] == [algorithm] * 2
    assert read_csv_columns(out / "grid_best.csv")["algorithm"] == [algorithm]


@pytest.mark.parametrize("flag", ["--alpha", "--weight-decay", "--iterations",
                                  "--checkpoint-every"])
def test_gridsearch_refuses_the_flags_its_grid_replaces(flag, capsys):
    # each cell's step, decay and length come from --alphas, --lambdas and
    # --budget-iterations; --alpha is no abbreviation of --alphas
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gridsearch", flag, "0", "--out-dir", "unused"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_gridsearch_cells_take_step_and_decay_from_the_grid(tmp_path, fixture_data_dir,
                                                            monkeypatch):
    configs = []

    def spy(params, data, config, algorithm, test_data):
        configs.append(config)
        return train(params, data, config, algorithm, test_data)

    train = cli.trainer.train
    monkeypatch.setattr(cli.trainer, "train", spy)
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--algorithm", "gst", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5, "--alphas", "0.5,0.1", "--lambdas", "0,0.01", "--budget-iterations", 3,
                   "--out-dir", out) == 0
    assert [(c.step_size, c.weight_decay, c.iterations, c.checkpoint_every)
            for c in configs] == [(0.5, 0.0, 3, 3), (0.5, 0.01, 3, 3),
                                  (0.1, 0.0, 3, 3), (0.1, 0.01, 3, 3)]
    manifest = (out / "manifest.txt").read_text()
    for key in ("alpha", "weight_decay", "iterations", "checkpoint_every"):
        assert f"config.{key}=" not in manifest


def test_gridsearch_emits_full_table_and_best(tmp_path, fixture_data_dir):
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--algorithm", "batch", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5,
                   "--alphas", "0.01,1,0.001", "--lambdas", "0.001,0.0001",
                   "--budget-iterations", 2, "--out-dir", out) == 0
    table = read_csv_columns(out / "grid_results.csv")
    assert len(table["h"]) == 6
    best = read_csv_columns(out / "grid_best.csv")
    assert len(best["h"]) == 1
    accs = read_floats(out / "grid_results.csv", "test_accuracy")
    assert float(best["test_accuracy"][0]) == max(accs)


def test_gridsearch_single_cell_is_its_own_best(tmp_path, fixture_data_dir):
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--algorithm", "gst", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5, "--alphas", "0.5",
                   "--lambdas", "0.01", "--budget-iterations", 1, "--out-dir", out) == 0
    table = read_csv_columns(out / "grid_results.csv")
    assert table == read_csv_columns(out / "grid_best.csv")
    assert (table["h"], table["lambda"]) == (["0.5"], ["0.01"])


@pytest.mark.parametrize("low_cells, want", [
    ((), (0.001, 0.0001)),  # every cell ties
    (((0.001, 0.0001),), (0.001, 0.001)),  # the smaller step wins over the smaller decay
], ids=["all-tie", "step-first"])
def test_gridsearch_breaks_ties_toward_the_smaller_step_then_decay(
        tmp_path, fixture_data_dir, monkeypatch, low_cells, want):
    def stub(params, train, config, algorithm, test):
        score = 0.25 if (config.step_size, config.weight_decay) in low_cells else 0.5
        return params, [cli.trainer.AccuracyReport(config.iterations, score, score)], 0

    monkeypatch.setattr(cli.trainer, "train", stub)
    out = tmp_path / "gs"
    assert run_cli("gridsearch", "--algorithm", "gst", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5,
                   "--alphas", "1,0.001,0.01", "--lambdas", "0.001,0.0001",
                   "--budget-iterations", 1, "--out-dir", out) == 0
    assert len(read_csv_columns(out / "grid_results.csv")["h"]) == 6
    best = out / "grid_best.csv"
    assert (read_floats(best, "h"), read_floats(best, "lambda")) == ([want[0]], [want[1]])
    assert read_floats(best, "test_accuracy") == [0.5]
    lines = (out / "manifest.txt").read_text().splitlines()
    assert {f"best_h={want[0]}", f"best_lambda={want[1]}"} <= set(lines)


@pytest.mark.parametrize("algorithm", ["mssg", "gst"])
def test_gridsearch_scores_each_cell_at_its_final_checkpoint_only(
        tmp_path, fixture_data_dir, monkeypatch, algorithm):
    scored = []

    def counting(params, data):
        scored.append(data.n_samples)
        return accuracy(params, data)

    accuracy = cli.trainer.accuracy
    monkeypatch.setattr(cli.trainer, "accuracy", counting)
    assert run_cli("gridsearch", "--algorithm", algorithm, "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5, "--alphas", "0.5,0.1",
                   "--lambdas", "0.01,0", "--budget-iterations", 2,
                   "--out-dir", tmp_path / "gs") == 0
    assert scored == [10 * 20, 10 * 5] * 4  # the train split, then the test split, per cell


# ---------------------------------------------------------------- streams

STREAM_RUNS = {
    **{f"train-{algorithm}-desk": ("train", "--algorithm", algorithm, "--desk",
                                   "--iterations", 4) for algorithm in cli.trainer.ALGORITHMS},
    "train-mssg-full": ("train", "--algorithm", "mssg", "--iterations", 2),
    "gradmatrix-desk": ("gradmatrix", "--desk"),
    **{f"synthetic-{family}": ("synthetic", "--family", family, "--seeds", 250)
       for family in ("uniform-dec", "normal-random")},
    # more rounds than any stream tag, which a round index in a stream key would reach
    "synthetic-rounds-7001": ("synthetic", "--family", "normal-mean-inc", "--seeds", 2,
                              "--rounds", 7001),
    "variance-oracle-random-tuples": ("variance-oracle", "--random-tuples", 10, "--strata", 4,
                                      "--replications", 10_000),
}


# gridsearch is left out: its cells re-draw one stream set by design
@pytest.mark.parametrize("argv", STREAM_RUNS.values(), ids=STREAM_RUNS.keys())
def test_no_two_streams_of_a_run_share_seed_words(tmp_path, fixture_data_dir, monkeypatch, argv):
    # every generator's initial PCG64 state, which its seed words set
    states = []

    def recording(seed_sequence):
        bit_generator = np.random.PCG64(seed_sequence)
        state = bit_generator.state["state"]
        states.append((state["state"], state["inc"]))
        return bit_generator

    monkeypatch.setattr(rng, "PCG64", recording)
    data = ("--data-dir", fixture_data_dir) if argv[0] in ("train", "gradmatrix") else ()
    assert run_cli(*argv, *data, "--seed", 3, "--out-dir", tmp_path / "out") == 0
    shared = sum(n > 1 for n in Counter(states).values())
    assert states and not shared, f"{shared} initial states are shared among {len(states)} streams"



def test_mssg_builds_as_many_streams_as_gst(tmp_path, fixture_data_dir, monkeypatch):
    # both stratified trainers draw every iteration from the run's one
    # training stream, so the iteration count adds no generator to either
    built = Counter()
    algorithm = None

    def counting(seed_sequence):
        built[algorithm] += 1
        return np.random.PCG64(seed_sequence)

    monkeypatch.setattr(rng, "PCG64", counting)
    for algorithm in ("gst", "mssg"):
        assert run_cli("train", "--algorithm", algorithm, "--desk", "--per-class", 20,
                       "--test-per-class", 5, "--iterations", 6, "--data-dir",
                       fixture_data_dir, "--seed", 3, "--out-dir", tmp_path / algorithm) == 0
    assert built["mssg"] == built["gst"] > 0, dict(built)


# ---------------------------------------------------------------- scripts

CHILD_USAGE = Path(__file__).resolve().parents[1] / "scripts" / "child_usage.py"


@pytest.mark.parametrize("argv, status", [
    (("synthetic", "--family", "normal-random", "--seeds", "2", "--rounds", "3"), 0),
    (("synthetic", "--seeds", "2"), 2)], ids=["ok", "argparse-error"])
def test_child_usage_reports_the_child_and_exits_with_its_status(tmp_path, argv, status):
    argv = (*argv, "--out-dir", str(tmp_path / "out"))
    done = subprocess.run([sys.executable, str(CHILD_USAGE), *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == status
    head, _, usage = done.stdout.strip().rpartition(": ")
    assert head == "stratgrad " + " ".join(argv)
    seconds, _, rss = usage.partition(" s, ru_maxrss ")
    assert float(seconds) > 0 and int(rss.removesuffix(" kB")) > 0
    assert (tmp_path / "out" / "manifest.txt").exists() == (status == 0)
