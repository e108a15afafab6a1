import numpy as np
import pytest

from stratgrad.cli import build_parser, main
from stratgrad.dataio import read_csv_columns


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


def test_variance_oracle_rejects_thin_replications(tmp_path, capsys):
    assert run_cli("variance-oracle", "--replications", 100,
                   "--out-dir", tmp_path / "vo") == 1
    assert "replications" in capsys.readouterr().err


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


def test_gradmatrix_requires_data(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MNIST_DIR", raising=False)
    assert run_cli("gradmatrix", "--desk", "--out-dir", tmp_path / "gm") == 1
    assert "data" in capsys.readouterr().err.lower()


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


def test_train_sgd_multiplier_reported(tmp_path, fixture_data_dir):
    out = tmp_path / "tr20"
    assert run_cli("train", "--algorithm", "sgd", "--data-dir", fixture_data_dir,
                   "--desk", "--per-class", 20, "--test-per-class", 5,
                   "--iterations", 2, "--checkpoint-every", 2, "--sgd-multiplier", 20,
                   "--out-dir", out) == 0
    cols = read_csv_columns(out / "accuracy_sgd.csv")
    assert cols["algorithm"] == ["sgd(x20)"]
    assert read_floats(out / "accuracy_sgd.csv", "iterations_k") == [0.04]


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
