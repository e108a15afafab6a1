"""Self-tests for the benchmark's own arithmetic, checks and failure accounting.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads


def test_self_time_of_a_toy_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("toy.inner", lambda: None)
    outer = t.wrap("toy.outer", lambda: (inner(), inner()))
    outer()
    stats = t.stats()
    assert stats["toy.outer"] == tracer.FunctionStats(1, 10.0, 5.0)
    assert stats["toy.inner"] == tracer.FunctionStats(2, 5.0, 5.0)


def test_install_patches_by_name_imports_and_reports_absent_functions(monkeypatch):
    def spawn_rng():
        return "rng"

    pkg = types.ModuleType("toypkg")
    rng = types.ModuleType("toypkg.rng")
    rng.spawn_rng = spawn_rng
    cli = types.ModuleType("toypkg.cli")
    cli.spawn_rng = spawn_rng  # as `from .rng import spawn_rng` leaves it
    for name, module in (("toypkg", pkg), ("toypkg.rng", rng), ("toypkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, module)

    t = tracer.Tracer(package="toypkg")
    t.install({"rng": ("spawn_rng",), "cli": ("moved_away",)})
    assert rng.spawn_rng is not spawn_rng and cli.spawn_rng is rng.spawn_rng
    assert cli.spawn_rng() == "rng"
    assert t.absent == ["cli.moved_away"]
    t.uninstall()
    assert rng.spawn_rng is spawn_rng and cli.spawn_rng is spawn_rng
    assert t.stats()["rng.spawn_rng"].calls == 1


def _write_outputs(out: Path, files: dict[str, str]) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    (out / "manifest.txt").write_text(
        "".join(f"output={out / name}\n" for name in files))
    return out


def _summary(gmst: str, gst: str) -> str:
    return ("estimator,mean_sq_dev,std_sq_dev,n_rounds,n_seeds\n"
            f"gmst,{gmst},1,2,1\ngst,{gst},1,2,1\nbatch,0.5,1,2,1\nsgd,0.9,1,2,1\n")


def _grad_matrix(rows: int, iterations: int) -> list[str]:
    lines = ["sample,iteration,grad"]
    lines += [f"{i},{t},{0.001 * (i + t)!r}" for i in range(rows) for t in range(iterations)]
    return lines


def test_gradmatrix_check_accepts_complete_outputs(tmp_path):
    out = _write_outputs(tmp_path, {"grad_matrix.csv": "\n".join(_grad_matrix(3, 2)) + "\n",
                                    "deviation_summary.csv": _summary("0.1", "0.2")})
    assert workloads.check_gradmatrix(out, 3, 2) == []


def test_gradmatrix_check_rejects_a_truncated_csv(tmp_path):
    lines = _grad_matrix(3, 2)
    text = "\n".join(lines[:-1]) + "\n" + lines[-1][:3]  # cut mid-row
    out = _write_outputs(tmp_path, {"grad_matrix.csv": text,
                                    "deviation_summary.csv": _summary("0.1", "0.2")})
    assert workloads.check_gradmatrix(out, 3, 2)
    out = _write_outputs(tmp_path, {"grad_matrix.csv": "\n".join(lines[:-1]) + "\n",
                                    "deviation_summary.csv": _summary("0.1", "0.2")})
    assert any("5 data rows, want 6" in p for p in workloads.check_gradmatrix(out, 3, 2))


def test_gradmatrix_check_rejects_a_nan_cell(tmp_path):
    lines = _grad_matrix(3, 2)
    lines[4] = "1,1,nan"
    out = _write_outputs(tmp_path, {"grad_matrix.csv": "\n".join(lines) + "\n",
                                    "deviation_summary.csv": _summary("0.1", "0.2")})
    assert any("not finite" in p for p in workloads.check_gradmatrix(out, 3, 2))
    out = _write_outputs(tmp_path, {"grad_matrix.csv": "\n".join(_grad_matrix(3, 2)) + "\n",
                                    "deviation_summary.csv": _summary("nan", "0.2")})
    assert any("mean_sq_dev" in p for p in workloads.check_gradmatrix(out, 3, 2))


def _synthetic_outputs(tmp_path: Path, gmst: str, gst: str) -> Path:
    traces = "estimator,seed,round,estimate,truth,sq_dev\n" + "gmst,0,1,1,1,0\n" * 8
    return _write_outputs(tmp_path, {"fam_traces.csv": traces,
                                     "fam_summary.csv": _summary(gmst, gst)})


def test_synthetic_check_requires_gmst_to_beat_gst(tmp_path):
    assert workloads.check_synthetic(_synthetic_outputs(tmp_path, "0.1", "0.2"), "fam", 1, 2) == []
    problems = workloads.check_synthetic(_synthetic_outputs(tmp_path, "0.2", "0.2"), "fam", 1, 2)
    assert any("does not beat gst" in p for p in problems)


def test_train_check_counts_checkpoint_rows(tmp_path):
    csv = ("iterations_k,algorithm,test_accu,train_accu,h,lambda,seed\n"
           "0.002,mssg,0.5,0.6,0.2,0.001,0\n0.003,mssg,0.5,1.5,0.2,0.001,0\n")
    out = _write_outputs(tmp_path, {"accuracy_mssg.csv": csv})
    assert workloads.check_train(out, "mssg", 3, 2) == ["accuracy_mssg.csv: accuracy outside [0, 1]"]
    assert any("checkpoints" in p for p in workloads.check_train(out, "mssg", 4, 2))


def test_nonzero_exit_and_timeout_count_as_failed_operations(tmp_path):
    ledger = run.Ledger()
    for code in ("pass", "raise SystemExit(3)"):
        log = tmp_path / "child.log"
        res = run.run_child([sys.executable, "-c", code], log)
        ledger.record("child", run.child_problems(res, log))
    res = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], log, timeout=0.5)
    assert res.timed_out and res.wall_s < 10
    ledger.record("child", run.child_problems(res, log))
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.failed_share == pytest.approx(2 / 3)
    assert any("exit status 3" in p for p in ledger.problems)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
