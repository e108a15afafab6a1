"""stratgrad benchmark: seeded workloads driven through the public CLI.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it sets the workload up several times (seeded inputs
plus one untimed warm-up invocation each), then runs the workload's CLI
invocations as child processes, one at a time, for ``--seconds`` seconds,
and reports medians over those repeats. With ``--trace 1`` it instead runs
the same invocations in this process, alternating untraced and traced
passes, and reports the per-function breakdown from the spans.

Every invocation's outputs are checked; a nonzero exit, a timeout, a missing
declared output, a failed check or output bytes that differ between repeats
count as a failed operation. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give per-workload metrics by name, the environment and the trace breakdown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 5             # set-ups per untraced run; setup_s is their median
MIN_REPEATS = 2        # the byte-identity check needs two repeats of each call
INVOCATION_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0   # stop starting work past this, well inside the 180 s limit
IMPORT_PROBES = 3

# Metrics in the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = {"experiment_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
DERIVED = {
    "trainer.mssg_over_gst": "ratio",
    "mlp.per_sample_grads.samples": "count",
    "mlp.per_sample_grads.bytes_out": "bytes",
    "mlp.loss_and_grad.samples": "count",
    "mlp.record_weight_gradient.cells": "count",
    "estimators.optimal_coefficients_elementwise.elements": "count",
    "estimators.optimal_coefficients_elementwise.fallbacks": "count",
    "estimators.fallback_share": "fraction",
    "estimators.gmst_fallback_share": "fraction",
    "dataio.write_csv.rows": "count",
    "dataio.write_csv.bytes": "bytes",
    "dataio.write_csv.us_per_row": "us/row",
    "cli.import_s": "s",
    "trace.overhead_share": "fraction",
}
PER_FUNCTION = {"calls": "count", "busy_share": "fraction", "self_share": "fraction"}
NO_CALLS = tracer.FunctionStats(0, 0.0, 0.0)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": unit for name in tracer.QUALIFIED
             for stat, unit in PER_FUNCTION.items()}
    units.update(DERIVED)
    return units


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


# ---- child processes --------------------------------------------------------

@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    status: int  # exit code, or -signal
    timed_out: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd: list[str], log: Path, timeout: float = INVOCATION_TIMEOUT_S) -> ChildResult:
    """Run `cmd` to completion; wall time and peak RSS come from its own wait4."""
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return ChildResult(wall, usage.ru_maxrss / 1024.0, proc.returncode, state["killed"])


def cli_command(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "stratgrad", *argv]


# ---- accounting -------------------------------------------------------------

@dataclass
class Ledger:
    """Invocations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def same_bytes(self, kind: str, digest: str) -> list[str]:
        first = self.digests.setdefault(kind, digest)
        return [] if first == digest else ["outputs differ from the first repeat"]

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def child_problems(res: ChildResult, log: Path) -> list[str]:
    if res.timed_out:
        return [f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"]
    if res.status != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.exists() else []
        return [f"exit status {res.status}" + (f" ({tail[0]})" if tail else "")]
    return []


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---- guard and environment ----------------------------------------------------

def import_probe() -> tuple[float, str]:
    """Seconds a fresh interpreter takes to import stratgrad.cli, and its file."""
    code = ("import time; t = time.perf_counter(); import stratgrad.cli as c; "
            "print(time.perf_counter() - t); print(c.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"cannot import stratgrad.cli from {SRC}: {proc.stderr.strip()}")
    seconds, origin = proc.stdout.split("\n")[:2]
    return float(seconds), origin


def check_checkout() -> None:
    """Refuse to measure any stratgrad but this checkout's ``src/``.

    The package is not installed into site-packages here; a stale install
    found first would otherwise be measured without any error.
    """
    if not (SRC / "stratgrad" / "cli.py").is_file():
        raise SetupError(f"{SRC / 'stratgrad'} is missing; run from a full checkout")
    _, origin = import_probe()
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"stratgrad resolves to {origin}, not to {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# ---- set-up -------------------------------------------------------------------

def set_up(w: workloads.Workload, base: Path, seed: int, ledger: Ledger) -> float:
    """Write the seeded inputs and make one untimed warm-up invocation.

    The warm-up pays interpreter start-up, imports and the IDX page-cache
    fill, so the timed repeats do not. Returns the seconds both took.
    """
    t0 = time.perf_counter()
    data = fresh_dir(base / "inputs")
    if w.data_per_class:
        workloads.write_digit_dir(data, *w.data_per_class, seed)
    out = fresh_dir(base / "out" / "warmup")
    log = base / "warmup.log"
    res = run_child(cli_command(w.warmup + ("--seed", str(seed), "--out-dir", str(out))), log)
    ledger.record("warm-up", child_problems(res, log))
    return time.perf_counter() - t0


# ---- untraced run ---------------------------------------------------------------

def timed_repeats(w: workloads.Workload, base: Path, seed: int, seconds: float,
                  started: float, ledger: Ledger) -> list[dict[str, ChildResult]]:
    """Run the workload's invocations, in order, until `seconds` are spent."""
    repeats: list[dict[str, ChildResult]] = []
    durations: list[float] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        repeat = {}
        for inv in w.invocations:
            out = fresh_dir(base / "out" / inv.kind)
            log = base / f"{inv.kind}.log"
            argv = inv.argv + ("--seed", str(seed), "--out-dir", str(out))
            res = run_child(cli_command(argv), log)
            problems = child_problems(res, log)
            if not problems:
                problems = inv.check(out) or ledger.same_bytes(inv.kind,
                                                               workloads.output_digest(out))
            ledger.record(inv.kind, problems)
            repeat[inv.kind] = res
        repeats.append(repeat)
        durations.append(time.perf_counter() - r0)
        now = time.perf_counter()
        expected = statistics.median(durations)
        if len(repeats) >= MIN_REPEATS and now + expected > t0 + seconds:
            break
        if now + expected > started + RUN_BUDGET_S:
            break
    return repeats


def named_metrics(w: workloads.Workload, repeats) -> dict[str, tuple[float, str, list[float]]]:
    units = {inv.kind: inv.units for inv in w.invocations}
    out = {}
    for m in w.metrics:
        samples = []
        for rep in repeats:
            wall = sum(rep[k].wall_s for k in m.kinds)
            work = sum(units[k] for k in m.kinds)
            samples.append(work / wall if m.rate else wall / work)
        out[m.name] = (statistics.median(samples), m.unit, samples)
    return out


def untraced(w: workloads.Workload, seed: int, seconds: float, started: float, base: Path):
    ledger = Ledger()
    setups = [set_up(w, base, seed, ledger) for _ in range(SETUPS)]
    repeats = timed_repeats(w, base, seed, seconds, started, ledger)
    walls = [sum(r.wall_s for r in rep.values()) for rep in repeats]
    metrics = {
        "experiment_s": statistics.median(walls),
        "peak_rss_mb": max(r.peak_rss_mb for rep in repeats for r in rep.values()),
        "setup_s": statistics.median(setups),
    }
    lines = [f"workload {w.name}: seed {seed}, {len(repeats)} repeats, "
             f"{ledger.attempted} invocations, {ledger.failed} failed"]
    named = named_metrics(w, repeats)
    for name, (value, unit, samples) in named.items():
        lines.append(f"  {name:<26} {value:>14.6g} {unit:<8} median of {len(samples)}; "
                     f"min {min(samples):.6g}, max {max(samples):.6g}")
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<26} {metrics[name]:>14.6g} {unit}")
    lines.append(f"  {'ops_failed_share':<26} {ledger.failed_share:>14.6g} fraction "
                 f"({ledger.failed} of {ledger.attempted})")
    details = {"samples": {name: samples for name, (_, _, samples) in named.items()},
               "setups_s": setups}
    return ledger, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines, details


# ---- traced run -------------------------------------------------------------------

def in_process_pass(cli, w, base: Path, seed: int, tag: str, ledger: Ledger) -> dict[str, float]:
    """Each invocation once through ``stratgrad.cli.main``; wall time per kind."""
    walls = {}
    for inv in w.invocations:
        out = fresh_dir(base / "out" / f"{tag}-{inv.kind}")
        argv = list(inv.argv) + ["--seed", str(seed), "--out-dir", str(out)]
        t0 = time.perf_counter()
        status = cli.main(argv)
        walls[inv.kind] = time.perf_counter() - t0
        problems = [f"exit status {status}"] if status != 0 else []
        if not problems:
            problems = inv.check(out) or ledger.same_bytes(inv.kind, workloads.output_digest(out))
        ledger.record(f"{tag} {inv.kind}", problems)
    return walls


def traced(w: workloads.Workload, seed: int, seconds: float, started: float, base: Path):
    ledger = Ledger()
    set_up(w, base, seed, ledger)
    import_s = statistics.median(import_probe()[0] for _ in range(IMPORT_PROBES))
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("stratgrad.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"stratgrad resolves to {cli.__file__}, not to {SRC}")

    trace = tracer.Tracer()
    plain, traced_walls = [], []
    gmst_fallbacks = 0.0

    def traced_pass():
        nonlocal gmst_fallbacks
        trace.install()
        try:
            traced_walls.append(in_process_pass(cli, w, base, seed, "traced", ledger))
        finally:
            trace.uninstall()
        gmst_fallbacks += manifest_total(base / "out", "gmst_fallbacks")

    t0 = time.perf_counter()
    while True:
        # alternate the order (untraced first, then traced first) so that
        # in-process warm-up does not count as tracing overhead or saving
        if len(plain) % 2 == 0:
            plain.append(in_process_pass(cli, w, base, seed, "untraced", ledger))
            traced_pass()
        else:
            traced_pass()
            plain.append(in_process_pass(cli, w, base, seed, "untraced", ledger))
        now = time.perf_counter()
        cycle = (now - t0) / len(plain)
        if now + cycle > min(t0 + seconds, started + RUN_BUDGET_S):
            break
    passes = len(traced_walls)
    trace.write_spans(base / "spans.csv")

    stats = trace.stats()
    total = sum(s.self_s for s in stats.values())  # every traced second, exactly once
    metrics: dict[str, float] = {}
    for name in tracer.QUALIFIED:
        s = stats.get(name, NO_CALLS)
        metrics[f"{name}.calls"] = s.calls / passes
        metrics[f"{name}.busy_share"] = s.busy_s / total
        metrics[f"{name}.self_share"] = s.self_s / total
    c = trace.counters
    for key in ("mlp.per_sample_grads.samples", "mlp.per_sample_grads.bytes_out",
                "mlp.loss_and_grad.samples", "mlp.record_weight_gradient.cells",
                "estimators.optimal_coefficients_elementwise.elements",
                "estimators.optimal_coefficients_elementwise.fallbacks",
                "dataio.write_csv.rows", "dataio.write_csv.bytes"):
        metrics[key] = c[key] / passes
    elements = c["estimators.optimal_coefficients_elementwise.elements"]
    metrics["estimators.fallback_share"] = (
        c["estimators.optimal_coefficients_elementwise.fallbacks"] / elements if elements else 0.0)
    decisions = c["estimators.gmst_step.decisions"]
    metrics["estimators.gmst_fallback_share"] = (
        gmst_fallbacks / decisions if decisions else 0.0)
    csv_s = stats.get("dataio.write_csv", NO_CALLS).busy_s
    metrics["dataio.write_csv.us_per_row"] = (
        1e6 * csv_s / c["dataio.write_csv.rows"] if c["dataio.write_csv.rows"] else 0.0)
    metrics["cli.import_s"] = import_s

    iterations = {inv.kind: inv.units for inv in w.invocations}

    def per_iter(kind):
        return statistics.median(p[kind] for p in plain) / iterations[kind]

    metrics["trainer.mssg_over_gst"] = (
        per_iter("mssg_full") / per_iter("gst_full") if w.name == "train" else 0.0)
    plain_s = statistics.median(sum(p.values()) for p in plain)
    traced_s = statistics.median(sum(p.values()) for p in traced_walls)
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s

    lines = [f"workload {w.name} (traced): seed {seed}, {passes} traced and {len(plain)} "
             f"untraced passes, {ledger.attempted} invocations, {ledger.failed} failed",
             f"  {'function':<46} {'calls':>10} {'busy_s':>10} {'self_s':>10} {'self%':>6}"]
    for name in sorted(tracer.QUALIFIED, key=lambda n: -stats.get(n, NO_CALLS).self_s):
        if name in trace.absent:
            lines.append(f"  {name:<46} absent")
            continue
        s = stats.get(name, NO_CALLS)
        lines.append(f"  {name:<46} {s.calls / passes:>10.0f} {s.busy_s / passes:>10.4f} "
                     f"{s.self_s / passes:>10.4f} {100 * s.self_s / total:>6.1f}")
    for key, unit in DERIVED.items():
        lines.append(f"  {key:<54} {metrics[key]:>14.6g} {unit}")
    for err in trace.hook_errors[:5]:
        lines.append(f"  counter hook failed: {err}")
    details = {"absent": trace.absent, "hook_errors": trace.hook_errors,
               "per_pass": {n: {"calls": s.calls / passes, "busy_s": s.busy_s / passes,
                                "self_s": s.self_s / passes} for n, s in stats.items()}}
    units = per_layer_units()
    return ledger, {k: (v, units[k]) for k, v in metrics.items()}, lines, details


def manifest_total(out_root: Path, key: str) -> float:
    """Sum of ``key=`` entries over the traced pass's run manifests."""
    total = 0.0
    for manifest in out_root.glob("traced-*/manifest.txt"):
        for line in manifest.read_text().splitlines():
            if line.startswith(key + "="):
                total += float(line.split("=", 1)[1])
    return total


# ---- entry point --------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=float, required=True, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced in-process run reporting per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    w = workloads.build(args.workload, WORK / args.workload / "inputs")
    run = traced if args.trace else untraced
    try:
        check_checkout()
        ledger, metrics, lines, details = run(w, args.seed, args.seconds, started,
                                              fresh_dir(WORK / args.workload))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    base = WORK / args.workload
    env = environment()
    lines.append("env " + json.dumps(env, sort_keys=True))
    for problem in ledger.problems[:20]:
        lines.append(f"FAILED {problem}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (base / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "problems": ledger.problems, "details": details, "result": result}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
