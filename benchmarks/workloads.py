"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

Every workload drives the public ``stratgrad`` CLI. Inputs come from the
workload seed alone and are written by this file's own generator, never by
the test suite's fixtures, so test edits cannot change what is measured.

Why each workload exists (the per-layer predictions live in README.md):

* ``train`` -- the trainers. At ``FULL_SHAPE`` the ``mssg`` per-class state
  (about 180 MB) exceeds every cache, so time follows bytes moved and FLOPs;
  at desk shape the state fits in cache and the 80 small kernel calls per
  iteration make Python dispatch dominate. ``gst`` at full shape is the
  memoryless baseline the ``mssg`` cost is quoted against.
* ``gradmatrix`` -- full-batch ``loss_and_grad``, ``record_weight_gradient``
  and ``write_csv`` over a matrix of hundreds of thousands of cells. The
  ``mssg`` trainer is bypassed, so trainer changes should not move it.
* ``synthetic`` -- the paper's synthetic race (10 rounds x 40 values per
  seed) on two drift families. No ``mlp`` or ``trainer``; the work is in
  ``population``, ``rng.spawn_rng`` and the *scalar* estimator path.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SIDE = 28
N_CLASSES = 10

# train: one MNIST-shaped directory; three invocations on it.
TRAIN_PER_CLASS, TEST_PER_CLASS = 500, 100
MSSG_FULL_ITERS, MSSG_FULL_EVERY = 3, 2
GST_FULL_ITERS, GST_FULL_EVERY = 20, 10
MSSG_DESK_ITERS, MSSG_DESK_EVERY = 20, 10
DESK_PER_CLASS, DESK_TEST_PER_CLASS = 200, 50

# gradmatrix: 10 x 1000 rows x 30 iterations = 300,000 recorded cells.
GRAD_PER_CLASS, GRAD_ITERS = 1000, 30

# synthetic: the paper's per-seed sizes, two drift families. 250 seeds rather
# than the paper's 1000 per invocation, so that a run holds about ten repeats
# and their median damps the machine's invocation-to-invocation noise.
SYN_FAMILIES = ("uniform-dec", "normal-mean-inc")
SYN_SEEDS, SYN_ROUNDS, SYN_PER_ROUND = 250, 10, 40

ESTIMATORS = ("gmst", "gst", "batch", "sgd")


@dataclass(frozen=True)
class Invocation:
    """One CLI call; the runner appends ``--seed`` and ``--out-dir``."""

    kind: str
    argv: tuple[str, ...]
    units: float  # work done by one call, in the unit its metric counts
    check: Callable[[Path], list[str]]  # output problems found in the out-dir


@dataclass(frozen=True)
class NamedMetric:
    """An end-to-end figure from the untraced repeats, under its own name.

    Per repeat, ``rate`` metrics are units over wall time of ``kinds`` and the
    others wall time over units; the reported value is the median over repeats.
    """

    name: str
    unit: str
    kinds: tuple[str, ...]
    rate: bool


@dataclass(frozen=True)
class Workload:
    name: str
    data_per_class: Optional[tuple[int, int]]  # (train, test) images per class, if any
    warmup: tuple[str, ...]
    invocations: tuple[Invocation, ...]
    metrics: tuple[NamedMetric, ...]


# ---- inputs -----------------------------------------------------------------

def _templates(rng) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    out = np.zeros((N_CLASSES, SIDE, SIDE))
    for t in out:
        for _ in range(3):
            cy, cx = rng.uniform(5, SIDE - 5, size=2)
            spread = rng.uniform(2.0, 4.5)
            t += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread * spread))
        t *= 220.0 / t.max()
    return out


def write_digit_dir(path: Path, train_per_class: int, test_per_class: int, seed: int) -> None:
    """Seeded MNIST-shaped IDX files: 10 classes of 28x28 uint8 blob images."""
    rng = np.random.default_rng([seed, 0x5EED])
    templates = _templates(rng)
    path.mkdir(parents=True, exist_ok=True)
    for stem, per_class in (("train", train_per_class), ("t10k", test_per_class)):
        labels = rng.permutation(np.repeat(np.arange(N_CLASSES), per_class)).astype(np.uint8)
        bright = rng.uniform(0.8, 1.2, labels.size)[:, None, None]
        noise = rng.normal(0.0, 12.0, (labels.size, SIDE, SIDE))
        images = np.clip(templates[labels] * bright + noise, 0, 255).astype(np.uint8)
        (path / f"{stem}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, labels.size, SIDE, SIDE) + images.tobytes())
        (path / f"{stem}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())


# ---- output checks ----------------------------------------------------------
# Each returns a list of problems; empty means the outputs are correct.

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header, rows, name) -> list[str]:
    i = header.index(name)
    return [r[i] if len(r) > i else "" for r in rows]


def _floats(cells) -> np.ndarray:
    """Cells as float64; a cell that does not parse becomes NaN."""
    out = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            out[i] = float(cell)
        except ValueError:
            out[i] = math.nan
    return out


def declared_outputs(out_dir: Path) -> tuple[list[Path], list[str]]:
    """The outputs the run manifest lists, and problems with any of them."""
    manifest = out_dir / "manifest.txt"
    if not manifest.exists():
        return [], [f"{manifest.name} missing"]
    outputs = [Path(line[len("output="):]) for line in manifest.read_text().splitlines()
               if line.startswith("output=")]
    problems = [f"declared output {p.name} missing" for p in outputs if not p.exists()]
    if not outputs:
        problems.append("manifest declares no outputs")
    return outputs, problems


def check_train(out_dir: Path, algorithm: str, iterations: int, every: int) -> list[str]:
    _, problems = declared_outputs(out_dir)
    path = out_dir / f"accuracy_{algorithm}.csv"
    if not path.exists():
        return problems + [f"{path.name} missing"]
    header, rows = read_csv(path)
    want = sorted({k for k in range(every, iterations + 1, every)} | {iterations})
    try:
        got = _floats(_column(header, rows, "iterations_k")) * 1000.0
        acc = np.concatenate([_floats(_column(header, rows, c))
                              for c in ("train_accu", "test_accu")])
    except ValueError as exc:
        return problems + [f"{path.name}: {exc}"]
    if got.size != len(want) or not np.allclose(got, want):
        problems.append(f"{path.name}: checkpoints at {got.tolist()}, want {want}")
    if not (np.all(np.isfinite(acc)) and np.all((acc >= 0.0) & (acc <= 1.0))):
        problems.append(f"{path.name}: accuracy outside [0, 1]")
    return problems


def _check_summary(path: Path) -> tuple[dict[str, float], list[str]]:
    if not path.exists():
        return {}, [f"{path.name} missing"]
    header, rows = read_csv(path)
    try:
        names = _column(header, rows, "estimator")
        devs = _floats(_column(header, rows, "mean_sq_dev"))
    except ValueError as exc:
        return {}, [f"{path.name}: {exc}"]
    problems = []
    if sorted(names) != sorted(ESTIMATORS):
        problems.append(f"{path.name}: estimators {names}, want {list(ESTIMATORS)}")
    if not (np.all(np.isfinite(devs)) and np.all(devs >= 0.0)):
        problems.append(f"{path.name}: mean_sq_dev not finite and non-negative")
    return dict(zip(names, devs.tolist())), problems


def check_gradmatrix(out_dir: Path, rows: int, iterations: int) -> list[str]:
    _, problems = declared_outputs(out_dir)
    path = out_dir / "grad_matrix.csv"
    if not path.exists():
        return problems + [f"{path.name} missing"]
    header, data = read_csv(path)
    if header != ["sample", "iteration", "grad"]:
        problems.append(f"{path.name}: header {header}")
    elif len(data) != rows * iterations:
        problems.append(f"{path.name}: {len(data)} data rows, want {rows * iterations}")
    elif any(len(r) != 3 for r in data) or \
            not np.all(np.isfinite(_floats(_column(header, data, "grad")))):
        problems.append(f"{path.name}: a row is short or a gradient is not finite")
    problems += _check_summary(out_dir / "deviation_summary.csv")[1]
    return problems


def check_synthetic(out_dir: Path, family: str, seeds: int, rounds: int) -> list[str]:
    _, problems = declared_outputs(out_dir)
    traces = out_dir / f"{family}_traces.csv"
    if not traces.exists():
        problems.append(f"{traces.name} missing")
    else:
        _, data = read_csv(traces)
        want = len(ESTIMATORS) * seeds * rounds
        if len(data) != want:
            problems.append(f"{traces.name}: {len(data)} data rows, want {want}")
    summary, more = _check_summary(out_dir / f"{family}_summary.csv")
    problems += more
    if not more and not summary["gmst"] < summary["gst"]:
        problems.append(f"{family}: gmst mean_sq_dev {summary['gmst']!r} does not beat "
                        f"gst {summary['gst']!r}")
    return problems


def output_digest(out_dir: Path) -> str:
    """One hash over every declared output; the manifest itself holds wall time."""
    outputs, _ = declared_outputs(out_dir)
    h = hashlib.sha256()
    for p in sorted(outputs):
        h.update(p.name.encode())
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


# ---- the workloads -----------------------------------------------------------

def _train(kind: str, algorithm: str, iterations: int, every: int, *flags: str) -> Invocation:
    argv = ("train", "--algorithm", algorithm, *flags, "--iterations", str(iterations),
            "--checkpoint-every", str(every))
    return Invocation(kind, argv, iterations,
                      lambda o: check_train(o, algorithm, iterations, every))


def build(name: str, data_dir: Path) -> Workload:
    d = ("--data-dir", str(data_dir))
    if name == "train":
        desk = ("--desk", "--per-class", str(DESK_PER_CLASS),
                "--test-per-class", str(DESK_TEST_PER_CLASS))
        kinds = (_train("mssg_full", "mssg", MSSG_FULL_ITERS, MSSG_FULL_EVERY, *d),
                 _train("gst_full", "gst", GST_FULL_ITERS, GST_FULL_EVERY, *d),
                 _train("mssg_desk", "mssg", MSSG_DESK_ITERS, MSSG_DESK_EVERY, *desk, *d))
        return Workload(
            name, (TRAIN_PER_CLASS, TEST_PER_CLASS),
            ("train", "--algorithm", "gst", "--iterations", "1") + d, kinds,
            tuple(NamedMetric(f"{inv.kind}_s_per_iter", "s/iter", (inv.kind,), False)
                  for inv in kinds))
    if name == "gradmatrix":
        grad = ("gradmatrix", "--desk", "--per-class", str(GRAD_PER_CLASS),
                "--test-per-class", str(DESK_TEST_PER_CLASS)) + d
        rows = N_CLASSES * GRAD_PER_CLASS
        return Workload(
            name, (GRAD_PER_CLASS, TEST_PER_CLASS), grad + ("--iterations", "1"),
            (Invocation("gradmatrix", grad + ("--iterations", str(GRAD_ITERS)),
                        rows * GRAD_ITERS, lambda o: check_gradmatrix(o, rows, GRAD_ITERS)),),
            (NamedMetric("gradmatrix_cells_per_s", "cells/s", ("gradmatrix",), True),))
    if name == "synthetic":
        sizes = ("--seeds", str(SYN_SEEDS), "--rounds", str(SYN_ROUNDS),
                 "--n-per-round", str(SYN_PER_ROUND))
        return Workload(
            name, None, ("synthetic", "--family", SYN_FAMILIES[0], "--seeds", "1"),
            tuple(Invocation(f, ("synthetic", "--family", f) + sizes, SYN_SEEDS,
                             lambda o, f=f: check_synthetic(o, f, SYN_SEEDS, SYN_ROUNDS))
                  for f in SYN_FAMILIES),
            (NamedMetric("synthetic_seeds_per_s", "seeds/s", SYN_FAMILIES, True),))
    raise KeyError(name)


NAMES = ("train", "gradmatrix", "synthetic")

