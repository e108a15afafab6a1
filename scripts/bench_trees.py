"""Time a densely checkpointed full-shape `train --algorithm gst` in one or
more checkouts, alternating the trees, and write the end-to-end half of a
BENCH file as JSON:

    python scripts/bench_trees.py --out BENCH.json PARENT_TREE CHANGE_TREE

Every run is a child, started as scripts/child_usage.py starts one, from
the package under the tree's own src/; this script imports only the
standard library, so the child's peak RSS is its own. All trees read one
IDX fixture, which a child writes with this tree's tests/idxtools.py
(numpy). One untimed run per tree warms the file cache first; then round
r runs every tree once, in the given order for even r and reversed for odd
r. Per tree the JSON gives the median and quartiles of
wall time and of peak RSS, every run, and the rounds it beat the first
tree; it also records the machine: cores, the thread variables, and the
BLAS, numpy and SIMD entries of the first run's manifest. `--fast` runs a
desk-shape run of a few iterations twice per tree, for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from child_usage import run_child

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MANIFEST_ENV = ("env.numpy", "env.blas", "env.blas_core", "env.simd", "env.machine")

# (train rows per class, test rows per class, train flags): the benchmark's
# 5,000 + 1,000 rows at FULL_SHAPE, scored on both splits at 20 checkpoints
FULL = (500, 100, ("--iterations", "40", "--checkpoint-every", "2"))
FAST = (20, 5, ("--desk", "--per-class", "20", "--test-per-class", "5",
                "--iterations", "4", "--checkpoint-every", "2"))


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _commit(tree: Path) -> dict:
    def git(*argv):
        done = subprocess.run(["git", "-C", str(tree), *argv], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "uncommitted_changes": bool(status) if status is not None else None}


def _manifest_env(out_dir: Path) -> dict:
    entries = dict(line.split("=", 1)
                   for line in (out_dir / "manifest.txt").read_text().splitlines())
    return {key: entries.get(key, "unknown") for key in MANIFEST_ENV}


def bench(trees: list[Path], runs: int, fast: bool, work: Path) -> dict:
    per_class, test_per_class, flags = FAST if fast else FULL
    data = work / "data"
    subprocess.run([sys.executable, "-c", "import sys; from pathlib import Path; "
                    "from idxtools import write_mnist_style_dir; "
                    "write_mnist_style_dir(Path(sys.argv[1]), *map(int, sys.argv[2:]))",
                    str(data), str(per_class), str(test_per_class)],
                   check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "tests")))
    argv = ["train", "--algorithm", "gst", *flags, "--data-dir", str(data)]
    walls = [[] for _ in trees]
    rss = [[] for _ in trees]
    order = list(range(len(trees)))
    # the warm-up round, then the timed ones
    for r in range(-1, runs):
        for t in order if r % 2 == 0 else order[::-1]:
            out = work / f"out{t}"
            seconds, maxrss_kb, code = run_child(trees[t] / "src", [*argv, "--out-dir", str(out)])
            if code != 0:
                raise RuntimeError(f"{trees[t]}: stratgrad {' '.join(argv)} exited {code}")
            if r >= 0:
                walls[t].append(seconds)
                rss[t].append(maxrss_kb / 1024)
    return {
        "workload": {
            "argv": ["train", "--algorithm", "gst", *flags],
            "shape": "DESK_SHAPE" if fast else "FULL_SHAPE",
            "rows_per_class": {"train": per_class, "test": test_per_class},
            "runs_per_tree": runs,
            "order": "one untimed warm-up run per tree, then round r runs the trees in the "
                     "given order for even r, reversed for odd r",
        },
        "environment": {
            "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **{f"env.{var}": os.environ.get(var, "unset") for var in THREAD_VARIABLES},
            **_manifest_env(work / "out0"),
        },
        "trees": [{**_commit(tree),
                   "wall_s": _spread(walls[t]),
                   "peak_rss_mb": _spread(rss[t]),
                   "rounds_faster_than_first_tree": sum(
                       w < w0 for w, w0 in zip(walls[t], walls[0]))}
                  for t, tree in enumerate(trees)],
        "per_phase": "missing: the per-phase, per-layer breakdown of one iteration "
                     "is not measured by this tool",
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="checkout directories")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--fast", action="store_true",
                        help="2 runs per tree of a few desk-shape iterations, not 5 full ones")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "stratgrad").is_dir():
            parser.error(f"{tree} holds no src/stratgrad")
    with tempfile.TemporaryDirectory() as work:
        result = bench(trees, 2 if args.fast else 5, args.fast, Path(work))
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
