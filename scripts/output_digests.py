"""Run every subcommand at fixed small settings and print a sha256 per CSV and SVG.

Two trees whose outputs should match are compared by running this script in
each and diffing what it prints:

    python scripts/output_digests.py [work_dir] > digests.txt

Each case writes into <work_dir>/<case>, a temporary directory if none is
given, so the manifests can be compared as well; they are not digested,
since they record the wall time. The script pins one BLAS thread, builds a
small IDX fixture with tests/idxtools.py and runs the package of its own
tree in-process. Standard library, the package and tests/idxtools only.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one summation order; set before numpy loads

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from idxtools import write_mnist_style_dir
from stratgrad.cli import _ALGORITHMS, main
from stratgrad.population import Trend

DESK = ("--desk", "--per-class", "20", "--test-per-class", "5")
# long enough that the cells of mssg, gst and fullgrad score apart
GRID = ("--alphas", "8,2", "--lambdas", "0.001,0", "--budget-iterations", "30")


def cases() -> dict[str, tuple]:
    """Case name -> argv without --data-dir and --out-dir."""
    return {
        **{f"synthetic-{t.value}": ("synthetic", "--family", t.value, "--seeds", "20")
           for t in Trend},
        # a budget other than one draw per stratum: batch pools 2 x 4 draws a round
        "synthetic-normal-var-dec-per-stratum-2": ("synthetic", "--family", "normal-var-dec",
                                                   "--seeds", "20", "--per-stratum", "2",
                                                   "--n-per-round", "24"),
        "variance-oracle-random": ("variance-oracle", "--random-tuples", "3", "--strata", "2",
                                   "--replications", "10000"),
        "variance-oracle-stats": ("variance-oracle", "--stats", "2,1,1,1;1,0.5,1.5,2",
                                  "--replications", "10000"),
        "gradmatrix-desk": ("gradmatrix", *DESK, "--iterations", "3", "--reps", "2"),
        "gradmatrix-full": ("gradmatrix", "--iterations", "2", "--reps", "2"),
        **{f"train-{a}-desk": ("train", "--algorithm", a, *DESK, "--iterations", "4",
                               "--checkpoint-every", "2") for a in _ALGORITHMS},
        "train-sgd-x3-desk": ("train", "--algorithm", "sgd", *DESK, "--iterations", "2",
                              "--checkpoint-every", "1", "--sgd-multiplier", "3"),
        "train-mssg-full": ("train", "--algorithm", "mssg", "--iterations", "2",
                            "--checkpoint-every", "1"),
        **{f"gridsearch-{a}-desk": ("gridsearch", "--algorithm", a, *DESK, *GRID)
           for a in _ALGORITHMS},
        "gridsearch-sgd-x2-desk": ("gridsearch", "--algorithm", "sgd", *DESK, *GRID,
                                   "--sgd-multiplier", "2"),
        # every cell scores 0.1 on these digits, so the tie rule picks the best
        "gridsearch-mssg-tie": ("gridsearch", "--algorithm", "mssg", "--desk",
                                "--alphas", "0.5,0.1,1", "--lambdas", "0.001,0",
                                "--budget-iterations", "3"),
    }


def run_all(work: Path) -> int:
    data = write_mnist_style_dir(work / "data", 200, 50, seed=1)
    for name, argv in cases().items():
        out = work / name
        data_flags = ("--data-dir", str(data)) if argv[0] in ("gradmatrix", "train",
                                                               "gridsearch") else ()
        if main([*argv, *data_flags, "--seed", "3", "--out-dir", str(out)]) != 0:
            print(f"{name}: exited nonzero", file=sys.stderr)
            return 1
        for path in sorted(out.iterdir()):
            if path.suffix in (".csv", ".svg"):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit(run_all(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory() as tmp:
        raise SystemExit(run_all(Path(tmp)))
