"""Run `python -m stratgrad <argv>` as the child of a small parent, print the
child's wall time and peak RSS, and exit with the child's status:

    python scripts/child_usage.py synthetic --family normal-random --out-dir out

A child's ru_maxrss also counts the RSS it inherits, so the parent imports
only the standard library and touches little memory before it starts the
child. The child runs the package of this script's tree: its src/ goes
first on PYTHONPATH. Every argument is the child's; the script takes no
flags of its own. Standard library only; needs os.posix_spawn and os.wait4.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "stratgrad", *argv],
                         dict(os.environ, PYTHONPATH=path))
    _, status, usage = os.wait4(pid, 0)
    print(f"stratgrad {' '.join(argv)}: {time.perf_counter() - start:.2f} s, "
          f"ru_maxrss {usage.ru_maxrss} kB", flush=True)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
