"""Benchmark: the exact rational simplex on the extension fixtures.

Times ``famkit extend`` on the four fixed 64-point fixtures of the
extension benchmark (16 sets each for ``a``, ``d`` and ``e``, and 10 sets
with a value range for ``c``) and on the 64-point, 48-set probe: fixture
``a`` with 48 sets, whose target is under 1 s.  The problems come from
``perfbench/workloads.py`` and run through ``famkit.cli.main`` as the
benchmark worker runs them.  Prints Bland pivots per run, the median wall
time of ``--repeat`` runs, and milliseconds per pivot.

The reports the CLI prints must hash to a pinned sha256: witnesses, value
ranges and pivot paths do not change with the speed of the pivots.  The
script exits 1 when they do.

Usage:
    PYTHONPATH=src python benchmarks/bench_simplex.py [--repeat N]
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from famkit import cli, simplex  # noqa: E402

# (name, seed of the fixture, sets, with a value range)
FIXTURES = [
    ("64x16a", "a", 16, False),
    ("64x16d", "d", 16, False),
    ("64x16e", "e", 16, False),
    ("64x10c-range", "c", 10, True),
    ("64x48a-probe", "a", 48, False),
]
# sha256 of the exit codes and reports of all five fixtures, in order, pinned
# while every pivot still updated every column of a dense tableau
PINNED = "89e3ea3b01d840dba19f91eeb37bdd66ba1bc3c6057a8a196969d540b31be1b0"


def problem_file(tmp: Path, name, seed, k, target) -> Path:
    problem, _ = workloads._extend_problem(random.Random(f"famkit-fixture-{seed}"), 64, k, True, target)
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(problem["input"]), encoding="utf-8")
    return path


def run(path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["extend", "--in", str(path)])
    return code, out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=2, help="runs per fixture (the median is kept)")
    args = parser.parse_args(argv)

    pivots = 0
    pivot = simplex._Tableau._pivot

    def counted(self, row, col, obj):
        nonlocal pivots
        pivots += 1
        return pivot(self, row, col, obj)

    digest = hashlib.sha256()
    header = f"{'fixture':14} {'pivots':>6} {'ms':>8} {'ms/pivot':>8}"
    print(header)
    print("-" * len(header))
    simplex._Tableau._pivot = counted
    try:
        with tempfile.TemporaryDirectory(prefix="famkit-bench-simplex-") as tmp:
            for name, seed, k, target in FIXTURES:
                path = problem_file(Path(tmp), name, seed, k, target)
                seconds = []
                for _ in range(args.repeat):
                    pivots = 0
                    started = time.perf_counter()
                    code, report = run(path)
                    seconds.append(time.perf_counter() - started)
                digest.update(f"{code}\n{report}".encode())
                ms = 1e3 * statistics.median(seconds)
                print(f"{name:14} {pivots:>6} {ms:>8.1f} {ms / pivots:>8.2f}")
    finally:
        simplex._Tableau._pivot = pivot

    if digest.hexdigest() != PINNED:
        print(f"reports sha256 {digest.hexdigest()} differs from the pinned {PINNED}")
        return 1
    print(f"reports sha256 {digest.hexdigest()[:16]}... as pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
