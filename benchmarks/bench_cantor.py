"""Benchmark: Cantor cylinder sweeps.

Times ``famkit.cantor`` on three fixtures of the regions benchmark: the
Darboux integral of x^2 at 1e-4, a depth-8 oscillation cover of a step
function and a Lebesgue-Vitali check of the same step function.  Three
deep fixtures of that step function follow: its integral at 1e-5, a
depth-16 cover and a Lebesgue-Vitali check at 1e-4, whose sweeps settle
whole runs of cylinders with one lattice verdict.  Prints cylinders swept,
microseconds per cylinder and wall time (best of ``--repeat`` runs) with
the result.  Cylinders are counted in a separate untimed run.  The tests in ``tests/test_cantor.py`` hold the assertions;
this script only times.

Usage:
    PYTHONPATH=src python benchmarks/bench_cantor.py [--repeat N]
"""

import argparse
import sys
import time
from fractions import Fraction as F

from famkit import cantor
from famkit.boxes import make_box
from famkit.functions import PiecewiseConstantFn, PolynomialFn

STEP = PiecewiseConstantFn(
    [(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(5, 7)]]), 3.0)], default=-1.0
)
FIXTURES = {
    "x2-1e-4": lambda: cantor.cantor_integrate(PolynomialFn([0, 0, 1]), epsilon=1e-4),
    "step-cover-8": lambda: cantor.oscillation_cover(STEP, F(1, 4), 8),
    "step-vitali": lambda: cantor.lebesgue_vitali_check(STEP, epsilon=F(1, 50)),
    "step-1e-5": lambda: cantor.cantor_integrate(STEP, epsilon=1e-5),
    "step-cover-16": lambda: cantor.oscillation_cover(STEP, F(1, 4), 16),
    "step-vitali-4": lambda: cantor.lebesgue_vitali_check(STEP, epsilon=1e-4),
}


def swept_cylinders(fn):
    """Cylinders ``fn`` sweeps: ``2**depth`` for each outermost call of
    ``_depth_sums`` or ``_cylinder_runs``, which covers call, and for each
    depth that a Lebesgue-Vitali check takes from ``_run_depths`` (depth
    sums of polynomials sweep without the other two)."""
    count = 0
    inside = False
    depth_sums, sweep, depths = cantor._depth_sums, cantor._cylinder_runs, cantor._run_depths

    def outermost(f):
        def counted(g, depth):
            nonlocal count, inside
            if inside:
                return f(g, depth)
            count += 2 ** depth
            inside = True
            try:
                return f(g, depth)
            finally:
                inside = False

        return counted

    def counted_depths(g):
        nonlocal count
        for depth, runs in enumerate(depths(g)):
            if not inside:
                count += 2 ** depth
            yield runs

    cantor._depth_sums, cantor._cylinder_runs = outermost(depth_sums), outermost(sweep)
    cantor._run_depths = counted_depths
    try:
        fn()
    finally:
        cantor._depth_sums, cantor._cylinder_runs, cantor._run_depths = depth_sums, sweep, depths
    return count


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def summary(result):
    if isinstance(result, cantor.OscillationCover):
        return f"measure {result.measure}, {len(result.cover.words)} words"
    if isinstance(result, cantor.LebesgueVitaliReport):
        depths = [depth for _, depth, _ in result.oscillation_profile]
        return f"{result.verdict}, depths {depths}"
    return f"{result.status}, [{result.lower!r}, {result.upper!r}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (the best is kept)")
    args = parser.parse_args(argv)

    header = f"{'fixture':13} {'cylinders':>9} {'us/cyl':>7} {'seconds':>8}  result"
    print(header)
    print("-" * len(header))
    for name, fn in FIXTURES.items():
        cylinders = swept_cylinders(fn)
        seconds, result = best_time(fn, args.repeat)
        us = seconds / cylinders * 1e6
        print(f"{name:13} {cylinders:>9} {us:>7.2f} {seconds:>8.4f}  {summary(result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
