"""Benchmark: Cantor cylinder sweeps.

Times ``famkit.cantor`` on three fixtures of the regions benchmark: the
Darboux integral of x^2 at 1e-4, a depth-8 oscillation cover of a step
function and a Lebesgue-Vitali check of the same step function.  The
integral of a quartic with negative coefficients at 1e-5 times the
polynomial sweep's higher powers and its ``c < 0`` branch, which the
regions benchmark's random Cantor polynomials use.  Three
deep fixtures of that step function follow: its integral at 1e-5, a
depth-16 cover and a Lebesgue-Vitali check at 1e-4, whose sweeps settle
whole runs of cylinders with one lattice verdict; and the integral of the
indicator of x >= 2/3 at 3e-6, which reaches depth 19.  An integral takes
all its depths from one sweep.  Prints cylinders swept, microseconds per
cylinder and wall time (best of ``--repeat`` runs) with the result.
Cylinders are counted in a separate untimed run.  The tests in
``tests/test_cantor.py`` hold the assertions; this script only times.

Usage:
    PYTHONPATH=src python benchmarks/bench_cantor.py [--repeat N]
"""

import argparse
import sys
import time
from fractions import Fraction as F

from famkit import cantor
from famkit.boxes import make_box
from famkit.functions import HalfPlaneRegion, IndicatorFn, PiecewiseConstantFn, PolynomialFn

STEP = PiecewiseConstantFn(
    [(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(5, 7)]]), 3.0)], default=-1.0
)
#: 1/4 - x + x^2/2 + x^3 - x^4/2
QUARTIC = PolynomialFn([0.25, -1.0, 0.5, 1.0, -0.5])
#: the indicator of x >= 2/3
INDICATOR = IndicatorFn(HalfPlaneRegion([-1], F(-2, 3)))
FIXTURES = {
    "x2-1e-4": lambda: cantor.cantor_integrate(PolynomialFn([0, 0, 1]), epsilon=1e-4),
    "quartic-1e-5": lambda: cantor.cantor_integrate(QUARTIC, epsilon=1e-5),
    "step-cover-8": lambda: cantor.oscillation_cover(STEP, F(1, 4), 8),
    "step-vitali": lambda: cantor.lebesgue_vitali_check(STEP, epsilon=F(1, 50)),
    "step-1e-5": lambda: cantor.cantor_integrate(STEP, epsilon=1e-5),
    "step-cover-16": lambda: cantor.oscillation_cover(STEP, F(1, 4), 16),
    "step-vitali-4": lambda: cantor.lebesgue_vitali_check(STEP, epsilon=1e-4),
    "indicator-3e-6": lambda: cantor.cantor_integrate(INDICATOR, epsilon=3e-6),
}


def swept_cylinders(fn):
    """Cylinders ``fn`` sweeps: ``2**depth`` for each depth that
    ``_depth_sums`` sums, for the one depth that ``oscillation_cover``
    covers, and for each depth that a Lebesgue-Vitali check takes from
    ``_run_depths``.  Each takes its depth as its last argument."""
    count = 0
    checking = False
    depth_sums, cover, check, depths = (cantor._depth_sums, cantor.oscillation_cover,
                                        cantor.lebesgue_vitali_check, cantor._run_depths)

    def by_depth(f):
        def counted(*args):
            nonlocal count
            count += 2 ** args[-1]
            return f(*args)

        return counted

    def checked(*args, **kwargs):
        nonlocal checking
        checking = True
        try:
            return check(*args, **kwargs)
        finally:
            checking = False

    def counted_depths(g):
        nonlocal count
        for depth, runs in enumerate(depths(g)):
            if checking:
                count += 2 ** depth
            yield runs

    cantor._depth_sums, cantor.oscillation_cover = by_depth(depth_sums), by_depth(cover)
    cantor.lebesgue_vitali_check, cantor._run_depths = checked, counted_depths
    try:
        fn()
    finally:
        cantor._depth_sums, cantor.oscillation_cover = depth_sums, cover
        cantor.lebesgue_vitali_check, cantor._run_depths = check, depths
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

    header = f"{'fixture':14} {'cylinders':>9} {'us/cyl':>7} {'seconds':>8}  result"
    print(header)
    print("-" * len(header))
    for name, fn in FIXTURES.items():
        cylinders = swept_cylinders(fn)
        seconds, result = best_time(fn, args.repeat)
        us = seconds / cylinders * 1e6
        print(f"{name:14} {cylinders:>9} {us:>7.2f} {seconds:>8.4f}  {summary(result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
