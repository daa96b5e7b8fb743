"""Benchmark: exact Jordan brackets and indicator integrals on the integer
dyadic lattice.

Times ``famkit.integrate.measure_bracket`` and ``is_jordan`` on the three
half-plane fixtures of the regions benchmark and on criterion 7's triangle
at 1e-4, prints cells classified, microseconds per cell and wall time (best
of ``--repeat`` runs) and the bracket.  ``is_jordan`` builds its witness
only when it is read, so the ``is_jordan+witness`` row, which reads it,
shows what the witness boxes cost.  Cells are counted in a separate
untimed run.  The exact brackets of these fixtures are pinned by
``tests/test_lattice.py``; this script only times them.

The ``composite`` rows time ``measure_bracket`` on two regions shaped
like the ``region2d`` problems of the regions benchmark, both at 1/256: a
box union joined with an intersection of two half-planes, and the
complement of a box union, with box corners on the 1/8 grid.  They
print the verdicts asked (top-level verdicts, as counted for ``cells``)
and microseconds per verdict, each timing the best of ``--repeat`` runs
of ``LOOPS`` calls, since a call takes well under a millisecond.  The
script exits 1 unless each bracket equals the one pinned in
``COMPOSITES``.

The ``integrate`` rows time the box integral of an indicator shaped like
the ``box-indicator`` problems of the regions benchmark (half-planes with
offsets of denominator 3, 5 or 7 on the unit square) through the public
``integrate``, which takes it from one ``measure_bracket`` call, and, as
a timing reference, on the scalar heap of float cells, ``refine_generic``.
They print the cells (the live cells at the end) and the float bracket.
The script exits 1 unless the integral contains ``v * [inner, outer]``
of its exact bracket and, where it converged, is narrower than epsilon.

Usage:
    PYTHONPATH=src python benchmarks/bench_bracket.py [--full] [--repeat N]

--full also times all of acceptance criterion 7 (the triangle, the dense
fixture and the 200 random region pairs), as one pytest run in a fresh
interpreter (pytest's start-up included).
"""

import argparse
import importlib
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from famkit import _refine_py, lattice
from famkit.boxes import BoxElem, VolumeFam, make_box
from famkit.functions import (
    HalfPlaneRegion,
    IndicatorFn,
    RegionComplement,
    RegionIntersection,
    RegionUnion,
    triangle_under_diagonal,
)

# the package rebinds the name ``famkit.integrate`` to the function
integrate = importlib.import_module("famkit.integrate")

ROOT = Path(__file__).resolve().parents[1]
SQUARE = VolumeFam([[0, 1], [0, 1]])
FIXTURES = {
    "triangle-xy": (triangle_under_diagonal(), SQUARE, F(1, 1000)),
    "halfspace-3d": (HalfPlaneRegion((1, 2, -1), F(2, 3)), VolumeFam([[0, 1]] * 3), F(1, 34)),
    "halfplane-fine": (HalfPlaneRegion((1, 2), F(2, 3)), SQUARE, F(1, 3000)),
    "triangle-1e-4": (triangle_under_diagonal(), SQUARE, F(1, 10000)),
}

BOX_UNION = BoxElem([make_box([[F(1, 8), F(5, 8)], [F(2, 8), F(7, 8)]]),
                    make_box([[F(3, 8), F(7, 8)], [0, F(3, 8)]])])
#: region, epsilon and the exact (inner, outer) bracket
COMPOSITES = {
    "union-box-cap": (RegionUnion(BOX_UNION, RegionIntersection(HalfPlaneRegion((2, -1), 1),
                                                                HalfPlaneRegion((-1, 1), F(-1, 3)))),
                      F(1, 256), (F(15, 32), F(967, 2048))),
    "complement-box": (RegionComplement(BOX_UNION), F(1, 256), (F(17, 32), F(17, 32))),
}
LOOPS = 200

INDICATORS = {
    "box-indicator-1": (HalfPlaneRegion((2, -1), F(4, 7)), 3.2e-3),
    "box-indicator-2": (RegionIntersection(HalfPlaneRegion((1, -2), F(1, 5)),
                                           HalfPlaneRegion((-1, -1), F(-3, 7))), 1e-3),
}


def heap_integral(fn, fam, eps):
    lo0 = [float(lo) for lo, _ in fam.bounding]
    hi0 = [float(hi) for _, hi in fam.bounding]
    return _refine_py.refine_generic(lambda lo, hi: fn.range_on(tuple(zip(lo, hi))), lo0, hi0, eps,
                                     integrate.DEFAULT_BUDGET)


def lattice_integral(fn, fam, eps):
    report = integrate.integrate(fn, fam, eps, integrate.DEFAULT_BUDGET)
    converged = report.status == integrate.INTEGRABLE
    return report.lower, report.upper, report.trace[-1][0], converged, list(report.trace)


def certified(fn, fam, eps, result) -> bool:
    """Whether ``result``, a lattice integral, contains ``v * [inner, outer]``
    of its bracket and, where it converged, is narrower than ``eps``."""
    lower, upper, _, converged, _ = result
    bracket = integrate.measure_bracket(fn.region, fam, F(repr(eps)) / abs(F(fn.value)),
                                        integrate.DEFAULT_BUDGET - 1)
    ends = sorted((F(fn.value) * bracket.inner, F(fn.value) * bracket.outer))
    return F(lower) <= ends[0] and ends[1] <= F(upper) and (not converged or F(upper) - F(lower) < F(repr(eps)))


def classified_cells(region, fam, eps):
    """Cells ``measure_bracket`` classifies, counted through a wrapped classifier."""
    count = 0

    def counting(region, grid):
        verdicts = lattice.lattice_classifier(region, grid)

        def at(depth):
            verdict = verdicts(depth)

            def counted(cell):
                nonlocal count
                count += 1
                return verdict(cell)

            return counted

        return at

    integrate.lattice_classifier = counting
    try:
        integrate.measure_bracket(region, fam, eps)
    finally:
        integrate.lattice_classifier = lattice.lattice_classifier
    return count


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def looped(fn):
    """``fn()`` called ``LOOPS`` times; the last result."""
    for _ in range(LOOPS):
        result = fn()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="also time acceptance criterion 7")
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (the best is kept)")
    args = parser.parse_args(argv)

    header = f"{'fixture':15} {'call':>17} {'cells':>8} {'us/cell':>8} {'seconds':>8}  bracket"
    print(header)
    print("-" * len(header))
    for name, (region, fam, eps) in FIXTURES.items():
        cells = classified_cells(region, fam, eps)
        seconds, bracket = best_time(lambda: integrate.measure_bracket(region, fam, eps), args.repeat)
        rows = [("measure_bracket", seconds)]
        if fam.dimension == 2:
            seconds, _ = best_time(lambda: integrate.is_jordan(region, fam, eps), args.repeat)
            rows.append(("is_jordan", seconds))
            seconds, _ = best_time(lambda: integrate.is_jordan(region, fam, eps).witness, args.repeat)
            rows.append(("is_jordan+witness", seconds))
        for call, seconds in rows:
            print(f"{name:15} {call:>17} {cells:>8} {seconds / cells * 1e6:>8.2f} {seconds:>8.4f}"
                  f"  [{bracket.inner}, {bracket.outer}]")
    changed = []
    for name, (region, eps, pinned) in COMPOSITES.items():
        verdicts = classified_cells(region, SQUARE, eps)
        seconds, bracket = best_time(lambda: looped(lambda: integrate.measure_bracket(region, SQUARE, eps)),
                                     args.repeat)
        seconds /= LOOPS
        print(f"{name:15} {'composite':>17} {verdicts:>8} {seconds / verdicts * 1e6:>8.2f} {seconds:>8.6f}"
              f"  [{bracket.inner}, {bracket.outer}]")
        if (bracket.inner, bracket.outer) != pinned:
            changed.append(name)
    uncertified = []
    for name, (region, eps) in INDICATORS.items():
        fn = IndicatorFn(region)
        results = {}
        for call, engine in (("integrate heap", heap_integral), ("integrate lattice", lattice_integral)):
            seconds, result = best_time(lambda: engine(fn, SQUARE, eps), args.repeat)
            results[call] = result
            lower, upper, cells = result[:3]
            print(f"{name:15} {call:>17} {cells:>8} {seconds / cells * 1e6:>8.2f} {seconds:>8.4f}"
                  f"  [{lower!r}, {upper!r}]")
        if not certified(fn, SQUARE, eps, results["integrate lattice"]):
            uncertified.append(name)
    if args.full:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        test = "tests/test_acceptance.py::test_criterion_7_jordan_suite"
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        print(f"\ncriterion 7: {time.perf_counter() - started:.2f} s (one pytest run)")
    if changed:
        print(f"\nthe bracket differs from the pinned one on {', '.join(changed)}", file=sys.stderr)
    if uncertified:
        print(f"\nthe integral misses its exact bracket on {', '.join(uncertified)}", file=sys.stderr)
    return 1 if changed or uncertified else 0


if __name__ == "__main__":
    sys.exit(main())
