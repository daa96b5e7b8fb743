"""Benchmark: batched polynomial refinement vs the scalar heap reference.

Runs the adaptive Darboux refinement on polynomial quadrature fixtures at
matched tolerances, once with ``famkit._refine.refine_poly`` (numpy rounds)
and once with ``famkit._refine_py.refine_generic`` driving the scalar
``poly_range`` walk of the polynomial's enclosure plan (one cell per step),
prints cells, wall time, microseconds per cell and the certified bracket
for both, with the batched run's rounds and tracemalloc peak, and checks
that the two results are equal as a whole: lower, upper, cells,
convergence and trace.  The grid strategy runs x^2*y - y^3 at 1e-2 (65,536
cells) through the uniform loop ``famkit._refine_py.refine_uniform``, once
on numpy arrays (``famkit._refine.refine_grid``) and once on lists with
one scalar ``poly_range`` call per cell (``integrate._refine_grid``), and
checks that the two agree bit for bit.  Two last rows follow.  One runs 32
seeded 1-D quartics shaped like the ``poly1d-adaptive`` problems of the
perfbench ``quadrature`` workload (rational intervals, epsilon from 1e-5
to 1e-3, 300 to 3000 cells), where numpy call overhead rather than cells
sets the cost, and prints their rounds, microseconds per round and per
cell.  The other integrates x^2*y over the triangle {y <= x} of [0,1]^2
at 3e-3 through ``integrate_over``: the scalar heap on a restricted
function, where classifying cells against the half-plane sets the cost
(best of three).

Usage:
    PYTHONPATH=src python benchmarks/bench_refine.py [--full]

--full adds x^2 at eps=1e-6 (922,987 cells) for the batched engine alone;
the heap reference takes about 12 s there.
"""

import argparse
import importlib
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

from famkit import _refine, _refine_py
from famkit.boxes import VolumeFam
from famkit.functions import PolynomialFn, triangle_under_diagonal
from famkit.integrate import integrate_over

# famkit/__init__ rebinds the name ``famkit.integrate`` to the function
integrate_module = importlib.import_module("famkit.integrate")

FIXTURES = [
    ("x^2 on [0,1]", [(0,), (1,), (2,)], [0.0, 0.0, 1.0], [0.0], [1.0], [1e-3, 1e-4, 1e-5]),
    (
        "x+y on [0,1]^2",
        [(1, 0), (0, 1)],
        [1.0, 1.0],
        [0.0, 0.0],
        [1.0, 1.0],
        [1e-1, 1e-2],
    ),
    (
        "x^2*y - y^3 on [0,1]^2",
        [(2, 1), (0, 3)],
        [1.0, -1.0],
        [0.0, 0.0],
        [1.0, 1.0],
        [1e-1, 1e-2],
    ),
]


def heap_refine(plan, lo, hi, eps, budget):
    return _refine_py.refine_generic(lambda l, h: _refine_py.poly_range(plan, l, h), lo, hi, eps, budget)


def scalar_grid(plan, lo, hi, eps, budget):
    return integrate_module._refine_grid(lambda l, h: _refine_py.poly_range(plan, l, h), lo, hi, eps, budget)


ENGINES = {"batched": _refine.refine_poly, "heap": heap_refine,
           "grid": _refine.refine_grid, "grid-py": scalar_grid}
GRID = ("x^2*y - y^3 on [0,1]^2", *FIXTURES[2][1:5], 1e-2)


def quartics(seed=1, count=32):
    """``count`` 1-D quartics ``(coeffs, lo, hi, eps)``, one per slice of
    300 to 3000 cells, scaled as perfbench's ``quadrature`` workload scales
    its adaptive ones: largest-first splitting leaves about
    (int sqrt(|p'|))^2 / eps cells."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        base = [rng.uniform(-1, 1) for _ in range(4)] + [rng.choice([-1, 1]) * rng.uniform(0.3, 1)]
        a = Fraction(rng.randint(-6, 4), rng.choice([2, 3, 4, 5, 7, 8]))
        b = a + Fraction(rng.randint(2, 10), rng.choice([3, 4, 5, 8]))
        eps = float(f"{10 ** rng.uniform(-5, -3):.1e}")
        h = float(b - a) / 256
        slope = [sum(abs(c) * k * abs(float(a) + (j + 0.5) * h) ** (k - 1) for k, c in enumerate(base) if k)
                 for j in range(256)]
        proxy = (sum(map(math.sqrt, slope)) * h) ** 2
        scale = 300 * 10 ** ((i + rng.random()) / count) * eps / proxy
        out.append(([float(f"{c * scale:.6g}") for c in base], float(a), float(b), eps))
    return out


def counting_rounds(call):
    """The result of ``call()`` and the rounds of ``refine_poly`` it ran,
    one per window that a round takes."""
    window = _refine._window
    rounds = 0

    def counted(*args):
        nonlocal rounds
        rounds += 1
        return window(*args)

    _refine._window = counted
    try:
        return call(), rounds
    finally:
        _refine._window = window


def quartic_row():
    """Cells, rounds and seconds of the fastest of three timed passes over
    ``quartics()``; the rounds are counted in an untimed pass."""
    exps = [(e,) for e in range(5)]
    runs = [(_refine_py._plan(exps, coeffs), [a], [b], eps) for coeffs, a, b, eps in quartics()]
    seconds = math.inf
    for _ in range(3):
        started = time.perf_counter()
        cells = sum(_refine.refine_poly(*run, 2_000_000)[2] for run in runs)
        seconds = min(seconds, time.perf_counter() - started)
    _, rounds = counting_rounds(lambda: [_refine.refine_poly(*run, 2_000_000) for run in runs])
    return cells, rounds, seconds


def restricted_row():
    """Cells, bracket width and seconds (best of three) of x^2*y over the
    triangle {y <= x} of [0,1]^2 at 3e-3, through ``integrate_over``."""
    fn = PolynomialFn({(2, 1): 1.0})
    fam = VolumeFam([[0, 1], [0, 1]])
    seconds = math.inf
    for _ in range(3):
        started = time.perf_counter()
        report = integrate_over(fn, triangle_under_diagonal(), fam, 3e-3)
        seconds = min(seconds, time.perf_counter() - started)
    return report.trace[-1][0], report.upper - report.lower, seconds


def bits(result):
    lower, upper, cells, converged, trace = result
    return lower.hex(), upper.hex(), cells, converged, [(n, gap.hex()) for n, gap in trace]


def run(engine, name, exps, coeffs, lo, hi, eps, budget=4_000_000):
    plan = _refine_py._plan(exps, coeffs)
    started = time.perf_counter()
    result = ENGINES[engine](plan, lo, hi, eps, budget)
    elapsed = time.perf_counter() - started
    lower, upper, cells, converged, _ = result
    rounds = peak = None
    if engine == "batched":
        # an untimed second run counts the rounds and the peak of the
        # memory that Python's allocators hand out while it runs
        tracemalloc.start()
        _, rounds = counting_rounds(lambda: ENGINES[engine](plan, lo, hi, eps, budget))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return {
        "bits": bits(result),
        "fixture": name,
        "eps": eps,
        "engine": engine,
        "cells": cells,
        "seconds": elapsed,
        "lower": lower,
        "upper": upper,
        "converged": converged,
        "rounds": rounds,
        "peak": peak,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="add x^2 at 1e-6 for the batched engine")
    args = parser.parse_args(argv)

    # the first call imports numpy; keep that out of the timings
    _refine.refine_poly(_refine_py._plan(*FIXTURES[0][1:3]), *FIXTURES[0][3:5], 1e-1, 16)
    rows = []
    for name, exps, coeffs, lo, hi, tolerances in FIXTURES:
        for eps in tolerances:
            batched, heap = (run(e, name, exps, coeffs, lo, hi, eps) for e in ("batched", "heap"))
            rows += [batched, heap]
            assert batched["bits"] == heap["bits"], (batched, heap)
    grid, grid_py = (run(e, *GRID) for e in ("grid", "grid-py"))
    rows += [grid, grid_py]
    assert grid["cells"] == 65_536, grid
    assert grid["bits"] == grid_py["bits"], (grid, grid_py)
    if args.full:
        rows.append(run("batched", "x^2 on [0,1]", *FIXTURES[0][1:5], 1e-6))

    header = (f"{'fixture':22} {'eps':>8} {'engine':>8} {'cells':>9} {'seconds':>9} "
              f"{'us/cell':>8} {'bracket width':>14} {'rounds':>7} {'peak MB':>8}")
    print(header)
    print("-" * len(header))
    seconds = {}
    for row in rows:
        print(
            f"{row['fixture']:22} {row['eps']:>8.0e} {row['engine']:>8} {row['cells']:>9} "
            f"{row['seconds']:>9.4f} {1e6 * row['seconds'] / row['cells']:>8.2f} "
            f"{row['upper'] - row['lower']:>14.3e}"
            + ("" if row["rounds"] is None else f" {row['rounds']:>7} {row['peak'] / 1e6:>8.2f}")
        )
        seconds.setdefault((row["fixture"], row["eps"]), {})[row["engine"]] = row["seconds"]
    cells, rounds, elapsed = quartic_row()
    print(f"{'32 1-D quartics':22} {'1e-5..3':>8} {'batched':>8} {cells:>9} {elapsed:>9.4f} "
          f"{1e6 * elapsed / cells:>8.2f}   {rounds} rounds, {1e6 * elapsed / rounds:.1f} us/round")
    cells, width, elapsed = restricted_row()
    print(f"{'x^2*y over y<=x':22} {3e-3:>8.0e} {'heap':>8} {cells:>9} {elapsed:>9.4f} "
          f"{1e6 * elapsed / cells:>8.2f} {width:>14.3e}")
    print()
    for (fixture, eps), times in seconds.items():
        for fast, slow in (("batched", "heap"), ("grid", "grid-py")):
            if fast in times and slow in times and times[fast] > 0:
                print(f"speedup {fixture} @ {eps:.0e} ({fast}): {times[slow] / times[fast]:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
