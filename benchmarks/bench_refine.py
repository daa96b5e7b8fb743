"""Benchmark: batched polynomial refinement vs the scalar heap reference.

Runs the adaptive Darboux refinement on polynomial quadrature fixtures at
matched tolerances, once with ``famkit._refine.refine_poly`` (numpy batches)
and once with ``famkit._refine_py.refine_generic`` driving the scalar
``poly_range`` (one cell per step), prints cells, wall time, microseconds
per cell and the certified bracket for both, and checks that they split the
same number of cells.  The grid strategy runs x^2*y - y^3 at 1e-2 (65,536
cells) through the uniform loop ``famkit._refine_py.refine_uniform``, once
on numpy arrays (``famkit._refine.refine_grid``) and once on lists with
one scalar ``poly_range`` call per cell (``integrate._refine_grid``), and
checks that the two agree bit for bit.

Usage:
    PYTHONPATH=src python benchmarks/bench_refine.py [--full]

--full adds x^2 at eps=1e-6 (922,987 cells) for the batched engine alone;
the heap reference takes about 12 s there.
"""

import argparse
import importlib
import sys
import time

from famkit import _refine, _refine_py

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


def heap_refine(exps, coeffs, lo, hi, eps, budget):
    return _refine_py.refine_generic(
        lambda l, h: _refine_py.poly_range(exps, coeffs, l, h), lo, hi, eps, budget
    )


def scalar_grid(exps, coeffs, lo, hi, eps, budget):
    return integrate_module._refine_grid(
        lambda l, h: _refine_py.poly_range(exps, coeffs, l, h), lo, hi, eps, budget
    )


ENGINES = {"batched": _refine.refine_poly, "heap": heap_refine,
           "grid": _refine.refine_grid, "grid-py": scalar_grid}
GRID = ("x^2*y - y^3 on [0,1]^2", *FIXTURES[2][1:5], 1e-2)


def bits(result):
    lower, upper, cells, converged, trace = result
    return lower.hex(), upper.hex(), cells, converged, [(n, gap.hex()) for n, gap in trace]


def run(engine, name, exps, coeffs, lo, hi, eps, budget=4_000_000):
    started = time.perf_counter()
    result = ENGINES[engine](exps, coeffs, lo, hi, eps, budget)
    elapsed = time.perf_counter() - started
    lower, upper, cells, converged, _ = result
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
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="add x^2 at 1e-6 for the batched engine")
    args = parser.parse_args(argv)

    # the first call imports numpy; keep that out of the timings
    _refine.refine_poly(*FIXTURES[0][1:5], 1e-1, 16)
    rows = []
    for name, exps, coeffs, lo, hi, tolerances in FIXTURES:
        for eps in tolerances:
            batched, heap = (run(e, name, exps, coeffs, lo, hi, eps) for e in ("batched", "heap"))
            rows += [batched, heap]
            assert batched["cells"] == heap["cells"], (batched, heap)
            assert batched["converged"] == heap["converged"], (batched, heap)
    grid, grid_py = (run(e, *GRID) for e in ("grid", "grid-py"))
    rows += [grid, grid_py]
    assert grid["cells"] == 65_536, grid
    assert grid["bits"] == grid_py["bits"], (grid, grid_py)
    if args.full:
        rows.append(run("batched", "x^2 on [0,1]", *FIXTURES[0][1:5], 1e-6))

    header = (f"{'fixture':22} {'eps':>8} {'engine':>8} {'cells':>9} {'seconds':>9} "
              f"{'us/cell':>8} {'bracket width':>14}")
    print(header)
    print("-" * len(header))
    seconds = {}
    for row in rows:
        print(
            f"{row['fixture']:22} {row['eps']:>8.0e} {row['engine']:>8} {row['cells']:>9} "
            f"{row['seconds']:>9.4f} {1e6 * row['seconds'] / row['cells']:>8.2f} "
            f"{row['upper'] - row['lower']:>14.3e}"
        )
        seconds.setdefault((row["fixture"], row["eps"]), {})[row["engine"]] = row["seconds"]
    print()
    for (fixture, eps), times in seconds.items():
        for fast, slow in (("batched", "heap"), ("grid", "grid-py")):
            if fast in times and slow in times and times[fast] > 0:
                print(f"speedup {fixture} @ {eps:.0e} ({fast}): {times[slow] / times[fast]:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
