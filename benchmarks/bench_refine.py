"""Benchmark: batched polynomial refinement vs the scalar heap reference.

Runs the adaptive Darboux refinement on polynomial quadrature fixtures at
matched tolerances, once with ``famkit._refine.refine_poly`` (numpy batches)
and once with ``famkit._refine_py.refine_generic`` driving the scalar
``poly_range`` (one cell per step), prints cells, wall time and the
certified bracket for both, and checks that they split the same number of
cells.

Usage:
    PYTHONPATH=src python benchmarks/bench_refine.py [--full]

--full adds x^2 at eps=1e-6 (922,987 cells) for the batched engine alone;
the heap reference takes about 12 s there.
"""

import argparse
import sys
import time

from famkit import _refine, _refine_py

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


ENGINES = {"batched": _refine.refine_poly, "heap": heap_refine}


def run(engine, name, exps, coeffs, lo, hi, eps, budget=4_000_000):
    started = time.perf_counter()
    lower, upper, cells, converged, _ = ENGINES[engine](exps, coeffs, lo, hi, eps, budget)
    elapsed = time.perf_counter() - started
    return {
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
            batched, heap = (run(e, name, exps, coeffs, lo, hi, eps) for e in ENGINES)
            rows += [batched, heap]
            assert batched["cells"] == heap["cells"], (batched, heap)
            assert batched["converged"] == heap["converged"], (batched, heap)
    if args.full:
        rows.append(run("batched", "x^2 on [0,1]", *FIXTURES[0][1:5], 1e-6))

    header = f"{'fixture':22} {'eps':>8} {'engine':>8} {'cells':>9} {'seconds':>9} {'bracket width':>14}"
    print(header)
    print("-" * len(header))
    seconds = {}
    for row in rows:
        print(
            f"{row['fixture']:22} {row['eps']:>8.0e} {row['engine']:>8} "
            f"{row['cells']:>9} {row['seconds']:>9.4f} {row['upper'] - row['lower']:>14.3e}"
        )
        seconds.setdefault((row["fixture"], row["eps"]), {})[row["engine"]] = row["seconds"]
    print()
    for (fixture, eps), pair in seconds.items():
        if len(pair) == 2 and pair["batched"] > 0:
            print(f"speedup {fixture} @ {eps:.0e}: {pair['heap'] / pair['batched']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
