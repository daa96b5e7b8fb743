"""Scalar refinement for box-backend Darboux sums.

``refine_generic`` drives any range oracle with a heap: split the cell with
the largest oscillation contribution, bisecting its widest axis (lowest axis
index on ties).  It serves the scalar oracles (indicators, restrictions,
piecewise-constant and Lipschitz functions) and is the reference that the
batched polynomial engine in ``famkit._refine`` is tested against.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence


def _ipow(x: float, e: int) -> float:
    # repeated multiplication, mirrored by the batched _refine.poly_range_batch
    r = 1.0
    for _ in range(e):
        r *= x
    return r


def _pow_interval(lo: float, hi: float, e: int) -> tuple[float, float]:
    if e % 2 == 1 or lo >= 0.0:
        return _ipow(lo, e), _ipow(hi, e)
    if hi <= 0.0:
        return _ipow(hi, e), _ipow(lo, e)
    a, b = _ipow(lo, e), _ipow(hi, e)
    return 0.0, a if a > b else b


def poly_range(
    exps: Sequence[Sequence[int]],
    coeffs: Sequence[float],
    lo: Sequence[float],
    hi: Sequence[float],
) -> tuple[float, float]:
    """Interval enclosure of a multivariate polynomial over a box."""
    rlo = 0.0
    rhi = 0.0
    for exp, c in zip(exps, coeffs):
        tlo = c
        thi = c
        for d, e in enumerate(exp):
            if e:
                plo, phi = _pow_interval(lo[d], hi[d], e)
                a = tlo * plo
                b = tlo * phi
                cc = thi * plo
                dd = thi * phi
                tlo = min(a, b, cc, dd)
                thi = max(a, b, cc, dd)
        rlo += tlo
        rhi += thi
    return rlo, rhi


def refine_generic(
    range_fn: Callable[[Sequence[float], Sequence[float]], tuple[float, float]],
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Adaptive largest-contribution-first refinement until the Darboux gap
    is certified below ``eps`` or the cell budget runs out.

    Returns ``(lower, upper, ncells, converged, trace)`` where the final
    sums are exactly-rounded (math.fsum) over the live cells.
    """
    dim = len(lo0)
    lo0 = [float(x) for x in lo0]
    hi0 = [float(x) for x in hi0]
    vol0 = 1.0
    for d in range(dim):
        vol0 *= hi0[d] - lo0[d]
    rlo, rhi = range_fn(lo0, hi0)
    cells: dict[int, tuple[list[float], list[float], float, float, float]] = {
        0: (lo0, hi0, rlo, rhi, vol0)
    }
    heap: list[tuple[float, int]] = [(-(rhi - rlo) * vol0, 0)]
    next_id = 1
    gap_est = (rhi - rlo) * vol0
    trace = [(1, gap_est)]
    next_trace = 2
    converged = False

    def certified_gap() -> float:
        return math.fsum((c[3] - c[2]) * c[4] for c in cells.values())

    while True:
        if gap_est < eps:
            exact = certified_gap()
            if exact < eps:
                converged = True
                break
            gap_est = exact
            continue
        if len(cells) >= max_cells:
            break
        while heap and heap[0][1] not in cells:
            heapq.heappop(heap)
        if not heap:
            break
        key, cid = heapq.heappop(heap)
        if -key <= 0.0:
            converged = certified_gap() < eps
            break
        lo, hi, rl, rh, vol = cells.pop(cid)
        axis = 0
        width = hi[0] - lo[0]
        for d in range(1, dim):
            w = hi[d] - lo[d]
            if w > width:
                width = w
                axis = d
        mid = 0.5 * (lo[axis] + hi[axis])
        gap_est += key  # key is minus the parent's contribution
        left_lo, left_hi = lo[:], hi[:]
        left_hi[axis] = mid
        right_lo, right_hi = lo[:], hi[:]
        right_lo[axis] = mid
        for clo, chi in ((left_lo, left_hi), (right_lo, right_hi)):
            cvol = 1.0
            for d in range(dim):
                cvol *= chi[d] - clo[d]
            crlo, crhi = range_fn(clo, chi)
            contrib = (crhi - crlo) * cvol
            cells[next_id] = (clo, chi, crlo, crhi, cvol)
            heapq.heappush(heap, (-contrib, next_id))
            gap_est += contrib
            next_id += 1
        if len(cells) >= next_trace:
            trace.append((len(cells), gap_est))
            next_trace *= 2

    lower = math.fsum(c[2] * c[4] for c in cells.values())
    upper = math.fsum(c[3] * c[4] for c in cells.values())
    trace.append((len(cells), certified_gap()))
    return lower, upper, len(cells), converged, trace
