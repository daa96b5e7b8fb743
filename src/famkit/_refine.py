"""Batched refinement of polynomial Darboux sums over numpy arrays of cells.

``refine_poly`` follows the same largest-contribution-first policy as the
scalar heap in ``_refine_py.refine_generic``, but splits many cells per
round: every round it splits the fewest largest cells whose contributions
add up to the excess of the gap over epsilon.  A split only narrows a cell's
enclosure, so no child contributes more than its parent; the heap would
therefore split every cell of such a batch before it could stop.  The
batched loop splits those cells in far fewer Python steps.

numpy is imported inside the functions that use it, so that importing
famkit (and every subcommand that integrates no polynomial) stays free of
its start-up time and memory.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

# cells per vectorized pass over cell terms; about a dozen temporaries of
# this length are alive at once, so it bounds their memory
BLOCK = 4096


def backend_name() -> str:
    """Which engine integrates polynomials; nothing is compiled, so "python"."""
    return "python"


def _ipow(x, e: int):
    # repeated multiplication from 1.0, as in the scalar _refine_py._ipow
    r = 1.0
    for _ in range(e):
        r = r * x
    return r


def poly_range_batch(exps: Sequence[Sequence[int]], coeffs: Sequence[float], lo, hi):
    """Interval enclosures of a polynomial over ``n`` boxes at once.

    ``lo`` and ``hi`` are float arrays of shape ``(n, dim)``.  Returns the
    arrays ``(rlo, rhi)``.  Every element goes through the same float
    operations, in the same order, as ``_refine_py.poly_range``, so the
    results are bit-identical to the scalar enclosure.
    """
    import numpy as np

    n = lo.shape[0]
    rlo = np.zeros(n)
    rhi = np.zeros(n)
    for exp, c in zip(exps, coeffs):
        tlo = np.full(n, float(c))
        thi = tlo
        for d, e in enumerate(exp):
            if not e:
                continue
            a, b = _ipow(lo[:, d], e), _ipow(hi[:, d], e)
            if e % 2 == 1:
                plo, phi = a, b
            else:
                up, down = lo[:, d] >= 0.0, hi[:, d] <= 0.0
                plo = np.where(up, a, np.where(down, b, 0.0))
                phi = np.where(up, b, np.where(down, a, np.where(a > b, a, b)))
            products = (tlo * plo, tlo * phi, thi * plo, thi * phi)
            # min() and max() keep the first of equal values, and so does
            # replacing only on a strict comparison
            tlo = thi = products[0]
            for p in products[1:]:
                tlo = np.where(p < tlo, p, tlo)
                thi = np.where(p > thi, p, thi)
        rlo = rlo + tlo
        rhi = rhi + thi
    return rlo, rhi


def _cell_terms(exps, coeffs, lo, hi):
    """Per cell: ``rlo * vol``, ``rhi * vol`` and ``(rhi - rlo) * vol``."""
    import numpy as np

    rlo, rhi = poly_range_batch(exps, coeffs, lo, hi)
    vol = np.ones(lo.shape[0])
    for d in range(lo.shape[1]):
        vol = vol * (hi[:, d] - lo[:, d])
    return rlo * vol, rhi * vol, (rhi - rlo) * vol


def _blocks(exps, coeffs, lo, hi):
    """``_cell_terms`` over consecutive blocks of ``BLOCK`` rows."""
    for start in range(0, len(lo), BLOCK):
        yield _cell_terms(exps, coeffs, lo[start:start + BLOCK], hi[start:start + BLOCK])


def _fsum(arrays) -> float:
    # memoryviews yield Python floats, twice as fast as numpy scalars and
    # without a list copy of the arrays
    return math.fsum(itertools.chain.from_iterable(map(memoryview, arrays)))


def _largest_first(contrib, excess, limit, guess):
    """The fewest largest cells (earliest first among equal contributions)
    whose contributions add up to at least ``excess``, at most ``limit`` of
    them, with the running sums of their contributions.

    Only the cells at or above the ``guess``-th largest contribution are
    sorted; the guess grows until they add up to the excess.
    """
    import numpy as np

    n = len(contrib)
    m = max(guess, 1)
    while True:
        if m < n:
            cand = np.flatnonzero(contrib >= np.partition(contrib, n - m)[n - m])
            cand = cand[np.argsort(-contrib[cand], kind="stable")]
        else:
            cand = np.argsort(-contrib, kind="stable")
        sums = np.cumsum(contrib[cand])
        if m >= n or len(cand) >= limit or (len(cand) and sums[-1] >= excess):
            break
        m *= 4
    k = min(int(np.searchsorted(sums, excess)) + 1, len(cand), limit)
    return cand[:k], sums


def refine_poly(
    exps: Sequence[Sequence[int]],
    coeffs: Sequence[float],
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Adaptive largest-first refinement of a polynomial until the Darboux
    gap is certified below ``eps`` or the cell budget runs out.

    Each round splits the fewest largest cells (earliest created first among
    equal contributions) whose contributions add up to at least the excess
    ``gap - eps``, never more than ``max_cells - n``; each is bisected at the
    midpoint of its widest axis (lowest axis index on ties).

    Returns ``(lower, upper, ncells, converged, trace)``.  The sums are
    exactly rounded (math.fsum) over the live cells.  ``trace`` holds
    ``(ncells, gap)`` at the start, at each power-of-two cell count, and at
    the end.
    """
    import numpy as np

    # cells are kept in creation order, so a stable sort breaks ties as the
    # heap's cell ids do; besides its corners a cell stores only its
    # contribution, and the sum terms are recomputed for the cells left
    lo = np.array([lo0], dtype=float)
    hi = np.array([hi0], dtype=float)
    contrib = _cell_terms(exps, coeffs, lo, hi)[2]
    trace = [(1, float(contrib[0]))]
    next_trace = 2
    guess = 1
    converged = False
    while True:
        n = len(contrib)
        gap = float(contrib.sum())
        if gap < eps:
            gap = _fsum([contrib])
            if gap < eps:
                converged = True
                break
        if n >= max_cells:
            break
        picked, split_sums = _largest_first(contrib, gap - eps, max_cells - n, 2 * guess)
        k = guess = len(picked)

        # each parent becomes its left child and then its right child, in
        # the order in which the heap numbers them
        twice = np.repeat(picked, 2)
        clo, chi = lo[twice], hi[twice]
        left = np.arange(0, 2 * k, 2)
        axis = np.argmax(chi[left] - clo[left], axis=1)
        mid = 0.5 * (clo[left, axis] + chi[left, axis])
        chi[left, axis] = mid
        clo[left + 1, axis] = mid
        ccontrib = np.concatenate([terms[2] for terms in _blocks(exps, coeffs, clo, chi)])

        while next_trace <= n + k:
            j = next_trace - n
            trace.append((next_trace, gap - float(split_sums[j - 1]) + float(ccontrib[: 2 * j].sum())))
            next_trace *= 2

        keep = np.ones(n, dtype=bool)
        keep[picked] = False
        lo = np.concatenate((lo[keep], clo))
        hi = np.concatenate((hi[keep], chi))
        contrib = np.concatenate((contrib[keep], ccontrib))

    trace.append((len(contrib), _fsum([contrib])))
    lower = _fsum(terms[0] for terms in _blocks(exps, coeffs, lo, hi))
    upper = _fsum(terms[1] for terms in _blocks(exps, coeffs, lo, hi))
    return lower, upper, len(contrib), converged, trace
