"""Batched refinement of polynomial Darboux sums over numpy arrays of cells.

``refine_poly`` follows the same largest-contribution-first policy as the
scalar heap in ``_refine_py.refine_generic``, but splits many cells per
round: every round it splits the fewest largest cells whose contributions
add up to the excess of the gap over epsilon.  A split only narrows a cell's
enclosure, so no child contributes more than its parent; the heap would
therefore split every cell of such a batch before it could stop.  The
batched loop splits those cells in far fewer Python steps.

A round costs about what it splits, apart from a few contiguous passes over
1-D arrays.  The contributions of the live cells stay in creation order
(the printed trace sums them in that order), while each cell's corners stay
in one row of a store: a split writes the left child over its parent and
appends the right child.  The selection starts from the previous round's
smallest pick: only the cells above it are sorted, the cells equal to it
follow in creation order, and ``np.partition`` runs only when those fall
short of the excess.

``refine_grid`` is the ``grid`` strategy on the same cells: it hands
``_sums`` and ``_halves`` to the uniform loop ``_refine_py.refine_uniform``,
which splits every cell each round.

numpy is imported inside the functions that use it, so that importing
famkit (and every subcommand that integrates no polynomial) stays free of
its start-up time and memory.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from ._refine_py import refine_uniform

# cells per vectorized pass over cell terms; about a dozen temporaries of
# this length are alive at once, so it bounds their memory
BLOCK = 4096


def backend_name() -> str:
    """Which engine integrates polynomials; nothing is compiled, so "python"."""
    return "python"


def _power_ranges(exps, lo, hi):
    """The enclosure ``(plo, phi)`` of ``x_d ** e`` for every axis ``d`` and
    exponent ``e > 0`` of a term, keyed by ``(d, e)``.

    The powers of an axis come from one chain of products, ``x``, ``x * x``,
    ``x * x * x``, ...: the same floats as the scalar
    ``_refine_py._ipow``, which multiplies from 1.0.
    """
    import numpy as np

    wanted: dict[int, set[int]] = {}
    for exp in exps:
        for d, e in enumerate(exp):
            if e:
                wanted.setdefault(d, set()).add(e)
    out = {}
    for d, es in wanted.items():
        x, y = lo[:, d], hi[:, d]
        a, b = x, y
        up = down = None
        for e in range(1, max(es) + 1):
            if e > 1:
                a, b = a * x, b * y
            if e not in es:
                continue
            if e % 2 == 1:
                out[d, e] = a, b
                continue
            if up is None:
                up, down = x >= 0.0, y <= 0.0
            out[d, e] = (np.where(up, a, np.where(down, b, 0.0)),
                         np.where(up, b, np.where(down, a, np.where(a > b, a, b))))
    return out


def poly_range_batch(exps: Sequence[Sequence[int]], coeffs: Sequence[float], lo, hi):
    """Interval enclosures of a polynomial over ``n`` boxes at once.

    ``lo`` and ``hi`` are float arrays of shape ``(n, dim)``.  Returns the
    arrays ``(rlo, rhi)``.  Every element goes through the same float
    operations, in the same order, as ``_refine_py.poly_range``, so the
    results are bit-identical to the scalar enclosure.
    """
    import numpy as np

    powers = _power_ranges(exps, lo, hi)
    rlo = np.zeros(lo.shape[0])
    rhi = np.zeros(lo.shape[0])
    for exp, c in zip(exps, coeffs):
        tlo = thi = float(c)
        for d, e in enumerate(exp):
            if not e:
                continue
            plo, phi = powers[d, e]
            # min() and max() keep the first of equal values, and so does
            # replacing only on a strict comparison
            if tlo is thi:
                # the four products are a, b, a, b
                a, b = tlo * plo, tlo * phi
                tlo = np.where(b < a, b, a)
                thi = np.where(b > a, b, a)
                continue
            products = (tlo * plo, tlo * phi, thi * plo, thi * phi)
            tlo = thi = products[0]
            for p in products[1:]:
                tlo = np.where(p < tlo, p, tlo)
                thi = np.where(p > thi, p, thi)
        rlo = rlo + tlo
        rhi = rhi + thi
    return rlo, rhi


def _cell_terms(exps, coeffs, cells):
    """Per cell (a row ``lo..., hi...``): ``rlo * vol``, ``rhi * vol`` and
    ``(rhi - rlo) * vol``."""
    import numpy as np

    dim = cells.shape[1] // 2
    lo, hi = cells[:, :dim], cells[:, dim:]
    rlo, rhi = poly_range_batch(exps, coeffs, lo, hi)
    vol = np.ones(len(cells))
    for d in range(dim):
        vol = vol * (hi[:, d] - lo[:, d])
    return rlo * vol, rhi * vol, (rhi - rlo) * vol


def _blocks(exps, coeffs, cells):
    """``_cell_terms`` over consecutive blocks of ``BLOCK`` rows."""
    for start in range(0, len(cells), BLOCK):
        yield _cell_terms(exps, coeffs, cells[start:start + BLOCK])


def _contributions(exps, coeffs, cells):
    import numpy as np

    return np.concatenate([terms[2] for terms in _blocks(exps, coeffs, cells)])


def _sums(exps, coeffs, cells) -> tuple[float, float]:
    """The exactly rounded lower and upper Darboux sums over ``cells``,
    from one enclosure of each cell."""
    lows, highs = [], []
    for terms in _blocks(exps, coeffs, cells):
        lows.append(terms[0])
        highs.append(terms[1])
    return _fsum(lows), _fsum(highs)


def _fsum(arrays) -> float:
    # memoryviews yield Python floats, twice as fast as numpy scalars and
    # without a list copy of the arrays
    return math.fsum(itertools.chain.from_iterable(map(memoryview, arrays)))


def _halves(cells):
    """The two halves of each cell, left then right, split at the midpoint
    of its widest axis (lowest axis index on ties) as
    ``_refine_py.split_widest`` splits it."""
    import numpy as np

    dim = cells.shape[1] // 2
    rows = np.arange(len(cells))
    axis = np.argmax(cells[:, dim:] - cells[:, :dim], axis=1)
    mid = 0.5 * (cells[rows, axis] + cells[rows, dim + axis])
    children = np.repeat(cells, 2, axis=0)
    children[2 * rows, dim + axis] = mid
    children[2 * rows + 1, axis] = mid
    return children


def _largest_first(contrib, excess, limit, guess, start=math.inf):
    """The fewest largest cells (earliest first among equal contributions)
    whose contributions add up to at least ``excess``, at most ``limit`` of
    them, with the running sums of their contributions.

    The candidates are every cell at or above a threshold, which starts at
    ``start``: only the cells above it are sorted, and the cells equal to it
    follow in creation order, as ``nonzero`` returns them.  While the
    candidates fall short of the excess, the threshold drops to the
    ``m``-th largest contribution, ``m`` growing fourfold from ``guess``.
    """
    import numpy as np

    n = len(contrib)
    threshold = start
    m = max(guess, 1)
    while True:
        above = (contrib > threshold).nonzero()[0]
        cand = np.concatenate((above[np.argsort(-contrib[above], kind="stable")],
                               (contrib == threshold).nonzero()[0]))
        sums = np.cumsum(contrib[cand])
        if len(cand) >= limit or (len(cand) and sums[-1] >= excess):
            break
        while m <= len(cand):
            m *= 4
        lower = np.partition(contrib, n - m)[n - m] if m < n else math.nan
        if not lower < threshold:
            # the cut lies among the last cells, or a NaN does not compare
            cand = np.argsort(-contrib, kind="stable")
            sums = np.cumsum(contrib[cand])
            break
        threshold = lower
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

    # the live cells in creation order, so that a stable sort breaks ties
    # as the heap's cell ids do: their contributions, and the rows of their
    # corners ``lo..., hi...`` in ``store``.  A split cell's left child
    # takes over its row and the right child gets the next free one, so a
    # round moves the corners of the split cells only; the sum terms are
    # recomputed at the end, once, for the cells left
    store = np.array([[*lo0, *hi0]], dtype=float)
    rows = np.zeros(1, dtype=np.intp)
    contrib = _contributions(exps, coeffs, store)
    trace = [(1, float(contrib[0]))]
    next_trace = 2
    guess = 1
    threshold = math.inf
    converged = False
    while True:
        n = len(contrib)
        gap = float(contrib.sum())
        exact = None
        if gap < eps:
            exact = gap = _fsum([contrib])
            if gap < eps:
                converged = True
                break
        if n >= max_cells:
            break
        picked, split_sums = _largest_first(contrib, gap - eps, max_cells - n, 2 * guess, threshold)
        k = guess = len(picked)
        # contributions never grow when a cell is split, so the last pick
        # is where the next round's selection starts
        threshold = contrib[picked[-1]]

        # each parent becomes its left child and then its right child, in
        # the order in which the heap numbers them
        parents = rows[picked]
        children = _halves(store[parents])
        ccontrib = _contributions(exps, coeffs, children)

        while next_trace <= n + k:
            j = next_trace - n
            trace.append((next_trace, gap - float(split_sums[j - 1]) + float(ccontrib[: 2 * j].sum())))
            next_trace *= 2

        if n + k > len(store):
            grown = np.empty((min(max(2 * len(store), n + k), max_cells), store.shape[1]))
            grown[:n] = store[:n]
            store = grown
        crows = np.empty(2 * k, dtype=np.intp)
        crows[0::2] = parents
        crows[1::2] = np.arange(n, n + k)
        store[crows] = children
        keep = np.ones(n, dtype=bool)
        keep[picked] = False
        rows = np.concatenate((rows[keep], crows))
        contrib = np.concatenate((contrib[keep], ccontrib))

    n = len(contrib)
    trace.append((n, _fsum([contrib]) if exact is None else exact))
    # exactly rounded sums do not depend on the order of the cells
    lower, upper = _sums(exps, coeffs, store[:n])
    return lower, upper, n, converged, trace


def refine_grid(
    exps: Sequence[Sequence[int]],
    coeffs: Sequence[float],
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Uniform dyadic refinement of a polynomial by
    ``_refine_py.refine_uniform``, its cells the rows of one array.

    The cells are the float cells of ``integrate._refine_grid``'s scalar
    rounds, and the exactly rounded sums do not depend on their order, so
    the results are bit-identical to it.
    """
    import numpy as np

    return refine_uniform(lambda cells: _sums(exps, coeffs, cells), _halves,
                          np.array([[*lo0, *hi0]], dtype=float), eps, max_cells)
