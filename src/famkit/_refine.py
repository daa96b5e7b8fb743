"""Batched refinement of polynomial Darboux sums over numpy arrays of cells.

``refine_poly`` follows the same largest-contribution-first policy as the
scalar heap in ``_refine_py.refine_generic``, but splits many cells per
round: every round it splits the fewest largest cells whose contributions
add up to the excess of the gap over epsilon.  A split only narrows a cell's
enclosure, so no child contributes more than its parent; the heap would
therefore split every cell of such a batch before it could stop.  The
batched loop splits those cells in far fewer Python steps.

A round costs about what it splits, and on the few hundred to few thousand
cells of a 1-D problem its cost is the number of numpy calls it makes, not
the cells: about 60 us per round on a 2 vCPU Xeon (Python 3.11, numpy
2.4).  So a round makes few of them:

- The polynomial is compiled once per run into an enclosure plan
  (``_plan``): the axes with their highest and even powers, and each term's
  coefficient and factors.
- A cell is a column ``lo..., hi...`` of one array, so both ends of an axis
  are one ``(2, n)`` view, and each power, term and sum covers both ends in
  one call.
- ``_split`` copies the parents twice and writes the midpoint into each
  half; the children of a round are enclosed in one pass over ``[left;
  right]``, which computes their contributions only, and just those 1-D
  contributions are interleaved into creation order.  The printed trace
  sums them in that order.
- The corners stay in a store: a left child takes over its parent's column
  and the right children of a round are appended, so a round moves the
  corners of the split cells only.
- The selection starts from the previous round's smallest pick, or from
  ``np.partition`` when that pick would not have covered the previous
  round's selection either.

The enclosures are bit for bit those of the scalar ``_refine_py.poly_range``
wherever no NaN arises:

- The powers of an axis come from one chain of products, ``x``, ``x * x``,
  ..., the same floats as the scalar ``_ipow``, which multiplies from 1.0.
  The ends of the axis are put in order first.  On a cell this changes at
  most the sign of a zero end, and no sum started from +0.0, as both
  enclosures' sums are, keeps the sign of a zero; on a cell whose midpoint
  overflowed to infinity, the scalar minimum and maximum of the products do
  not depend on the order of the ends either.
- An even power's ends are the powers of the least and the greatest ``|x|``
  on the cell, the same floats since rounding is symmetric in sign.
- With ordered ends every power's ends are in order, since rounding is
  monotone, so a term's first factor ``c * x^e`` has the ends ``c * lo^e``
  and ``c * hi^e``, swapped when ``c < 0``: the minimum and maximum of the
  two products, without comparing them.
- Each further factor takes the minimum and maximum of four products.
  ``np.minimum`` and ``np.maximum`` return the numbers that Python's
  ``min`` and ``max`` return unless a product is NaN; equal numbers may
  differ in the sign of a zero only.
- A term with a zero coefficient adds a zero, and is left out.

NaN policy: a NaN (``0 * inf`` in a product, or ``inf - inf`` where range
ends overflow) propagates into its cell's contribution and so into the
gap, where the scalar ``min`` and ``max`` would drop a NaN product and
return an enclosure of what was not computed.  A NaN gap never falls below
epsilon and never clears, since the cell that makes it always keeps a NaN
child, so ``refine_poly`` and the uniform loop raise ``InputError`` on it
at once.  An infinite gap is allowed: it can still fall below epsilon as
the cells shrink.  A round whose gap is inf splits every cell that
contributes inf (see ``_largest_first``).

This engine re-sums its contributions every round.  The heap keeps a
running sum of its finite contributions, which can overflow by itself (on
``0.9e308 * x`` over [-1, 1] the root's two halves contribute 0.9e308
each), and takes it afresh over the live cells when it does; both engines
converge there in 404 cells.

Where the two engines still differ: on runs stopped by the budget the sums
can differ in the last bits.  The last round here takes the ``limit``
largest cells, where the heap may split a child first.  On ``1e308 * x``
over [-1, 1] at 1e300 with a budget of 200,000, the lower sums are
-1.124665141104844e+303 here and -1.1246651411048436e+303 in the heap.
The tests compare the engines on converged runs and pin this engine's
budget stops.

``refine_grid`` is the ``grid`` strategy on the same cells: it hands
``_sums`` and ``_split`` to the uniform loop ``_refine_py.refine_uniform``,
which splits every cell each round.

numpy is imported inside the functions that use it, so that importing
famkit (and every subcommand that integrates no polynomial) stays free of
its start-up time and memory.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from ._refine_py import NAN_GAP, darboux_sum, exact_sum, refine_uniform
from .errors import InputError

# cells per vectorized pass over cell terms; about a dozen temporaries of
# twice this length are alive at once, so it bounds their memory
BLOCK = 4096


def backend_name() -> str:
    """Which engine integrates polynomials; nothing is compiled, so "python"."""
    return "python"


def _plan(exps, coeffs):
    """The enclosure plan of a polynomial: ``(axes, terms)``.

    ``axes`` holds ``(d, odd, evens)`` for every axis ``d`` that a term
    raises to a power: its highest odd exponent (0 if none) and the set of
    its even ones.  ``terms`` holds ``(c, factors)`` in term order,
    ``factors`` the pairs ``(d, e)`` with ``e > 0``.  Terms with a zero
    coefficient are left out: they add a zero, which a sum started from
    +0.0 does not keep, or a NaN where a power overflows to infinity.
    """
    odd: dict[int, int] = {}
    evens: dict[int, set[int]] = {}
    terms = []
    for exp, c in zip(exps, coeffs):
        if c == 0.0:
            continue
        factors = tuple((d, e) for d, e in enumerate(exp) if e)
        for d, e in factors:
            odd.setdefault(d, 0)
            evens.setdefault(d, set())
            if e % 2:
                odd[d] = max(odd[d], e)
            else:
                evens[d].add(e)
        terms.append((float(c), factors))
    return tuple((d, odd[d], frozenset(evens[d])) for d in sorted(odd)), tuple(terms)


def _enclose(plan, cells):
    """The enclosures of the polynomial over the columns of ``cells``, one
    cell ``lo..., hi...`` each: a ``(2, n)`` array of lower and upper ends."""
    import numpy as np

    axes, terms = plan
    n = cells.shape[1]
    ends = cells.reshape(2, -1, n)
    powers = {}
    for d, odd, evens in axes:
        x = np.empty((2, n))
        np.minimum(ends[0, d], ends[1, d], out=x[0])
        np.maximum(ends[0, d], ends[1, d], out=x[1])
        # the chain x, x * x, x * x * x, ... of the scalar _ipow
        a = x
        for e in range(1, odd + 1, 2):
            if e > 1:
                a = a * x * x
            powers[d, e] = a
        if evens:
            # an even power's ends are the powers of the least and the
            # greatest |x| on the cell: max(lo, -hi, 0) and max(-lo, hi)
            a = q = np.maximum(x, -x[::-1])
            np.maximum(q[0], 0.0, out=q[0])
            for e in range(2, max(evens) + 1):
                a = a * q
                if e in evens:
                    powers[d, e] = a
    out = np.zeros((2, n))
    for c, factors in terms:
        if not factors:
            out += c
            continue
        t = c * powers[factors[0]]
        if c < 0.0:
            t = t[::-1]
        for factor in factors[1:]:
            products = (t[:, None] * powers[factor]).reshape(4, n)
            t = np.empty((2, n))
            products.min(axis=0, out=t[0])
            products.max(axis=0, out=t[1])
        out += t
    return out


def poly_range_batch(exps: Sequence[Sequence[int]], coeffs: Sequence[float], lo, hi):
    """Interval enclosures of a polynomial over ``n`` boxes at once.

    ``lo`` and ``hi`` are float arrays of shape ``(n, dim)``.  Returns the
    arrays ``(rlo, rhi)``, bit for bit the scalar ``_refine_py.poly_range``
    of each box wherever no product is NaN.
    """
    import numpy as np

    rlo, rhi = _enclose(_plan(exps, coeffs), np.concatenate((lo.T, hi.T)))
    return rlo, rhi


def _terms(plan, cells):
    """The enclosures of the columns of ``cells`` and their volumes,
    ``1.0 * w_0 * w_1 ...`` as the scalar engines multiply them."""
    dim = cells.shape[0] // 2
    widths = cells[dim:] - cells[:dim]
    vol = widths[0]
    for w in widths[1:]:
        vol = vol * w
    return _enclose(plan, cells), vol


def _blocks(plan, cells):
    """``_terms`` over consecutive blocks of ``BLOCK`` columns."""
    for start in range(0, cells.shape[1], BLOCK):
        yield _terms(plan, cells[:, start:start + BLOCK])


def _contributions(plan, cells):
    """``(rhi - rlo) * vol`` of each cell."""
    import numpy as np

    if cells.shape[1] <= BLOCK:
        ends, vol = _terms(plan, cells)
        return (ends[1] - ends[0]) * vol
    return np.concatenate([(ends[1] - ends[0]) * vol for ends, vol in _blocks(plan, cells)])


def _sums(plan, cells) -> tuple[float, float]:
    """The exactly rounded lower and upper Darboux sums over ``cells``,
    from one enclosure of each cell."""
    import numpy as np

    terms = np.concatenate([ends * vol for ends, vol in _blocks(plan, cells)], axis=1)
    # memoryviews yield Python floats, twice as fast as numpy scalars, and
    # can be read again where fsum's partial sums overflow
    return darboux_sum(memoryview(terms[0]), "lower"), darboux_sum(memoryview(terms[1]), "upper")


def _split(cells):
    """The halves of the cells (columns), all left halves then all right
    halves, each cell split at the midpoint of its widest axis (lowest axis
    index on ties) as ``_refine_py.split_widest`` splits it."""
    import numpy as np

    dim, k = cells.shape[0] // 2, cells.shape[1]
    halves = np.concatenate((cells, cells), axis=1)
    mids = 0.5 * (cells[:dim] + cells[dim:])
    over = np.isinf(mids)
    if over.any():
        # as in split_widest: where lo + hi overflows, halving each is exact
        mids[over] = 0.5 * cells[:dim][over] + 0.5 * cells[dim:][over]
    # in 1-D every cell's widest axis is its only one
    widest = True if dim == 1 else np.arange(dim)[:, None] == (cells[dim:] - cells[:dim]).argmax(0)
    np.copyto(halves[dim:, :k], mids, where=widest)
    np.copyto(halves[:dim, k:], mids, where=widest)
    return halves


def _append_pairs(kept, first, second):
    """``kept``, then ``first[0], second[0], first[1], second[1], ...``"""
    import numpy as np

    pairs = np.empty(len(kept) + 2 * len(first), dtype=kept.dtype)
    pairs[:len(kept)] = kept
    pairs[len(kept)::2] = first
    pairs[len(kept) + 1::2] = second
    return pairs


def _largest_first(contrib, excess, limit, guess, start=math.inf):
    """The fewest largest cells (earliest first among equal contributions)
    whose contributions add up to at least ``excess``, at most ``limit`` of
    them, with the running sums of their contributions.

    The candidates are every cell at or above a threshold, stably sorted
    by contribution: the cells above it in order, then the cells equal to
    it in creation order.  The threshold starts at ``start``, or with
    ``start=None`` at the first partition.  While the candidates fall short
    of the excess, the threshold drops to the ``m``-th largest
    contribution, ``m`` growing fourfold from ``guess``.

    An infinite excess takes every cell whose contribution is inf, in
    creation order: no finite sum covers it, and each of them must split
    before the gap can become finite.  The heap splits them one by one in
    the same order, so the cells that follow are the same.
    """
    if excess == math.inf:
        infinite = (contrib == math.inf).nonzero()[0][:limit]
        if len(infinite):
            return infinite, contrib[infinite].cumsum()
    n = len(contrib)
    threshold = start
    found = 0
    m = max(guess, 1)
    while True:
        if threshold is not None:
            at_least = (contrib >= threshold).nonzero()[0]
            values = contrib[at_least]
            order = (-values).argsort(kind="stable")
            cand = at_least[order]
            sums = values[order].cumsum()
            found = len(cand)
            if found >= limit or (found and sums[-1] >= excess):
                break
        while m <= found:
            m *= 4
        lower = math.nan
        if m < n:
            part = contrib.copy()
            part.partition(n - m)
            lower = part[n - m]
        if not lower < (math.inf if threshold is None else threshold):
            # the cut lies among the last cells, or a NaN does not compare
            cand = (-contrib).argsort(kind="stable")
            sums = contrib[cand].cumsum()
            break
        threshold = lower
    k = min(int(sums.searchsorted(excess)) + 1, len(cand), limit)
    return cand[:k], sums


def _quiet(run):
    """``run`` under one ``np.errstate`` per call: overflow to infinity and
    NaN are part of the enclosure arithmetic (see the NaN policy above), so
    numpy's warnings about them would only reach the CLI's stderr."""

    @functools.wraps(run)
    def quiet(*args):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return run(*args)

    return quiet


@_quiet
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
    exactly rounded (``exact_sum``) over the live cells.  ``trace`` holds
    ``(ncells, gap)`` at the start, at each power-of-two cell count, and at
    the end.  Raises ``InputError`` when the gap is NaN or a final sum
    overflows.
    """
    import numpy as np

    plan = _plan(exps, coeffs)
    dim = len(lo0)
    # the live cells in creation order, so that a stable sort breaks ties
    # as the heap's cell ids do: their contributions, and the columns of
    # their corners in ``store``, whose first n columns are the live cells
    store = np.array([[*lo0, *hi0]], dtype=float).T
    cols = np.zeros(1, dtype=np.intp)
    contrib = _contributions(plan, store)
    trace = [(1, float(contrib[0]))]
    next_trace = 2
    guess = 1
    start = last = math.inf
    converged = False
    while True:
        n = len(contrib)
        gap = float(contrib.sum())
        if gap != gap:
            raise InputError(NAN_GAP.format(n))
        exact = None
        if gap < eps:
            exact = gap = exact_sum(memoryview(contrib))
            if gap < eps:
                converged = True
                break
        if n >= max_cells:
            break
        picked, split_sums = _largest_first(contrib, gap - eps, max_cells - n, 2 * guess, start)
        k = guess = len(picked)
        # contributions never grow when a cell is split, so the smallest
        # pick is where the next selection starts, unless it lies below the
        # last round's: a selection from there would have fallen short, so
        # the next one starts from the partition
        smallest = float(contrib[picked[-1]])
        start = smallest if smallest >= last else None
        last = smallest

        # each parent becomes its left child and then its right child, in
        # the order in which the heap numbers them: the left child keeps
        # the parent's column and the right one takes column n + i
        parents = cols[picked]
        halves = _split(store.take(parents, 1))
        children = _contributions(plan, halves)
        keep = np.ones(n, dtype=bool)
        keep[picked] = False
        before = contrib
        contrib = _append_pairs(contrib[keep], children[:k], children[k:])
        cols = _append_pairs(cols[keep], parents, np.arange(n, n + k))

        while next_trace <= n + k:
            j = next_trace - n
            traced = gap - float(split_sums[j - 1]) + float(contrib[n - k:n - k + 2 * j].sum())
            if not math.isfinite(traced):
                # inf - inf in an infinite round: the live cells at this
                # count, the kept ones, the first j picks' children and
                # the other picks, summed afresh
                traced = exact_sum(memoryview(np.concatenate((contrib[:n - k + 2 * j], before[picked[j:]]))))
            trace.append((next_trace, traced))
            next_trace *= 2

        if n + k > store.shape[1]:
            grown = np.empty((2 * dim, min(max(2 * store.shape[1], n + k), max_cells)))
            grown[:, :n] = store[:, :n]
            store = grown
        store[dim:, parents] = halves[dim:, :k]
        store[:, n:n + k] = halves[:, k:]

    n = len(contrib)
    trace.append((n, exact_sum(memoryview(contrib)) if exact is None else exact))
    # exactly rounded sums do not depend on the order of the cells
    lower, upper = _sums(plan, store[:, :n])
    return lower, upper, n, converged, trace


@_quiet
def refine_grid(
    exps: Sequence[Sequence[int]],
    coeffs: Sequence[float],
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Uniform dyadic refinement of a polynomial by
    ``_refine_py.refine_uniform``, its cells the columns of one array.

    The cells are the float cells of ``integrate._refine_grid``'s scalar
    rounds, and the exactly rounded sums do not depend on their order, so
    the results are bit-identical to it.
    """
    import numpy as np

    plan = _plan(exps, coeffs)
    return refine_uniform(lambda cells: _sums(plan, cells), _split,
                          np.array([[*lo0, *hi0]], dtype=float).T, eps, max_cells)
