"""Batched refinement of polynomial Darboux sums over numpy arrays of cells.

``refine_poly`` is the heap of ``_refine_py.refine_generic`` on the
polynomial enclosure, bit for bit, run in rounds of many cells.  The heap
splits the live cell that contributes most to the Darboux gap, earliest
created first among equals; a round splits the next cells of that order
for as long as the heap would do nothing else:

- Its window (``_window``) is every cell that contributes at least ``r``
  times the largest contribution, in the heap's order.  ``r`` is the
  previous round's largest ratio of a child's contribution to its
  parent's, 1/2 before any split: where the ratio holds, the first cell's
  children outrank every cell below the window.
- It encloses the halves of ``SPLITS`` window cells at a time and keeps
  the prefix that the heap splits next.  A child is created after every
  live cell, so it outranks a cell only by contributing more; the prefix
  ends before the first cell that a child of the round outranks.
- The heap keeps a running gap: the finite contributions summed one at a
  time from -0.0 (minus a parent, plus its left and its right child), and
  the count of the infinite ones.  Here it is a float carried from round
  to round and extended by ``np.cumsum``, which adds in the same order.
  The prefix also ends at the first split after which the heap checks
  that gap: where it falls below epsilon with no cell contributing inf
  (the heap then takes the exact sum, and stops or goes on from it), and
  where it has overflowed to inf and the heap sums its live cells afresh
  (at most once per doubling of the cells).  The window holds no more
  cells than the budget leaves.

So lower, upper, the cell count, convergence and the trace are the heap's,
budget stops included.  On the 32 1-D quartics of ``bench_refine.py``,
shaped like the adaptive problems of the perfbench ``quadrature`` workload,
this takes 352 rounds, about 95 us each, 34 ms in all on a 2 vCPU Xeon
(Python 3.11, numpy 2.4).  On the few hundred to few thousand cells of a
1-D problem the cost of a round is the number of numpy calls it makes, not
the cells, so a round makes few of them:

- The polynomial comes compiled into its enclosure plan
  (``_refine_py._plan``, kept as ``PolynomialFn.plan``): the axes with their
  highest and even powers, and each term's coefficient and factors.
- A cell is a column ``lo..., hi...`` of one array, so both ends of an axis
  are one ``(2, n)`` view, and each power, term and sum covers both ends in
  one call.
- ``_split`` copies the parents twice and writes the midpoint into each
  half; the halves are enclosed in one pass over ``[left; right]``, which
  computes their contributions only, and just those 1-D contributions are
  interleaved into creation order.
- The corners stay in a store: a left child takes over its parent's column
  and the right children are appended, so a round moves the corners of the
  split cells only.

The enclosures are bit for bit those of the scalar ``_refine_py.poly_range``
wherever no NaN arises: both walk the same plan in the same steps (see
``_refine_py._plan``).

NaN policy: a NaN (``0 * inf`` in a product, or ``inf - inf`` where range
ends overflow) propagates into its cell's contribution and so into the
gap, where the scalar ``min`` and ``max`` would drop a NaN product and
return an enclosure of what was not computed.  A NaN gap never falls below
epsilon and never clears, since the cell that makes it always keeps a NaN
child, so ``refine_poly`` raises ``InputError`` at the start of the round
after it arises, where the heap would split on to the budget, and the
uniform loop raises at once.  An infinite gap is allowed: it can still
fall below epsilon as the cells shrink.  The cells that contribute inf come
first in the heap's order, and no child outranks them, so a round splits
all of them.

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
# cells split per pass of a round: the halves of a pass, half a BLOCK, are
# enclosed at once, so a round's temporaries take half the memory of those
# of the final sums
SPLITS = BLOCK // 4


def backend_name() -> str:
    """Which engine integrates polynomials; nothing is compiled, so "python"."""
    return "python"


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
        # the chain x, x * x, x * x * x, ...
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


def _terms(plan, cells):
    """The enclosures of the columns of ``cells`` and their volumes,
    ``1.0 * w_0 * w_1 ...`` as the scalar engines multiply them."""
    dim = cells.shape[0] // 2
    widths = cells[dim:] - cells[:dim]
    vol = widths[0]
    for w in widths[1:]:
        vol = vol * w
    return _enclose(plan, cells), vol


def _contributions(plan, cells):
    """``(rhi - rlo) * vol`` of each column of ``cells``."""
    ends, vol = _terms(plan, cells)
    return (ends[1] - ends[0]) * vol


def _sums(plan, cells) -> tuple[float, float]:
    """The exactly rounded lower and upper Darboux sums over ``cells``,
    from one enclosure of each cell, enclosed ``BLOCK`` columns at a time."""
    import numpy as np

    terms = np.empty((2, cells.shape[1]))
    for start in range(0, cells.shape[1], BLOCK):
        ends, vol = _terms(plan, cells[:, start:start + BLOCK])
        np.multiply(ends, vol, out=terms[:, start:start + BLOCK])
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


def _append_pairs(live, keep, first, second):
    """The entries of ``live`` where ``keep`` is set (all but
    ``len(first)`` of them), then ``first[0], second[0], first[1], ...``"""
    import numpy as np

    kept = len(live) - len(first)
    pairs = np.empty(kept + 2 * len(first), dtype=live.dtype)
    live.compress(keep, out=pairs[:kept])
    pairs[kept::2] = first
    pairs[kept + 1::2] = second
    return pairs


def _window(contrib, top: float, ratio: float, limit: int):
    """The live cells that a round may split, in the heap's order: every
    cell that contributes at least ``ratio * top``, largest first and
    earliest created first among equals, at most ``limit`` of them: their
    positions in ``contrib``."""
    threshold = ratio * top
    if not threshold > 0.0:
        # 0 * inf, or an underflow: a cell that contributes 0 never splits
        threshold = math.ulp(0.0)
    at_least = (contrib >= threshold).nonzero()[0]
    return at_least[(-contrib[at_least]).argsort(kind="stable")[:limit]]


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
    plan,
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Adaptive largest-first refinement of a polynomial, given by its
    enclosure plan (``_refine_py._plan``), until the Darboux gap is
    certified below ``eps`` or the cell budget runs out: the heap of
    ``_refine_py.refine_generic`` on ``poly_range``, bit for bit, in rounds.

    A round takes the window of cells that contribute at least ``r`` times
    the largest contribution (``r`` is the last round's largest ratio of a
    child's contribution to its parent's, 1/2 at first), largest first and
    earliest created first among equals, and bisects the prefix of it that
    the heap splits next, each cell at the midpoint of its widest axis
    (lowest axis index on ties).

    Returns ``(lower, upper, ncells, converged, trace)``.  The sums are
    exactly rounded (``exact_sum``) over the live cells.  ``trace`` holds
    ``(ncells, gap)`` at the start, the heap's running gap at each
    power-of-two cell count, and the certified gap at the end.  Raises
    ``InputError`` when the gap is NaN or a final sum overflows.
    """
    import numpy as np

    # the live cells in creation order, so that a stable sort breaks ties
    # as the heap's cell ids do: their contributions, and the columns of
    # their corners in ``store``, whose first n columns are the live cells
    store = np.array([[*lo0, *hi0]], dtype=float).T
    cols = np.zeros(1, dtype=np.intp)
    contrib = _contributions(plan, store)
    root = float(contrib[0])
    trace = [(1, root)]
    # the heap's running gap: the finite contributions summed in its order
    # from -0.0, and the count of the infinite ones; where the sum
    # overflows it is taken afresh, at most once per doubling of the cells
    infinite = int(root == math.inf)
    finite = -0.0 if infinite else root
    resum_at = 0
    ratio = 0.5

    def split_round(picked):
        """Split the prefix of the window ``picked`` (positions in
        ``contrib``, in the heap's order) that the heap splits next,
        enclosing the halves of ``SPLITS`` cells at a time.

        A child is created after every live cell, so it outranks a cell
        only by contributing more.  The prefix ends before the first cell
        that a child of an earlier split outranks, and at the first split
        after which the heap checks its running gap: where no cell
        contributes inf and the finite sum falls below ``eps``, or
        overflows to inf at ``resum_at`` cells or more.
        """
        nonlocal store, cols, contrib, finite, infinite, ratio
        n = len(contrib)
        parts = []  # the children's contributions, (2, cut) per pass
        k = 0
        reach = -math.inf  # the largest contribution of a child so far
        largest = -math.inf  # the largest ratio of a child to its parent
        for start in range(0, len(picked), SPLITS):
            pv = contrib[picked[start:start + SPLITS]]
            if pv[0] < reach:
                break
            m = len(pv)
            cells = cols[picked[start:start + m]]
            halves = _split(store.take(cells, 1))
            children = _contributions(plan, halves).reshape(2, m)
            best = np.maximum(children[0], children[1])
            reaches = np.maximum.accumulate(best)
            if start:
                np.maximum(reaches, reach, out=reaches)
            outranked = (pv[1:] < reaches[:-1]).nonzero()[0]
            cut = int(outranked[0]) + 1 if len(outranked) else m

            # the running gap after each split, summed in the heap's order:
            # minus the parent, plus the left and the right child; an
            # infinite term is counted instead, and adds -0.0, which
            # changes no sum
            steps = np.empty(3 * cut + 1)
            steps[0] = finite
            np.negative(pv[:cut], out=steps[1::3])
            steps[2::3] = children[0, :cut]
            steps[3::3] = children[1, :cut]
            counts = None
            if infinite or pv[0] == math.inf or reaches[cut - 1] == math.inf:
                terms = steps[1:].reshape(cut, 3)
                infs = np.isinf(terms)  # -inf parents, inf children
                terms[infs] = -0.0
                counts = infinite + (infs[:, 1:].sum(1) - infs[:, 0]).cumsum()
            sums = steps.cumsum()[3::3]
            stop = sums < eps
            if not sums[-1] < math.inf:
                # an overflowed sum stays inf until the heap sums afresh
                stop |= (sums == math.inf) & (np.arange(n + k + 1, n + k + cut + 1) >= resum_at)
            if counts is not None:
                stop &= counts == 0
            stops = stop.nonzero()[0]
            if len(stops):
                cut = int(stops[0]) + 1

            traced = 1 << (n + k).bit_length()
            while traced <= n + k + cut:
                j = traced - n - k - 1
                trace.append((traced, math.inf if counts is not None and counts[j] else float(sums[j])))
                traced *= 2
            finite = float(sums[cut - 1])
            if counts is not None:
                infinite = int(counts[cut - 1])
            # max() keeps its first argument over a NaN (inf / inf)
            largest = max(largest, float((best[:cut] / pv[:cut]).max()))
            reach = float(reaches[cut - 1])

            # each parent becomes its left child and then its right child,
            # in the order in which the heap numbers them: the left child
            # keeps the parent's column and the right one takes the next
            # free column
            if n + k + cut > store.shape[1]:
                grown = np.empty((store.shape[0], min(max(2 * store.shape[1], n + k + cut), max_cells)))
                grown[:, :n + k] = store[:, :n + k]
                store = grown
            store[:, cells[:cut]] = halves[:, :cut]
            store[:, n + k:n + k + cut] = halves[:, m:m + cut]
            parts.append(children[:, :cut])
            k += cut
            # the heap checks its gap after the last split, or a child
            # outranks the next cell
            if len(stops) or cut < m:
                break

        born = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        keep = np.ones(n, dtype=bool)
        keep[picked[:k]] = False
        contrib = _append_pairs(contrib, keep, born[0], born[1])
        cols = _append_pairs(cols, keep, cols[picked[:k]], np.arange(n, n + k))
        if largest >= 0.0:
            ratio = min(largest, 1.0)

    converged = False
    while True:
        n = len(contrib)
        if finite != finite:
            raise InputError(NAN_GAP.format(n))
        if finite == math.inf and not infinite and n >= resum_at:
            finite = exact_sum(memoryview(contrib))
            resum_at = 2 * n
        if not infinite and finite < eps:
            gap = exact_sum(memoryview(contrib))
            if gap < eps:
                converged = True
                break
            finite = gap
            continue
        if n >= max_cells:
            break
        top = float(contrib.max())
        if not top > 0.0:  # no cell contributes
            gap = exact_sum(memoryview(contrib))
            converged = gap < eps
            break
        split_round(_window(contrib, top, ratio, max_cells - n))

    n = len(contrib)
    trace.append((n, gap if converged else exact_sum(memoryview(contrib))))
    # exactly rounded sums do not depend on the order of the cells
    lower, upper = _sums(plan, store[:, :n])
    return lower, upper, n, converged, trace


@_quiet
def refine_grid(
    plan,
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Uniform dyadic refinement of a polynomial, given by its plan, by
    ``_refine_py.refine_uniform``, its cells the columns of one array.

    The cells are the float cells of ``integrate._refine_grid``'s scalar
    rounds, and the exactly rounded sums do not depend on their order, so
    the results are bit-identical to it.
    """
    import numpy as np

    return refine_uniform(lambda cells: _sums(plan, cells), _split,
                          np.array([[*lo0, *hi0]], dtype=float).T, eps, max_cells)
