"""Scalar refinement for box-backend Darboux sums.

``refine_generic`` is the largest-contribution-first policy on a heap of
float cells: split the live cell that contributes most to the Darboux gap
(oldest first among equals) at the midpoint of its widest axis
(``split_widest``, lowest axis index on ties), until the gap is certified
below epsilon or the cell budget runs out.  It serves the scalar oracles
other than indicators (restrictions, piecewise-constant and Lipschitz
functions) and is the reference that the batched polynomial engine in
``famkit._refine`` reproduces bit for bit, in rounds.  Indicator integrals need no cells
of their own: they are the indicator's value times an exact Jordan
bracket (``integrate.measure_bracket``).

``refine_uniform`` splits every cell each round instead: the ``grid``
strategy runs it on lists and on numpy rows of float cells, and Cantor
integrals on cylinder depths.

``_plan`` compiles a polynomial's natural interval extension once, and
``poly_range`` walks it on one box.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Sequence

from .errors import InputError

# a NaN gap never falls below epsilon, nor does it clear as cells shrink
NAN_GAP = "the Darboux gap is NaN at {} cells: the range enclosures overflow"
OVERFLOW = "the {} Darboux sum overflows the float range"


def exact_sum(terms) -> float:
    """``math.fsum(terms)``, the sum of a sequence of floats rounded once.
    Where fsum's partial sums overflow, the terms are summed exactly, so a
    sum inside the float range is returned and one beyond it is ``±inf``.
    Where a term is not finite the sum is fsum's sum of those terms alone
    (``inf``, ``-inf`` or NaN), and a sum of ``-inf`` and ``+inf`` raises
    ``ValueError``, as fsum does."""
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    specials = [x for x in terms if not math.isfinite(x)]
    if specials:
        return math.fsum(specials)
    # each float is m / 2**k: the sum is an integer over the largest 2**k
    ratios = [x.as_integer_ratio() for x in terms]
    den = max(q for _, q in ratios)
    num = sum(p * (den // q) for p, q in ratios)
    try:
        return num / den  # correctly rounded, as int / int always is
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def darboux_sum(terms, which: str) -> float:
    """The exactly rounded sum of the sequence ``terms``, the ``which``
    ("lower" or "upper") Darboux sum; ``±inf`` where it leaves the float
    range, which a refinement round may pass on and :func:`finite_sum`
    refuses to report.  Raises ``InputError`` on a sum of ``-inf`` and
    ``+inf`` terms, which has no value."""
    try:
        return exact_sum(terms)
    except ValueError:
        raise InputError(OVERFLOW.format(which)) from None


def finite_sum(total: float, which: str) -> float:
    """``total``, a final ``which`` Darboux sum about to be reported.
    Raises ``InputError`` unless it is finite.  A refinement round may
    pass an infinite sum on, since a finer partition can still clear it,
    but a report cannot state one."""
    if not math.isfinite(total):
        raise InputError(OVERFLOW.format(which))
    return total


def _plan(exps, coeffs):
    """The enclosure plan of a polynomial, ``(axes, terms)``: the one
    compiled form of its natural interval extension.

    ``axes`` holds ``(d, odd, evens)`` for every axis ``d`` that a term
    raises to a power: its highest odd exponent (0 if none) and its even
    ones, in order.  ``terms`` holds ``(c, factors)`` in term order,
    ``factors`` the pairs ``(d, e)`` with ``e > 0``.  Terms with a zero
    coefficient are left out: they add a zero, which a sum started from
    +0.0 does not keep, or a NaN where a power overflows to infinity.

    :func:`poly_range` walks the plan on one box, ``_refine._enclose`` on
    numpy columns of cells and ``cantor._poly_blocks`` on lists of cylinder
    images.  They take the same steps, so their enclosures agree bit for
    bit wherever no NaN arises:

    - Each axis's ends are put in order, which changes at most the sign of
      a zero end; no sum started from +0.0 keeps the sign of a zero.
    - Each power is the one before it times ``x``.  An odd power's ends are
      the powers of the ends, an even power's the powers of the least and
      the greatest ``|x|``, ``max(lo, -hi, 0)`` and ``max(-lo, hi)`` (on
      the cylinder images, which lie in [0, 1], ``lo`` and ``hi``).
    - Rounding is monotone, so a term's first factor ``c * x^e`` has the
      ends ``c * lo^e`` and ``c * hi^e``, swapped when ``c < 0``.
    - Each further factor takes the minimum and the maximum of four
      products: ``np.minimum`` and ``np.maximum`` return the numbers that
      Python's ``min`` and ``max`` return unless a product is NaN, up to
      the sign of a zero.
    - The terms add up from +0.0 in term order.
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
    return tuple((d, odd[d], tuple(sorted(evens[d]))) for d in sorted(odd)), tuple(terms)


def poly_range(plan, lo: Sequence[float], hi: Sequence[float]) -> tuple[float, float]:
    """Interval enclosure of a polynomial over the box ``[lo, hi]``: the
    walk of its plan (:func:`_plan`) on one box."""
    axes, terms = plan
    powers = {}
    for d, odd, evens in axes:
        a, b = (lo[d], hi[d]) if lo[d] <= hi[d] else (hi[d], lo[d])
        pa, pb = a, b
        for e in range(1, odd + 1, 2):
            powers[d, e] = pa, pb
            pa, pb = pa * a * a, pb * b * b
        if evens:
            qa, qb = max(a, -b, 0.0), max(b, -a)
            pa, pb = qa, qb
            for e in range(2, evens[-1] + 1):
                pa, pb = pa * qa, pb * qb
                if e in evens:
                    powers[d, e] = pa, pb
    rlo = rhi = 0.0
    for c, factors in terms:
        if not factors:
            rlo += c
            rhi += c
            continue
        pa, pb = powers[factors[0]]
        tlo, thi = (c * pb, c * pa) if c < 0.0 else (c * pa, c * pb)
        for factor in factors[1:]:
            pa, pb = powers[factor]
            w, x, y, z = tlo * pa, tlo * pb, thi * pa, thi * pb
            tlo, thi = min(w, x, y, z), max(w, x, y, z)
        rlo += tlo
        rhi += thi
    return rlo, rhi


def split_widest(lo: list[float], hi: list[float]):
    """The two halves of the cell ``[lo, hi]``, split at the midpoint of its
    widest axis (lowest axis index on ties).  The halves share the parent's
    lists, which are never mutated."""
    axis = 0
    width = hi[0] - lo[0]
    for d in range(1, len(lo)):
        w = hi[d] - lo[d]
        if w > width:
            width = w
            axis = d
    mid = 0.5 * (lo[axis] + hi[axis])
    if math.isinf(mid):
        # lo + hi overflows, so both ends are far above the subnormals and
        # halving each is exact
        mid = 0.5 * lo[axis] + 0.5 * hi[axis]
    left_hi = hi[:]
    left_hi[axis] = mid
    right_lo = lo[:]
    right_lo[axis] = mid
    return (lo, left_hi), (right_lo, hi)


def refine_generic(
    range_fn: Callable[[Sequence[float], Sequence[float]], tuple[float, float]],
    lo0: Sequence[float],
    hi0: Sequence[float],
    eps: float,
    max_cells: int,
) -> tuple[float, float, int, bool, list[tuple[int, float]]]:
    """Adaptive largest-contribution-first refinement: split the live cell
    that contributes most to the Darboux gap (oldest first among equals)
    until the gap is certified below ``eps`` or the live cells reach
    ``max_cells``.

    Returns ``(lower, upper, ncells, converged, trace)`` where the final
    sums are exactly rounded (``exact_sum``) over the live cells, and
    ``±inf`` where they leave the float range.  ``trace`` holds the running
    gap as ``(ncells, gap)`` when the cells reach a power of two, and the
    certified gap at the end.  Raises ``InputError`` on a sum of ``-inf``
    and ``+inf`` terms.
    """
    # every live cell is in the heap once, as (-contribution, id, lo, hi,
    # range lo, range hi, volume); ids are unique, so lists are never compared
    heap: list[tuple] = []
    ids = itertools.count()
    # the running gap is the sum of the finite contributions, or inf while
    # ``infinite`` live cells contribute inf: splitting one of them then
    # takes nothing from the sum, where adding -inf to inf would make it NaN.
    # The sum starts at -0.0, since -0.0 + x is x for every float x.  Finite
    # contributions can still overflow the sum by themselves, and inf never
    # comes back down, so an overflowed sum is taken afresh over the live
    # cells; after each fresh sum the next waits until the cells have
    # doubled, which bounds the work of all of them by twice the cells.
    finite = -0.0
    infinite = 0
    resum_at = 0

    def push(lo: list[float], hi: list[float]) -> float:
        nonlocal finite, infinite
        vol = 1.0
        for l, h in zip(lo, hi):
            vol *= h - l
        rlo, rhi = range_fn(lo, hi)
        contrib = (rhi - rlo) * vol
        heapq.heappush(heap, (-contrib, next(ids), lo, hi, rlo, rhi, vol))
        if contrib == math.inf:
            infinite += 1
        else:
            finite += contrib
        return contrib

    def certified_gap() -> float:
        return exact_sum([(c[5] - c[4]) * c[6] for c in heap])

    trace = [(1, push([float(x) for x in lo0], [float(x) for x in hi0]))]
    next_trace = 2
    converged = False
    while True:
        if finite == math.inf and not infinite and len(heap) >= resum_at:
            finite = certified_gap()
            resum_at = 2 * len(heap)
        if not infinite and finite < eps:
            exact = certified_gap()
            if exact < eps:
                converged = True
                break
            finite = exact
            continue
        if len(heap) >= max_cells:
            break
        if heap[0][0] >= 0.0:  # no cell contributes
            converged = certified_gap() < eps
            break
        key, _, lo, hi, _, _, _ = heapq.heappop(heap)
        if key == -math.inf:
            infinite -= 1
        else:
            finite += key  # key is minus the parent's contribution
        for half in split_widest(lo, hi):
            push(*half)
        if len(heap) >= next_trace:
            trace.append((len(heap), math.inf if infinite else finite))
            next_trace *= 2
    trace.append((len(heap), certified_gap()))
    lower = darboux_sum([c[4] * c[6] for c in heap], "lower")
    upper = darboux_sum([c[5] * c[6] for c in heap], "upper")
    return lower, upper, len(heap), converged, trace


def refine_uniform(sums, split, cells, eps: float, max_cells: int):
    """Split every cell each round, starting from one, until the gap of
    ``sums(cells)``, a ``(lower, upper)`` pair, is below ``eps`` or the next
    ``split(cells)``, twice as many, would pass ``max_cells``.  Returns
    ``(lower, upper, ncells, converged, trace)``, with ``(ncells, gap)``
    traced every round.  Raises ``InputError`` when the gap is NaN."""
    ncells = 1
    trace = []
    while True:
        lower, upper = sums(cells)
        gap = upper - lower
        if gap != gap:
            raise InputError(NAN_GAP.format(ncells))
        trace.append((ncells, gap))
        if gap < eps:
            return lower, upper, ncells, True, trace
        if 2 * ncells > max_cells:
            return lower, upper, ncells, False, trace
        cells = split(cells)
        ncells *= 2
