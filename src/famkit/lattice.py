"""The integer dyadic lattice under a bounding box, and region verdicts on it.

Every cell that the Jordan bracket splits is a dyadic subbox of the
bounding box.  On axis ``d`` at level ``l`` the cell with index ``i`` is
``[lo_d + w_d*i/2**l, lo_d + w_d*(i+1)/2**l)``, so a cell is one integer
index per axis.  The split axis depends only on the levels (the widest
axis, lowest index on ties), and every split raises one level by one, so
all cells at depth ``S`` (the sum of their levels) share one levels tuple:
``lattice.levels[S]``.

Region classification runs on these integers: :func:`lattice_classifier`
scales each built-in region to integers once, and returns, for each depth,
a function from a cell's index tuple to IN / OUT / STRADDLE.  Verdicts are
exact and equal ``region.classify`` on the cell's ``Fraction`` box.

Half-planes of one to three axes take verdicts unrolled per axis (an
integer dot product), box unions of one and two axes (integer interval
overlaps); more axes take a generic loop.  Each depth only shifts the
integer weights or corners that the call scaled once by that depth's
levels.  A union or an intersection of two parts folds their verdicts
without a loop, and a complement swaps IN and OUT by two comparisons.
``benchmarks/bench_bracket.py`` times this on two composite regions like
those of the regions benchmark (2-D, corners on the 1/8 grid, at 1/256):
about 2.7 µs per verdict asked for a box union joined with an
intersection of two half-planes and 2.1 µs for the complement of a box
union, the bracket's own setup and loop included (on a 2 vCPU Xeon,
Python 3.11).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import Callable

from .boxes import IN, OUT, STRADDLE, Box, BoxElem
from .errors import InputError
from .functions import (
    HalfPlaneRegion,
    RegionComplement,
    RegionIntersection,
    RegionUnion,
    _to_float,
)

#: The least positive normal float.
_NORMAL = sys.float_info.min

#: A cell's index per axis; its levels are ``lattice.levels[depth]``.
Cell = tuple[int, ...]
Verdicts = Callable[[int], Callable[[Cell], int]]


class DyadicLattice:
    """The dyadic cells of a bounding box, split in one fixed axis order."""

    def __init__(self, bounding: Box):
        self.dimension = len(bounding)
        self.lo = tuple(lo for lo, _ in bounding)
        self.width = tuple(hi - lo for lo, hi in bounding)
        self.flat = any(w == 0 for w in self.width)  # every cell has zero volume
        self.levels: list[tuple[int, ...]] = [(0,) * self.dimension]
        self.axes: list[int] = []  # axes[S]: the axis that cells of depth S split
        self._root = [_to_float(w) for w in self.width]
        # float widths of the deepest level, as the float cells' corners
        # give them, so ties between axes break the same way
        self._widths = self._root[:]
        self._ends: dict[tuple[int, int, int], Fraction] = {}
        self._sides: dict[tuple[int, int], dict[int, tuple[Fraction, Fraction]]] = {}

    def axis(self, depth: int) -> int:
        """The split axis of cells at ``depth`` (deepening the lattice as needed)."""
        while len(self.axes) <= depth:
            widths = self._widths
            axis = max(range(self.dimension), key=widths.__getitem__)  # first of equals
            levels = list(self.levels[-1])
            levels[axis] += 1
            widths[axis] = self._width(axis, levels[axis])
            self.axes.append(axis)
            self.levels.append(tuple(levels))
        return self.axes[depth]

    def halves(self, depth: int) -> Callable[[list[Cell]], list[Cell]]:
        """``cells -> [left, right, left, right, ...]``: the two halves of
        each cell of ``depth`` on its split axis, in the cells' order, left
        first; unrolled for one to three axes."""
        axis = self.axis(depth)
        if self.dimension == 1:
            return lambda cells: _interleave([(2 * i,) for i, in cells], [(2 * i + 1,) for i, in cells])
        if self.dimension == 2:
            if axis == 0:
                return lambda cells: _interleave([(2 * i, j) for i, j in cells],
                                                 [(2 * i + 1, j) for i, j in cells])
            return lambda cells: _interleave([(i, 2 * j) for i, j in cells],
                                             [(i, 2 * j + 1) for i, j in cells])
        if self.dimension == 3:
            if axis == 0:
                return lambda cells: _interleave([(2 * i, j, k) for i, j, k in cells],
                                                 [(2 * i + 1, j, k) for i, j, k in cells])
            if axis == 1:
                return lambda cells: _interleave([(i, 2 * j, k) for i, j, k in cells],
                                                 [(i, 2 * j + 1, k) for i, j, k in cells])
            return lambda cells: _interleave([(i, j, 2 * k) for i, j, k in cells],
                                             [(i, j, 2 * k + 1) for i, j, k in cells])
        return lambda cells: _interleave([c[:axis] + (2 * c[axis],) + c[axis + 1:] for c in cells],
                                         [c[:axis] + (2 * c[axis] + 1,) + c[axis + 1:] for c in cells])

    def _width(self, axis: int, level: int) -> float:
        """A cell's width on ``axis`` at ``level``, rounded to nearest."""
        w = math.ldexp(self._root[axis], -level)
        if _NORMAL <= w < math.inf:  # a power-of-two scaling, exact in this range
            return w
        return _to_float(self.width[axis] / (1 << level))

    def point(self, axis: int, level: int, index: int) -> Fraction:
        """``lo + width*index/2**level`` on ``axis``."""
        lo, w = self.lo[axis], self.width[axis]
        q, s = lo.denominator, w.denominator
        return Fraction((lo.numerator * s << level) + w.numerator * index * q, q * s << level)

    def endpoint(self, axis: int, level: int, index: int) -> Fraction:
        """:meth:`point`, built once per point."""
        # (level, index) and (level - 1, index / 2) name the same point
        shift = min(level, (index & -index).bit_length() - 1) if index else level
        level -= shift
        index >>= shift
        key = (axis, level, index)
        end = self._ends.get(key)
        if end is None:
            end = self._ends[key] = self.point(axis, level, index)
        return end

    def boxes(self, depth: int, cells) -> list[Box]:
        """The cells of one depth as boxes of exact rational endpoints; each
        side ``(axis, level, index)`` is built once and then shared."""
        end = self.endpoint
        axes = [(d, level, self._sides.setdefault((d, level), {}))
                for d, level in enumerate(self.levels[depth])]
        out = []
        for cell in cells:
            box = []
            for (d, level, sides), i in zip(axes, cell):
                side = sides.get(i)
                if side is None:
                    side = sides[i] = (end(d, level, i), end(d, level, i + 1))
                box.append(side)
            out.append(tuple(box))
        return out


def _interleave(lefts: list, rights: list) -> list:
    """``[lefts[0], rights[0], lefts[1], rights[1], ...]``."""
    out = [None] * (2 * len(lefts))
    out[::2] = lefts
    out[1::2] = rights
    return out


def lattice_classifier(region, lattice: DyadicLattice) -> Verdicts:
    """``depth -> (cell -> IN / OUT / STRADDLE)`` for ``region`` on ``lattice``.

    Half-planes and box unions are scaled to integers once per call, and
    take verdicts unrolled for one to three axes (half-planes) or one and
    two axes (box unions); unions, intersections and complements combine
    the verdicts of their parts, two parts without a loop.  Any other
    region is asked through its ``classify`` on the cell's rational box.  Raises ``InputError`` on
    a half-plane or a box union in another dimension than the lattice's,
    anywhere in ``region``.
    """
    kind = type(region)
    if kind is HalfPlaneRegion or kind is BoxElem:
        axes = {len(region.normal)} if kind is HalfPlaneRegion else {len(b) for b in region.boxes}
        if axes - {lattice.dimension}:
            raise InputError(f"region dimension mismatch: the box has {lattice.dimension} axes")
        return (_halfplane if kind is HalfPlaneRegion else _boxes)(region, lattice)
    if kind is RegionComplement:
        return _complement(lattice_classifier(region.inner, lattice))
    if kind is RegionUnion:
        return _combine([lattice_classifier(p, lattice) for p in region.parts], IN, OUT)
    if kind is RegionIntersection:
        return _combine([lattice_classifier(p, lattice) for p in region.parts], OUT, IN)
    return _adapter(region, lattice)


def _halfplane(region: HalfPlaneRegion, lattice: DyadicLattice) -> Verdicts:
    # normal . x <= offset is N . x <= K over integers (the region's own
    # scaling); with x_d = lo_d + w_d*(i_d + t_d)/2**l_d, t_d in [0, 1], it is
    # sum_d a_d*(i_d + t_d)/2**l_d <= rest for a_d = N_d*w_d and
    # rest = K - N . lo: over one denominator, the integers A_d and C
    N, K = region._scaled
    lows = [x.as_integer_ratio() for x in lattice.lo]
    widths = [x.as_integer_ratio() for x in lattice.width]
    den = math.lcm(*[d for _, d in lows], *[d for _, d in widths])
    A = [n * wn * (den // wd) for n, (wn, wd) in zip(N, widths)]
    C = K * den - sum(n * ln * (den // ld) for n, (ln, ld) in zip(N, lows))
    g = math.gcd(C, *A)
    if g > 1:  # the least such integers keep the products of each cell small
        A = [x // g for x in A]
        C //= g

    def at(depth):
        levels = lattice.levels[depth]
        top = max(levels)
        W = tuple(x << (top - level) for x, level in zip(A, levels))
        T = C << top
        # the cell's maximum of normal . x is s + (positive weights), its minimum
        # s + (negative weights), where s = W . cell
        inside = T - sum(w for w in W if w > 0)
        outside = T - sum(w for w in W if w < 0)

        # one, two and three axes without the generic dot product
        if len(W) == 1:
            w0, = W

            def verdict(cell):
                s = w0 * cell[0]
                return IN if s <= inside else OUT if s > outside else STRADDLE
        elif len(W) == 2:
            w0, w1 = W

            def verdict(cell):
                s = w0 * cell[0] + w1 * cell[1]
                return IN if s <= inside else OUT if s > outside else STRADDLE
        elif len(W) == 3:
            w0, w1, w2 = W

            def verdict(cell):
                s = w0 * cell[0] + w1 * cell[1] + w2 * cell[2]
                return IN if s <= inside else OUT if s > outside else STRADDLE
        else:
            def verdict(cell):
                s = sum(map(mul, W, cell))
                return IN if s <= inside else OUT if s > outside else STRADDLE

        return verdict

    return at


def _axis_scaled(xs, lo: Fraction, w: Fraction) -> tuple[list[int], int]:
    """Rationals ``xs`` as numerators ``n`` over one denominator ``q``, in
    cell widths of level 0 measured from ``lo``: ``(x - lo)/w = n/q``, for
    a width ``w > 0``.  ``q`` need not be the least such denominator, so
    the points are scaled in integers, without a ``Fraction`` (and its
    gcd) per point."""
    ratios = [x.as_integer_ratio() for x in xs]
    lo_n, lo_d = lo.as_integer_ratio()
    w_n, w_d = w.as_integer_ratio()
    den = math.lcm(lo_d, *[d for _, d in ratios])
    base = lo_n * (den // lo_d)
    return [(n * (den // d) - base) * w_d for n, d in ratios], den * w_n


def _boxes(region: BoxElem, lattice: DyadicLattice) -> Verdicts:
    if lattice.flat or not region.boxes:
        # a zero-volume cell meets no box (and nothing meets no boxes)
        return lambda depth: lambda cell: OUT
    # per axis, every box corner as an integer over one denominator q_d; a
    # cell of level l on that axis is [i*q_d, (i+1)*q_d) against corners << l
    dim = lattice.dimension
    scales = []
    pairs = []  # one iterator per axis, twice: zip takes each box's (lo, hi) from it in turn
    for d in range(dim):
        nums, q = _axis_scaled([x for b in region.boxes for x in b[d]], lattice.lo[d], lattice.width[d])
        scales.append(q)
        it = iter(nums)
        pairs += (it, it)
    # per box, its corners axis by axis: (lo_0, hi_0, lo_1, hi_1, ...)
    ends = list(zip(*pairs))
    # the boxes are disjoint: a cell is IN when their overlaps with it add
    # up to its whole volume, OUT when they add up to nothing
    full = math.prod(scales)
    levels = lattice.levels

    # one and two axes compare each box's corners without the generic
    # loop; each depth shifts the corners by the levels once
    if dim == 1:
        q, = scales

        def at(depth):
            level, = levels[depth]
            boxes = [(lo << level, hi << level) for lo, hi in ends]

            def verdict(cell):
                x0 = cell[0] * q
                x1 = x0 + q
                covered = 0
                for lo, hi in boxes:
                    extent = (x1 if x1 < hi else hi) - (x0 if x0 > lo else lo)
                    if extent > 0:
                        covered += extent
                return OUT if covered == 0 else IN if covered == full else STRADDLE

            return verdict
    elif dim == 2:
        q0, q1 = scales

        def at(depth):
            l0, l1 = levels[depth]
            boxes = [(a0 << l0, b0 << l0, a1 << l1, b1 << l1) for a0, b0, a1, b1 in ends]

            def verdict(cell):
                i, j = cell
                x0 = i * q0
                x1 = x0 + q0
                y0 = j * q1
                y1 = y0 + q1
                covered = 0
                for a0, b0, a1, b1 in boxes:
                    dx = (x1 if x1 < b0 else b0) - (x0 if x0 > a0 else a0)
                    if dx > 0:
                        dy = (y1 if y1 < b1 else b1) - (y0 if y0 > a1 else a1)
                        if dy > 0:
                            covered += dx * dy
                return OUT if covered == 0 else IN if covered == full else STRADDLE

            return verdict
    else:
        def at(depth):
            shifts = levels[depth]
            boxes = [tuple((b[2 * d] << level, b[2 * d + 1] << level) for d, level in enumerate(shifts))
                     for b in ends]

            def verdict(cell):
                spans = [(i * q, i * q + q) for i, q in zip(cell, scales)]
                covered = 0
                for b in boxes:
                    v = 1
                    for (clo, chi), (blo, bhi) in zip(spans, b):
                        extent = (chi if chi < bhi else bhi) - (clo if clo > blo else blo)
                        if extent <= 0:
                            break
                        v *= extent
                    else:
                        covered += v
                return OUT if covered == 0 else IN if covered == full else STRADDLE

            return verdict

    return at


def _complement(inner: Verdicts) -> Verdicts:
    def at(depth):
        part = inner(depth)

        def verdict(cell):
            v = part(cell)
            return OUT if v == IN else IN if v == OUT else STRADDLE

        return verdict

    return at


def _pair(first: Verdicts, second: Verdicts, absorbing: int, neutral: int) -> Verdicts:
    """:func:`_combine` of two parts, folded without its loop."""
    def at(depth):
        f, g = first(depth), second(depth)

        def verdict(cell):
            v = f(cell)
            if v == absorbing:
                return v
            w = g(cell)
            return w if v == neutral or w == absorbing else STRADDLE

        return verdict

    return at


def _combine(parts: list[Verdicts], absorbing: int, neutral: int) -> Verdicts:
    """A union (IN absorbs, OUT is neutral) or an intersection (the reverse)."""
    if len(parts) == 2:
        return _pair(*parts, absorbing, neutral)

    def at(depth):
        fns = [p(depth) for p in parts]

        def verdict(cell):
            result = neutral
            for f in fns:
                v = f(cell)
                if v == absorbing:
                    return absorbing
                if v != neutral:
                    result = STRADDLE
            return result

        return verdict

    return at


def _adapter(region, lattice: DyadicLattice) -> Verdicts:
    # a region known only by classify(box) sees each cell as a rational box,
    # built afresh: most cells classified are never returned, and a cache of
    # them would grow with every cell swept
    def at(depth):
        sides = tuple(enumerate(lattice.levels[depth]))
        point = lattice.point
        return lambda cell: region.classify(
            tuple((point(d, level, i), point(d, level, i + 1)) for (d, level), i in zip(sides, cell))
        )

    return at
