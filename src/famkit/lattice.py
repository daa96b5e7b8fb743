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

    Half-planes and box unions are scaled to integers once; unions,
    intersections and complements combine the verdicts of their parts.  Any
    other region is asked through its ``classify`` on the cell's rational
    box.  Raises ``InputError`` on a half-plane or a box union in another
    dimension than the lattice's.
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
    # normal . x <= offset with x_d = lo_d + w_d*(i_d + t_d)/2**l_d, t_d in [0, 1]:
    # sum_d a_d*(i_d + t_d)/2**l_d <= rest, scaled to integers A_d and C
    a = [c * w for c, w in zip(region.normal, lattice.width)]
    rest = region.offset - sum((c * lo for c, lo in zip(region.normal, lattice.lo)), Fraction(0))
    den = math.lcm(rest.denominator, *(x.denominator for x in a))
    A = [x.numerator * (den // x.denominator) for x in a]
    C = rest.numerator * (den // rest.denominator)

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
    den = math.lcm(lo.denominator, *(x.denominator for x in xs))
    base = lo.numerator * (den // lo.denominator)
    return [(x.numerator * (den // x.denominator) - base) * w.denominator for x in xs], den * w.numerator


def _boxes(region: BoxElem, lattice: DyadicLattice) -> Verdicts:
    if lattice.flat or not region.boxes:
        # a zero-volume cell meets no box (and nothing meets no boxes)
        return lambda depth: lambda cell: OUT
    # per axis, every box corner as an integer over one denominator q_d; a
    # cell of level l on that axis is [i*q_d, (i+1)*q_d) against corners << l
    corners = []
    scales = []
    for d in range(lattice.dimension):
        ends = [x for b in region.boxes for x in b[d]]
        nums, q = _axis_scaled(ends, lattice.lo[d], lattice.width[d])
        corners.append(nums)
        scales.append(q)
    full = math.prod(scales)

    def at(depth):
        levels = lattice.levels[depth]
        boxes = [
            tuple((corners[d][2 * k] << levels[d], corners[d][2 * k + 1] << levels[d])
                  for d in range(lattice.dimension))
            for k in range(len(region.boxes))
        ]

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
            if covered == 0:
                return OUT
            if covered == full:
                return IN
            return STRADDLE

        return verdict

    return at


def _complement(inner: Verdicts) -> Verdicts:
    flip = {IN: OUT, OUT: IN, STRADDLE: STRADDLE}

    def at(depth):
        part = inner(depth)
        return lambda cell: flip[part(cell)]

    return at


def _combine(parts: list[Verdicts], absorbing: int, neutral: int) -> Verdicts:
    """A union (IN absorbs, OUT is neutral) or an intersection (the reverse)."""
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
