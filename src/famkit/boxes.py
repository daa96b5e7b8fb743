"""Half-open boxes in R^n with rational endpoints, and the volume fam.

Jordan brackets return boxes with exact ``Fraction`` coordinates (dyadic
subboxes of the bounding box, split on the integer lattice of
``famkit.lattice``, so denominators stay small); the Darboux refinement
loop for integrals converts to floats at entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InputError

#: A box is one closed-below/open-above interval per axis.
Box = tuple[tuple[Fraction, Fraction], ...]

IN, OUT, STRADDLE = 1, 0, -1


def make_box(bounds: Iterable[Sequence]) -> Box:
    out = []
    for pair in bounds:
        lo, hi = (Fraction(str(x)) if isinstance(x, float) else Fraction(x) for x in pair)
        if lo > hi:
            raise InputError(f"box interval [{lo}, {hi}] reversed")
        out.append((lo, hi))
    if not out:
        raise InputError("box needs at least one axis")
    return tuple(out)


def box_volume(box: Box) -> Fraction:
    v = Fraction(1)
    for lo, hi in box:
        v *= hi - lo
    return v


def box_intersect(a: Box, b: Box) -> Box | None:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def box_subtract(a: Box, b: Box) -> list[Box]:
    """``a`` minus ``b`` as disjoint boxes (axis-by-axis slicing)."""
    if box_intersect(a, b) is None:
        return [a]
    pieces = []
    current = list(a)
    for d, ((alo, ahi), (blo, bhi)) in enumerate(zip(a, b)):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if alo < lo:
            pieces.append(tuple(current[:d]) + ((alo, lo),) + tuple(a[d + 1:]))
        if hi < ahi:
            pieces.append(tuple(current[:d]) + ((hi, ahi),) + tuple(a[d + 1:]))
        current[d] = (lo, hi)
    return pieces


def _box_key(box: Box):
    """Deterministic canonical order with cheap integer comparisons: one flat
    tuple of (lo numerator, lo denominator, hi numerator, hi denominator)
    per axis; ``None`` when some axis is empty (lo >= hi)."""
    key = ()
    for lo, hi in box:
        p, q = lo.as_integer_ratio()
        r, s = hi.as_integer_ratio()
        if p * s >= r * q:
            return None
        key += (p, q, r, s)
    return key


def _sorted_nonempty(boxes: Iterable[Box]) -> tuple[Box, ...]:
    """The boxes with lo < hi on every axis, in canonical order."""
    keyed = [(key, b) for b in boxes if (key := _box_key(b)) is not None]
    keyed.sort(key=itemgetter(0))
    return tuple(b for _, b in keyed)


@dataclass(frozen=True)
class BoxElem:
    """A finite union of half-open boxes, stored disjoint and sorted."""

    boxes: tuple[Box, ...]

    def __init__(self, boxes: Iterable[Box]):
        disjoint: list[Box] = []
        for b in boxes:
            if disjoint and len(b) != len(disjoint[0]):  # disjoint[0] is the first box, whole
                raise InputError(f"a box union mixes boxes of {len(disjoint[0])} and {len(b)} axes")
            frags = [b]
            for existing in disjoint:
                frags = [piece for frag in frags for piece in box_subtract(frag, existing)]
            disjoint.extend(frags)
        object.__setattr__(self, "boxes", _sorted_nonempty(disjoint))

    @classmethod
    def from_disjoint(cls, boxes: Iterable[Box]) -> "BoxElem":
        """Trusted constructor for already-disjoint boxes (skips the
        quadratic overlap resolution; refinement grids qualify)."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "boxes", _sorted_nonempty(boxes))
        return elem

    @property
    def volume(self) -> Fraction:
        return sum((box_volume(b) for b in self.boxes), Fraction(0))

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return any(
            all(lo <= Fraction(x) < hi for (lo, hi), x in zip(b, point))
            for b in self.boxes
        )

    def classify(self, cell: Box) -> int:
        """IN / OUT / STRADDLE for a probe cell (conservative on unions).

        Float bounds count at their exact values, so no rounding of the
        covered volume can hide a sliver of the cell that lies outside."""
        cell = tuple((Fraction(lo), Fraction(hi)) for lo, hi in cell)
        covered = Fraction(0)
        vol = box_volume(cell)
        for b in self.boxes:
            inter = box_intersect(cell, b)
            if inter is not None:
                covered += box_volume(inter)
        if covered == 0:
            return OUT
        if covered == vol:
            return IN
        return STRADDLE

    def __iter__(self):
        return iter(self.boxes)


@dataclass(frozen=True)
class VolumeFam:
    """The volume fam on half-open boxes inside a bounding box."""

    bounding: Box

    def __init__(self, bounding) -> None:
        object.__setattr__(self, "bounding", make_box(bounding))

    @property
    def dimension(self) -> int:
        return len(self.bounding)

    @property
    def total(self) -> Fraction:
        return box_volume(self.bounding)

    def value(self, elem: BoxElem) -> Fraction:
        clipped = [
            box_intersect(b, self.bounding)
            for b in elem.boxes
        ]
        return sum((box_volume(b) for b in clipped if b is not None), Fraction(0))

    __call__ = value
