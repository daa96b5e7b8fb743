"""Desk-scale Cantor-space machinery: dyadic cylinders, the canonical
measure, the binary-expansion map onto [0,1], and Lebesgue-Vitali
integrability diagnostics.

A cylinder is the set of infinite binary sequences extending a finite
string; its measure is ``2**-length``.  Functions on [0,1] pull back along
the expansion map, whose image of a cylinder is a closed dyadic interval,
so range oracles from the box backend drive the Darboux sums here too.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, mul
from typing import Iterable, Iterator

from ._refine_py import refine_uniform
from .boxes import IN, OUT, STRADDLE, BoxElem
from .errors import CapExceededError, InputError
from .functions import IndicatorFn, PiecewiseConstantFn, PolynomialFn, finite
from .integrate import (INTEGRABLE, NOT_INTEGRABLE, UNDECIDED, IntegralReport, _darboux_report, _exact_eps,
                        _float_eps)
from .lattice import DyadicLattice, lattice_classifier

DEFAULT_DEPTH_BUDGET = 20

#: The deepest cylinder sweep: 2**20 cylinders.  Deepening to it evaluates
#: 2**21 - 1 cylinders, about the box integrator's default budget of 2M
#: cells; sweeps run in floats, whose endpoints k/2**depth stay exact up to
#: depth 53.
MAX_DEPTH = 20

#: Cylinders that one pass of the polynomial sweep encloses together; its
#: lists hold this many floats at any depth.
BLOCK = 1024

#: The unit interval, the image of the whole Cantor space.
UNIT = ((Fraction(0), Fraction(1)),)


def _check_word(s: str) -> str:
    if any(ch not in "01" for ch in s):
        raise InputError(f"cylinder word must be binary, got {s!r}")
    return s


@dataclass(frozen=True)
class Cylinder:
    """All infinite binary sequences extending a finite word."""

    word: str

    def __init__(self, word: str = ""):
        object.__setattr__(self, "word", _check_word(word))

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2 ** len(self.word))

    def __repr__(self) -> str:
        return f"[{self.word}]"


@dataclass(frozen=True)
class CantorClopen:
    """A finite union of cylinders in canonical prefix-free form.

    Sibling pairs merge ([s0] u [s1] = [s]) and covered cylinders drop, to
    a fixpoint.
    """

    words: tuple[str, ...]

    def __init__(self, cylinders: Iterable[Cylinder | str]):
        words = set()
        for c in cylinders:
            words.add(_check_word(c.word if isinstance(c, Cylinder) else c))
        # drop words covered by a prefix already in the set
        words = {
            w for w in words
            if not any(w[:k] in words for k in range(len(w)))
        }
        merged = True
        while merged:
            merged = False
            for w in sorted(words, key=len, reverse=True):
                if w and w[:-1] + "0" in words and w[:-1] + "1" in words:
                    words.discard(w[:-1] + "0")
                    words.discard(w[:-1] + "1")
                    words.add(w[:-1])
                    merged = True
        object.__setattr__(self, "words", tuple(sorted(words)))

    @property
    def is_everything(self) -> bool:
        return self.words == ("",)

    def __repr__(self) -> str:
        return "u".join(f"[{w}]" for w in self.words) or "(empty)"


def clopen_measure(clopen: CantorClopen | Cylinder | str) -> Fraction:
    """Exact measure: the sum of ``2**-length`` over the canonical antichain."""
    if isinstance(clopen, (Cylinder, str)):
        clopen = CantorClopen([clopen])
    return sum((Fraction(1, 2 ** len(w)) for w in clopen.words), Fraction(0))


def iota2_image(word: str | Cylinder) -> tuple[Fraction, Fraction]:
    """The closed dyadic interval that the binary-expansion map sends [word] to."""
    w = _check_word(word.word if isinstance(word, Cylinder) else word)
    lo = Fraction(int(w, 2) if w else 0, 2 ** len(w))
    return lo, lo + Fraction(1, 2 ** len(w))


def _cylinder_images(depth: int):
    """The interval images of the depth-``depth`` cylinders, left to right,
    as boxes; the hi end of one is the lo end of the next, so each endpoint
    ``k/2**depth`` is built once."""
    count = 2 ** depth
    lo = Fraction(0)
    for k in range(1, count + 1):
        hi = Fraction(k, count)
        yield ((lo, hi),)
        lo = hi


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise InputError(f"cylinder depth must be non-negative, got {depth}")
    if depth > MAX_DEPTH:
        raise CapExceededError(f"cylinder depth {depth} is above the cap of {MAX_DEPTH}")


def _is_swept_poly(g) -> bool:
    """Polynomials in one variable, whose ranges :func:`_poly_blocks`
    encloses in float blocks."""
    return type(g) is PolynomialFn and g.dimension <= 1


def _poly_blocks(g, depth: int) -> Iterator[tuple[list[float], list[float]]]:
    """The lower and upper ends of ``g``'s range on the depth-``depth``
    cylinder images, left to right, one pair of lists per ``BLOCK``
    cylinders: the walk of ``g.plan`` on lists, bit for bit ``poly_range``
    on each image (see ``_refine_py._plan``).

    The image ``[k, k+1] * 2**-depth`` has float endpoints ``k * 2**-depth``,
    exact like the image's rational ones, and in order.  Each endpoint is
    built once and shared by the two images it bounds: a term's list has
    one entry per endpoint, and its lower and upper ends are that list
    without its last or its first entry (the other way round when
    ``c < 0``).
    """
    count = 1 << depth
    step = 0.5 ** depth
    # the plan keeps the terms in the sorted order of exps, so one
    # variable's exponents rise and each power extends the last one
    terms = [(factors[0][1] if factors else 0, c) for c, factors in g.plan[1]]
    for k0 in range(0, count, BLOCK):
        k1 = min(k0 + BLOCK, count)
        xs = [k * step for k in range(k0, k1 + 1)]
        n = k1 - k0
        lows = highs = [0.0] * n
        power, pw = 0, None
        for e, c in terms:
            if not e:
                lows = highs = [c] * n  # 0.0 + c, as the plan has no zero c
                continue
            while power < e:
                pw = xs if pw is None else list(map(mul, pw, xs))
                power += 1
            cp = [c * p for p in pw]
            # cp has one entry more than the sums, and map stops at the shorter
            left, right = cp, islice(cp, 1, None)
            if c < 0:
                left, right = right, left
            lows = list(map(add, lows, left))
            highs = list(map(add, highs, right))
        yield lows, highs


def _lattice_partitions(regions) -> Iterator[list[tuple[int, int, list[int]]]]:
    """The partitions of [0, 1] that the verdicts of ``regions`` settle,
    at depth 0, 1, 2, ... in turn: lists, left to right, of the lattice
    cells ``(level, index, verdicts)``, with one verdict per region.

    Each depth splits the cells of the last one that some verdict
    straddles, as ``integrate.measure_bracket`` does, and asks the halves
    only for the verdicts that straddled.  Verdicts are exact, so IN or
    OUT on a cell holds on each of its halves: a cell of level ``j`` that
    nothing straddles settles its ``2**(depth - j)`` cylinders of a depth,
    and only cells of that depth can straddle.
    """
    lattice = DyadicLattice(UNIT)
    classifiers = [lattice_classifier(region, lattice) for region in regions]
    cells = [(0, 0, [at(0)((0,)) for at in classifiers])]
    for depth in itertools.count(1):
        yield cells
        lattice.axis(depth)
        verdicts_at = [at(depth) for at in classifiers]
        deeper = []
        for cell in cells:
            _, index, verdicts = cell
            if STRADDLE not in verdicts:
                deeper.append(cell)
                continue
            for half in (2 * index, 2 * index + 1):
                asked = (half,)
                deeper.append((depth, half, [
                    verdict(asked) if known == STRADDLE else known
                    for known, verdict in zip(verdicts, verdicts_at)
                ]))
        cells = deeper


def _partition_runs(cells, depth: int, ranges) -> Iterator[tuple[int, float, float]]:
    """The runs of a depth-``depth`` partition from
    :func:`_lattice_partitions`: ``ranges(verdicts)`` is the range on a
    cell, given its verdicts."""
    for level, _, verdicts in cells:
        yield (1 << (depth - level), *ranges(verdicts))


def _lattice_runs(g) -> Iterator[Iterator[tuple[int, float, float]]] | None:
    """The runs of an indicator or a 1-D step function at depth 0, 1, 2,
    ... in turn, from the lattice of [0, 1], whose level-``j`` cells are the
    images of the cylinders of length ``j``; ``None`` for other oracles.

    An indicator asks for its region's verdict.  A dense-codense region
    straddles every cell, so its indicator is one run that asks for none,
    the short cut of ``measure_bracket``.  A step function asks for the
    verdict on each piece and on the pieces' union: as ``range_on`` sees
    them, a value counts where its piece meets the image, up to the first
    piece that contains it, and the default where no piece contains it and
    the union misses some of it.
    """
    kind = type(g)
    if kind is IndicatorFn:
        region, ranges = g.region, g.ranges
        if getattr(region, "dense", False) and getattr(region, "codense", False):
            return ([(1 << depth, *ranges[STRADDLE])] for depth in itertools.count())
        regions = [region]

        def range_of(verdicts):
            return ranges[verdicts[0]]
    elif kind is PiecewiseConstantFn:
        regions = [*(BoxElem([box]) for box, _ in g.pieces), g.support]
        values = [v for _, v in g.pieces]
        default = g.default

        def range_of(verdicts):
            *pieces, support = verdicts
            seen = []
            for verdict, v in zip(pieces, values):
                if verdict != OUT:
                    seen.append(v)
                    if verdict == IN:  # this piece hides every later one
                        return min(seen), max(seen)
            if support != IN:
                seen.append(default)
            return min(seen), max(seen)
    else:
        return None
    return (_partition_runs(cells, depth, range_of) for depth, cells in enumerate(_lattice_partitions(regions)))


def _oracle_runs(g, depth: int) -> Iterator[tuple[int, float, float]]:
    """The runs of one cylinder each of an oracle without lattice verdicts:
    polynomials are enclosed a block of cylinders at a time by
    :func:`_poly_blocks`, and any other oracle is asked on each image's
    box."""
    if _is_swept_poly(g):
        for lows, highs in _poly_blocks(g, depth):
            yield from zip(repeat(1), lows, highs)
    else:
        for image in _cylinder_images(depth):
            yield (1, *g.range_on(image))


def _run_depths(g) -> Iterator[Iterator[tuple[int, float, float]]]:
    """``g``'s range on the cylinder images of depth 0, 1, 2, ... in turn,
    each depth's left to right, as runs ``(count, lo, hi)`` of ``count``
    consecutive cylinders whose images share the range ``(lo, hi)``:
    exactly ``g.range_on`` of each image, without building its box.

    Indicators and 1-D step functions settle whole runs with one verdict
    per region, each depth deepening the last one's partition
    (:func:`_lattice_runs`), and each run is one lattice cell: its count is
    a power of two that divides the index of its first cylinder.  Other
    oracles give runs of one cylinder (:func:`_oracle_runs`).  Raises
    ``InputError`` on a polynomial in more than one variable and on a step
    function with a piece that is not in one; the lattice raises it on an
    indicator of a half-plane or box union in more than one.
    """
    if isinstance(g, PolynomialFn) and g.dimension > 1:
        raise InputError("polynomial dimension mismatch: a Cantor integrand takes one variable")
    if isinstance(g, PiecewiseConstantFn) and any(len(box) != 1 for box, _ in g.pieces):
        raise InputError("piece dimension mismatch: a Cantor integrand takes one variable")
    return _lattice_runs(g) or (_oracle_runs(g, depth) for depth in itertools.count())


def _fold(acc: float, x: float, count: int) -> float:
    """``reduce(add, repeat(x, count), acc)``, bit for bit, in O(1) where
    every partial sum is a float.

    With ``acc`` and ``x`` multiples of ``2**g``, every partial sum
    ``acc + i*x`` is one too, and lies between ``acc`` and the last; when
    neither exceeds ``2**(53 + g)`` (nor the float range), each is a float,
    every addition is exact and the fold is the exact sum.  When ``x`` is a
    zero, or ``acc + x`` an infinity or a NaN, adding ``x`` again leaves
    ``acc + x`` as it is.  Any other fold is left to ``reduce``.
    """
    if count < 1:
        return acc
    first = acc + x
    if not x or not math.isfinite(first):
        return first
    a, p = acc.as_integer_ratio()
    b, q = x.as_integer_ratio()
    den = max(p, q)  # both powers of two
    a *= den // p
    b *= den // q
    last = a + count * b
    bits = a | b
    if max(abs(a), abs(last)) <= (bits & -bits) << 53:
        try:
            return last / den  # exact
        except OverflowError:  # the last partial sum is beyond the float range
            pass
    return reduce(add, repeat(x, count), acc)


def _depth_sums(g, runs, depth: int) -> tuple[float, float]:
    """The lower and upper Darboux sums of ``g`` on the depth-``depth``
    cylinders, whose runs are ``runs``: the range ends added left to right,
    then scaled.

    A run of ``count`` cylinders folds in with ``_fold``, and a swept
    polynomial, whose runs hold one cylinder each, folds its blocks with
    ``reduce(add, ...)`` instead: the same sequential additions as a loop
    over the cylinders.  ``sum`` would not do, since it compensates float
    sums from Python 3.12 on.
    """
    scale = 0.5 ** depth
    lower = 0.0
    upper = 0.0
    if _is_swept_poly(g):
        for lows, highs in _poly_blocks(g, depth):
            lower = reduce(add, lows, lower)
            upper = reduce(add, highs, upper)
    else:
        for count, rlo, rhi in runs:
            lower = _fold(lower, rlo, count)
            upper = _fold(upper, rhi, count)
    return lower * scale, upper * scale


def cantor_integrate(
    g,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
    epsilon=1e-6,
) -> IntegralReport:
    """Darboux integral of ``g`` composed with the expansion map.

    Uniform-depth cylinder partitions keep the cells aligned with dyadic
    interval grids, so sup/inf on a cylinder are ``g``'s range over its
    interval image.  A depth's runs stand for its ``2**depth`` cylinders
    in the grid strategy's loop, which takes the depths in turn from one
    sweep, and the verdict is the box backend's.
    """
    eps = _float_eps(epsilon)
    _check_depth(depth_budget)

    def refine():
        # a cell is a depth's runs and the depth, and each split takes the
        # next depth from the one sweep; _depth_sums is looked up at each
        # depth, where a wrapper around it sees every call
        depths = _run_depths(g)
        return refine_uniform(lambda cell: _depth_sums(g, *cell), lambda cell: (next(depths), cell[1] + 1),
                              (next(depths), 0), eps, 2 ** depth_budget)

    return _darboux_report(g, UNIT, Fraction(1), eps, refine, "cantor")


@dataclass(frozen=True)
class OscillationCover:
    cover: CantorClopen
    measure: Fraction


def oscillation_cover(g, threshold, depth: int) -> OscillationCover:
    """Depth-``depth`` cylinders whose range width reaches the threshold.

    A clopen over-approximation of the oscillation set, with exact
    measure; non-increasing in both depth and threshold when the oracle's
    enclosures nest under subdivision.
    """
    thr = finite(threshold, "threshold")
    if thr <= 0:
        raise InputError("threshold must be positive")
    _check_depth(depth)
    # a run is one lattice cell, so the word of its level names all its
    # cylinders, and the canonical cover is the one their words give
    words = []
    start = 0
    for count, rlo, rhi in next(islice(_run_depths(g), depth, None)):
        if rhi - rlo >= thr:
            shift = count.bit_length() - 1  # count is 2**shift
            level = depth - shift
            words.append(format(start >> shift, f"0{level}b") if level else "")
        start += count
    cover = CantorClopen(words)
    return OscillationCover(cover=cover, measure=clopen_measure(cover))


@dataclass(frozen=True)
class LebesgueVitaliReport:
    verdict: str
    oscillation_profile: tuple[tuple[Fraction, int, Fraction], ...]


def lebesgue_vitali_check(
    g,
    epsilon=1e-3,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
    threshold_levels: int = 8,
) -> LebesgueVitaliReport:
    """Integrability via vanishing oscillation covers.

    For each threshold ``2**-k`` on the grid, deepen until the cover
    measure falls below ``epsilon``; integrable when every threshold
    succeeds, not integrable when the oracle certifies a positive
    oscillation floor, undecided otherwise.  The profile records
    (threshold, depth reached, final cover measure).

    All thresholds share one sweep per depth.  Cylinders of one depth are
    disjoint, so a cover's measure is its cylinder count over ``2**depth``.
    """
    eps = _exact_eps(epsilon)
    _check_depth(depth_budget)
    floor = float(getattr(g, "oscillation_floor", 0.0))
    thresholds = [Fraction(1, 2 ** k) for k in range(1, threshold_levels + 1)]
    settled: list[tuple[Fraction, int, Fraction] | None] = [None] * len(thresholds)
    measures = [Fraction(1)] * len(thresholds)
    pending = list(range(len(thresholds)))
    for depth, runs in zip(range(depth_budget + 1), _run_depths(g)):
        # the runs whose width reaches some pending threshold, sorted by
        # width, so the cylinders at or above each threshold are one
        # bisection away: the count of the runs from there on
        low = min(float(thresholds[i]) for i in pending)
        wide = sorted((w, count) for count, rlo, rhi in runs if (w := rhi - rlo) >= low)
        widths = [w for w, _ in wide]
        before = list(accumulate((count for _, count in wide), initial=0))
        for i in pending:
            threshold = thresholds[i]
            above = before[-1] - before[bisect_left(widths, float(threshold))]
            measure = measures[i] = Fraction(above, 1 << depth)
            # a certified floor above the threshold can never vanish
            if measure < eps or floor >= threshold:
                settled[i] = (threshold, depth, measure)
        pending = [i for i in pending if settled[i] is None]
        if not pending:
            break
    profile = tuple(
        s or (threshold, depth_budget, measure)
        for s, threshold, measure in zip(settled, thresholds, measures)
    )
    if all(measure < eps for _, _, measure in profile):
        verdict = INTEGRABLE
    elif floor > 0.0:
        verdict = NOT_INTEGRABLE
    else:
        verdict = UNDECIDED
    return LebesgueVitaliReport(verdict=verdict, oscillation_profile=profile)
