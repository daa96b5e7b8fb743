"""Bounded functions with certified range oracles for the box backend.

Darboux sums need sup/inf over every cell, so sampling is never used: each
function carries an oracle returning an enclosure of its range on a box.
Regions (for indicators and restricted integrals) classify boxes as
inside/outside/straddling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from ._refine_py import _plan, poly_range
from .boxes import IN, OUT, STRADDLE, Box, BoxElem, box_intersect, box_volume
from .errors import InputError

FloatBox = tuple[tuple[float, float], ...]


def finite(value, what: str) -> float:
    """``value``, a number from outside the program (a coefficient, a piece
    value, a tolerance, a box corner), as the nearest float.  No oracle can
    enclose a number that is not finite, so NaN, ``±inf`` and anything
    beyond the float range (JSON input reads ``NaN``, ``Infinity``, ``1e400``
    and integers of any size) raise ``InputError``.  A string that
    ``float`` rejects is read as a rational ``"p/q"``."""
    try:
        try:
            x = float(value)
        except ValueError:
            x = float(Fraction(value))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} must be numbers or \"p/q\" strings, got {value!r}") from None
    except OverflowError:
        raise InputError(f"{what} must be finite, got a number beyond the float range") from None
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    return x


def _to_float(q) -> float:
    """``q``, an exact value inside an engine (a measure, a cell volume, a
    width or a cell corner), as the nearest float; ``±inf`` where it is
    beyond the float range, which a Darboux sum may carry until
    ``_refine_py.finite_sum`` refuses to report it."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _to_float_box(box) -> FloatBox:
    return tuple((_to_float(lo), _to_float(hi)) for lo, hi in box)


def exponents(exps) -> tuple[int, ...]:
    """A term's exponent tuple; each must be a non-negative integer (an
    integral float counts), since the range oracle encloses nothing else."""
    out = []
    for e in exps:
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        if isinstance(e, bool) or not hasattr(e, "__index__") or operator.index(e) < 0:
            raise InputError(f"exponents must be non-negative integers, got {e!r}")
        out.append(operator.index(e))
    return tuple(out)


def add_term(terms: dict, exps, coeff) -> None:
    """Add ``coeff * x**exps`` to ``terms``; a repeated exponent tuple sums."""
    key = exponents(exps)
    coeff = finite(coeff, "coefficients")
    terms[key] = terms[key] + coeff if key in terms else coeff


class PolynomialFn:
    """A multivariate polynomial with an interval-arithmetic range oracle.

    ``coeffs`` is either a 1-d coefficient list (ascending powers) or a
    mapping from exponent tuples to coefficients.  Exponents are
    non-negative integers (integral floats count); terms with equal
    exponents add up.
    """

    oscillation_floor = 0.0

    def __init__(self, coeffs, dimension: int | None = None):
        if isinstance(coeffs, dict):
            terms = {}
            for k, v in coeffs.items():
                add_term(terms, k, v)
            if not terms:
                terms = {(): 0.0}
            dims = {len(k) for k in terms}
            if len(dims) != 1:
                raise InputError("inconsistent exponent arity")
            self.dimension = dims.pop()
        else:
            seq = [finite(v, "coefficients") for v in coeffs]
            if not seq:
                seq = [0.0]
            terms = {(e,): c for e, c in enumerate(seq)}
            self.dimension = 1
        if dimension is not None:
            if self.dimension not in (dimension, 0):
                raise InputError("polynomial dimension mismatch")
            if self.dimension == 0:
                terms = {(0,) * dimension: v for v in terms.values()}
                self.dimension = dimension
        self.exps = tuple(sorted(terms))
        self.coeffs = tuple(terms[e] for e in self.exps)
        self.plan = _plan(self.exps, self.coeffs)

    def __call__(self, point: Sequence[float]) -> float:
        out = 0.0
        for exp, c in zip(self.exps, self.coeffs):
            term = c
            for x, e in zip(point, exp):
                for _ in range(e):
                    term *= x
            out += term
        return out

    def range_on(self, box) -> tuple[float, float]:
        fb = _to_float_box(box)
        return poly_range(self.plan, [b[0] for b in fb], [b[1] for b in fb])


class PiecewiseConstantFn:
    """Constant on each of finitely many boxes, with a default elsewhere.

    Where pieces overlap, the first one's value is the function's value.
    """

    oscillation_floor = 0.0

    def __init__(self, pieces: Sequence[tuple[Box, float]], default: float = 0.0):
        self.pieces = [(tuple((Fraction(lo), Fraction(hi)) for lo, hi in box), finite(v, "piece values"))
                       for box, v in pieces]
        self.default = finite(default, "the default value")
        #: the union of the pieces: the default shows wherever it misses
        self.support = BoxElem([box for box, _ in self.pieces])

    def __call__(self, point) -> float:
        for box, v in self.pieces:
            if all(lo <= x < hi for (lo, hi), x in zip(box, point)):
                return v
        return self.default

    def range_on(self, box) -> tuple[float, float]:
        values = []
        for piece, v in self.pieces:
            if box_intersect(box, piece) is not None:
                values.append(v)
                # the first piece that contains the cell hides every later one
                if all(plo <= lo and hi <= phi for (lo, hi), (plo, phi) in zip(box, piece)):
                    return min(values), max(values)
        if self.support.classify(box) != IN:
            values.append(self.default)
        return min(values), max(values)


class LipschitzFn:
    """An explicit evaluator with a sup-norm Lipschitz constant."""

    oscillation_floor = 0.0

    def __init__(self, fn: Callable[[Sequence[float]], float], constant: float):
        self.fn = fn
        self.constant = finite(constant, "the Lipschitz constant")

    def __call__(self, point) -> float:
        return self.fn(point)

    def range_on(self, box) -> tuple[float, float]:
        fb = _to_float_box(box)
        center = [(lo + hi) * 0.5 for lo, hi in fb]
        radius = max(hi - lo for lo, hi in fb) * 0.5
        mid = self.fn(center)
        return mid - self.constant * radius, mid + self.constant * radius


# -- regions -----------------------------------------------------------


@dataclass(frozen=True)
class HalfPlaneRegion:
    """``{x : normal . x <= offset}`` with exact rational data."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __init__(self, normal: Sequence, offset):
        object.__setattr__(self, "normal", tuple(Fraction(c) for c in normal))
        object.__setattr__(self, "offset", Fraction(offset))
        # the same half-plane over integers: N . x <= C, scaled by the lcm
        # of the denominators, once per region
        den = math.lcm(self.offset.denominator, *(c.denominator for c in self.normal))
        object.__setattr__(self, "_scaled", (
            tuple(c.numerator * (den // c.denominator) for c in self.normal),
            self.offset.numerator * (den // self.offset.denominator),
        ))

    def classify(self, box: Box) -> int:
        # exact for float and Fraction bounds alike, as as_integer_ratio is
        # exact for both: N . lo and N . hi grow as integers over their own
        # denominators, which cost less to multiply out than to keep common
        normal, offset = self._scaled
        low = high = 0
        low_d = high_d = 1
        for c, (lo, hi) in zip(normal, box):
            if c < 0:
                lo, hi = hi, lo
            n, d = lo.as_integer_ratio()
            low = low * d + c * n * low_d
            low_d *= d
            n, d = hi.as_integer_ratio()
            high = high * d + c * n * high_d
            high_d *= d
        if high <= offset * high_d:
            return IN
        if low > offset * low_d:
            return OUT
        return STRADDLE

    # perfbench/tracing.py counts calls to this name as exact fallbacks;
    # classify has no fallback left, so nothing calls it and the count is 0
    _classify_exact = classify

    def contains_point(self, point) -> bool:
        return sum(c * Fraction(x) for c, x in zip(self.normal, point)) <= self.offset


@dataclass(frozen=True)
class DenseCodenseRegion:
    """A dense set with dense complement (the rationals fixture).

    Every cell of positive volume straddles, so the inner measure is 0 and
    the outer measure is full: certified non-Jordan, and its indicator has
    oscillation 1 everywhere.
    """

    dense: bool = True
    codense: bool = True

    def classify(self, box: Box) -> int:
        return STRADDLE if box_volume(box) > 0 else OUT

    def contains_point(self, point) -> bool:
        raise InputError("membership of the dense fixture is analytic, not pointwise")


@dataclass(frozen=True)
class PointRegion:
    point: tuple[Fraction, ...]

    def __init__(self, point: Sequence):
        object.__setattr__(self, "point", tuple(Fraction(x) for x in point))

    def classify(self, box: Box) -> int:
        inside = all(lo <= x < hi for (lo, hi), x in zip(box, self.point))
        return STRADDLE if inside else OUT

    def contains_point(self, point) -> bool:
        return tuple(Fraction(x) for x in point) == self.point


@dataclass(frozen=True)
class RegionComplement:
    inner: object

    def classify(self, box: Box) -> int:
        c = self.inner.classify(box)
        if c == IN:
            return OUT
        if c == OUT:
            return IN
        return STRADDLE

    def contains_point(self, point) -> bool:
        return not self.inner.contains_point(point)


@dataclass(frozen=True)
class RegionUnion:
    parts: tuple

    def __init__(self, *parts):
        object.__setattr__(self, "parts", tuple(parts))

    def classify(self, box: Box) -> int:
        # IN absorbs, so the parts after the first IN need no verdict
        result = OUT
        for p in self.parts:
            verdict = p.classify(box)
            if verdict == IN:
                return IN
            if verdict != OUT:
                result = STRADDLE
        return result

    def contains_point(self, point) -> bool:
        return any(p.contains_point(point) for p in self.parts)


@dataclass(frozen=True)
class RegionIntersection:
    parts: tuple

    def __init__(self, *parts):
        object.__setattr__(self, "parts", tuple(parts))

    def classify(self, box: Box) -> int:
        # OUT absorbs, so the parts after the first OUT need no verdict
        result = IN
        for p in self.parts:
            verdict = p.classify(box)
            if verdict == OUT:
                return OUT
            if verdict != IN:
                result = STRADDLE
        return result

    def contains_point(self, point) -> bool:
        return all(p.contains_point(point) for p in self.parts)


def region_of(obj) -> object:
    """Coerce a BoxElem or region-like object to the region protocol."""
    if isinstance(obj, BoxElem):
        return obj
    if hasattr(obj, "classify"):
        return obj
    raise InputError(f"{obj!r} is not a region")


class IndicatorFn:
    """The characteristic function of a region, as a bounded oracle."""

    def __init__(self, region, value: float = 1.0):
        self.region = region_of(region)
        v = self.value = finite(value, "indicator value")
        dense = getattr(self.region, "dense", False) and getattr(self.region, "codense", False)
        self.oscillation_floor = abs(v) if dense else 0.0
        #: the range on a cell, by the region's verdict on it
        self.ranges = {IN: (v, v), OUT: (0.0, 0.0), STRADDLE: (min(0.0, v), max(0.0, v))}

    def __call__(self, point) -> float:
        return self.value if self.region.contains_point(point) else 0.0

    def range_on(self, box) -> tuple[float, float]:
        return self.ranges[self.region.classify(box)]


class RestrictedFn:
    """``f * chi_E`` for integration over a subset."""

    def __init__(self, fn, region):
        self.fn = fn
        self.region = region_of(region)
        self.oscillation_floor = 0.0

    def __call__(self, point) -> float:
        return self.fn(point) if self.region.contains_point(point) else 0.0

    def range_on(self, box) -> tuple[float, float]:
        c = self.region.classify(box)
        if c == OUT:
            return (0.0, 0.0)
        lo, hi = self.fn.range_on(box)
        if c == IN:
            return (lo, hi)
        return (min(lo, 0.0), max(hi, 0.0))


def triangle_under_diagonal(dimension: int = 2) -> HalfPlaneRegion:
    """The region ``{y <= x}`` in the plane (Jordan, measure 1/2 in the unit square)."""
    if dimension != 2:
        raise InputError("the diagonal triangle fixture is two-dimensional")
    return HalfPlaneRegion((-1, 1), 0)
