"""Desk-scale Cantor-space machinery: dyadic cylinders, the canonical
measure, the binary-expansion map onto [0,1], and Lebesgue-Vitali
integrability diagnostics.

A cylinder is the set of infinite binary sequences extending a finite
string; its measure is ``2**-length``.  Functions on [0,1] pull back along
the expansion map, whose image of a cylinder is a closed dyadic interval,
so range oracles from the box backend drive the Darboux sums here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError
from .integrate import INTEGRABLE, NOT_INTEGRABLE, UNDECIDED, IntegralReport

DEFAULT_DEPTH_BUDGET = 20


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

    def contains_word(self, word: str) -> bool:
        return any(word.startswith(w) for w in self.words)

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


def _depth_sums(g, depth: int) -> tuple[float, float]:
    scale = 0.5 ** depth
    lower = 0.0
    upper = 0.0
    for box in _cylinder_images(depth):
        rlo, rhi = g.range_on(box)
        lower += rlo
        upper += rhi
    return lower * scale, upper * scale


def cantor_integrate(
    g,
    depth_budget: int = DEFAULT_DEPTH_BUDGET,
    epsilon=1e-6,
) -> IntegralReport:
    """Darboux integral of ``g`` composed with the expansion map.

    Uniform-depth cylinder partitions keep the cells aligned with dyadic
    interval grids, so sup/inf on a cylinder are ``g``'s range over its
    interval image; the stopping contract matches :func:`famkit.integrate.integrate`.
    """
    eps = float(Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon))
    if eps <= 0:
        raise InputError("epsilon must be positive")
    floor = float(getattr(g, "oscillation_floor", 0.0))
    trace = []
    if floor >= eps:
        rlo, rhi = g.range_on(((Fraction(0), Fraction(1)),))
        return IntegralReport(
            status=NOT_INTEGRABLE, lower=rlo, upper=rhi,
            epsilon=eps, trace=((1, rhi - rlo),), backend="cantor",
        )
    lower = upper = 0.0
    for depth in range(depth_budget + 1):
        lower, upper = _depth_sums(g, depth)
        trace.append((2 ** depth, upper - lower))
        if upper - lower < eps:
            return IntegralReport(
                status=INTEGRABLE, lower=lower, upper=upper,
                value=0.5 * (lower + upper), epsilon=eps,
                trace=tuple(trace), backend="cantor",
            )
    status = NOT_INTEGRABLE if floor > 0.0 else UNDECIDED
    return IntegralReport(
        status=status, lower=lower, upper=upper, epsilon=eps,
        trace=tuple(trace), backend="cantor",
    )


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
    thr = float(threshold)
    if thr <= 0:
        raise InputError("threshold must be positive")
    words = []
    for k, box in enumerate(_cylinder_images(depth)):
        rlo, rhi = g.range_on(box)
        if rhi - rlo >= thr:
            words.append(format(k, f"0{depth}b") if depth else "")
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
    """
    eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    floor = float(getattr(g, "oscillation_floor", 0.0))
    profile = []
    all_vanish = True
    for k in range(1, threshold_levels + 1):
        threshold = Fraction(1, 2 ** k)
        depth = 0
        measure = Fraction(1)
        while depth <= depth_budget:
            measure = oscillation_cover(g, threshold, depth).measure
            if measure < eps:
                break
            # a certified floor above the threshold can never vanish
            if floor >= threshold:
                break
            depth += 1
        else:
            depth = depth_budget
        profile.append((threshold, min(depth, depth_budget), measure))
        if measure >= eps:
            all_vanish = False
    if all_vanish:
        verdict = INTEGRABLE
    elif floor > 0.0:
        verdict = NOT_INTEGRABLE
    else:
        verdict = UNDECIDED
    return LebesgueVitaliReport(verdict=verdict, oscillation_profile=tuple(profile))
