"""Exact-rational finitely additive measures on finite algebras.

A fam is stored as one nonnegative ``Fraction`` weight per atom; evaluation
is atom summation, so additivity holds by representation.  No floating
point enters this module: the extension solvers need exact order
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .boolalg import Algebra, GroundSet, Partition, SetElem
from .errors import (
    DegenerateFamError,
    GroundMismatchError,
    InputError,
    NotInAlgebraError,
)

RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Parse an exact rational; floats are rejected to avoid silent rounding."""
    if isinstance(value, float):
        raise InputError("floats are not accepted where exact rationals are required")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}: {exc}") from None


def as_table(f, ground) -> tuple[Fraction, ...]:
    """Normalize a function on the ground set to a tuple of exact rationals."""
    if isinstance(f, Mapping):
        values = [f.get(i, f.get(ground.labels[i], 0)) for i in range(ground.size)]
    else:
        values = list(f)
        if len(values) != ground.size:
            raise InputError("table must have one value per ground element")
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class Fam:
    """A finitely additive measure given by nonnegative atom weights."""

    algebra: Algebra
    weights: tuple[Fraction, ...]

    def __init__(self, algebra: Algebra, weights: Sequence[RationalLike] | Mapping[SetElem, RationalLike]):
        if isinstance(weights, Mapping):
            weights = [weights.get(a, 0) for a in algebra.atoms]
        ws = tuple(as_fraction(w) for w in weights)
        if len(ws) != algebra.atom_count:
            raise InputError("need exactly one weight per atom")
        if any(w < 0 for w in ws):
            raise InputError("fam weights must be nonnegative")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "weights", ws)

    @property
    def total(self) -> Fraction:
        """The measure of the whole ground set."""
        return sum(self.weights, Fraction(0))

    def weight_of(self, atom: SetElem) -> Fraction:
        try:
            return self.weights[self.algebra.atoms.index(atom)]
        except ValueError:
            raise NotInAlgebraError(f"{atom} is not an atom") from None

    def value(self, b: SetElem) -> Fraction:
        """Measure of ``b``: the sum of the weights of the atoms below it."""
        self.algebra.require(b)
        return sum(
            (w for a, w in zip(self.algebra.atoms, self.weights) if a.bits & b.bits),
            Fraction(0),
        )

    __call__ = value

    def scaled(self, factor: RationalLike) -> "Fam":
        c = as_fraction(factor)
        return Fam(self.algebra, tuple(w * c for w in self.weights))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}:{w}" for a, w in zip(self.algebra.atoms, self.weights))
        return f"Fam({pairs})"


@dataclass(frozen=True)
class FamFlags:
    probability: bool
    strictly_positive: bool
    free: bool
    finite_sets_null: bool


@dataclass(frozen=True)
class SupportWitness:
    """Least valid denominator ``d`` plus a support partition.

    Every fam value is ``(l/d) * total`` with ``l <= |b|`` on every set; the
    support cells are the positive-weight atoms (in greedy minimal-measure
    order) plus the null remainder.
    """

    d: int
    support: Partition


def uniform_fam(ground: GroundSet, u: SetElem) -> Fam:
    """The uniform probability measure with support ``u`` on the full power set."""
    if u.ground != ground:
        raise GroundMismatchError("support over a different ground set")
    if u.is_empty:
        raise InputError("uniform fam needs a non-empty support")
    share = Fraction(1, u.size)
    algebra = Algebra.power_set(ground)
    return Fam(algebra, tuple(share if a.bits & u.bits else Fraction(0) for a in algebra.atoms))


def point_mass(ground: GroundSet, index: int, total: RationalLike = 1) -> Fam:
    """Mass ``total`` concentrated on one point of the full power set."""
    algebra = Algebra.power_set(ground)
    t = as_fraction(total)
    return Fam(algebra, tuple(t if a.bits == 1 << index else Fraction(0) for a in algebra.atoms))


def filter_fam(algebra: Algebra, generators: SetElem | Sequence[SetElem]) -> Fam:
    """The 0/1 fam of the filter generated by ``generators``.

    The result lives on the subalgebra generated by the filter, i.e. the
    elements that either contain the generators' intersection or are
    disjoint from it; there the intersection is an atom and the fam is the
    principal ultrafilter at it.
    """
    if isinstance(generators, SetElem):
        generators = [generators]
    if not generators:
        raise InputError("need at least one filter generator")
    core = SetElem.full(algebra.ground)
    for g in generators:
        algebra.require(g)
        core = core & g
    if core.is_empty:
        raise InputError("filter generators have empty intersection")
    cells = [core]
    for a in algebra.atoms:
        rest = a - core
        if not rest.is_empty:
            cells.append(rest)
    sub = Algebra(algebra.ground, cells)
    return Fam(sub, tuple(Fraction(1) if a == core else Fraction(0) for a in sub.atoms))


def pushforward(fam: Fam, h: Sequence[int] | Mapping[int, int], ground_y: GroundSet) -> Fam:
    """Image fam under a total map ``h`` from the ground set into ``ground_y``.

    The target algebra is ``{A : h^{-1}[A] in B}``, built from its atoms by
    closing each point of Y under "my fiber meets an atom, so the atom's
    whole image joins me"; values are pulled back through ``h``.
    """
    ground_x = fam.algebra.ground
    if isinstance(h, Mapping):
        hmap = [h[i] for i in range(ground_x.size)]
    else:
        hmap = list(h)
    if len(hmap) != ground_x.size:
        raise InputError("h must be defined on the whole ground set")
    if any(not 0 <= y < ground_y.size for y in hmap):
        raise InputError("h maps outside the target ground set")

    fibers = [0] * ground_y.size  # bitmask of X per point of Y
    for x, y in enumerate(hmap):
        fibers[y] |= 1 << x
    images = [0] * fam.algebra.atom_count  # bitmask of Y per atom of X
    for k, a in enumerate(fam.algebra.atoms):
        for x in a.indices():
            images[k] |= 1 << hmap[x]

    seen = 0
    cells: list[int] = []
    weights: list[Fraction] = []
    for y in range(ground_y.size):
        if seen >> y & 1:
            continue
        cell = 1 << y
        while True:
            preimage = 0
            for yy in range(ground_y.size):
                if cell >> yy & 1:
                    preimage |= fibers[yy]
            grown = cell
            for k, a in enumerate(fam.algebra.atoms):
                if a.bits & preimage:
                    grown |= images[k]
            if grown == cell:
                break
            cell = grown
        seen |= cell
        cells.append(cell)
        weights.append(
            sum(
                (w for a, w in zip(fam.algebra.atoms, fam.weights) if a.bits & preimage),
                Fraction(0),
            )
        )
    algebra_y = Algebra(ground_y, tuple(SetElem(ground_y, c) for c in cells))
    by_cell = {c: w for c, w in zip(cells, weights)}
    return Fam(algebra_y, tuple(by_cell[a.bits] for a in algebra_y.atoms))


def restrict(fam: Fam, b: SetElem) -> Fam:
    """The fam restricted to the relative algebra on ``b``; weights inherited."""
    fam.algebra.require(b)
    if b.is_empty:
        raise InputError("cannot restrict to the empty set")
    indices = b.indices()
    sub_ground = GroundSet(tuple(fam.algebra.ground.labels[i] for i in indices))
    position = {x: j for j, x in enumerate(indices)}
    cells = []
    weights = []
    for a, w in zip(fam.algebra.atoms, fam.weights):
        inter = a & b
        if not inter.is_empty:
            cells.append(SetElem.from_indices(sub_ground, (position[x] for x in inter.indices())))
            weights.append(w)
    algebra = Algebra(sub_ground, cells)
    by_bits = {c.bits: w for c, w in zip(cells, weights)}
    return Fam(algebra, tuple(by_bits[a.bits] for a in algebra.atoms))


def classify(fam: Fam) -> FamFlags:
    """Classification flags.

    Freeness is reported literally: all singletons in the algebra with
    measure zero.  On a finite ground set this forces total measure zero,
    as does ``finite_sets_null`` (every element is finite here).
    """
    delta = fam.total
    all_singletons = all(a.size == 1 for a in fam.algebra.atoms)
    return FamFlags(
        probability=delta == 1,
        strictly_positive=all(w > 0 for w in fam.weights),
        free=all_singletons and all(w == 0 for w in fam.weights),
        finite_sets_null=all(w == 0 for w in fam.weights),
    )


def uniformly_supported(fam: Fam) -> SupportWitness | None:
    """Least ``d`` making every value a multiple of ``total/d``, or None.

    Both defining conditions reduce to per-atom checks: every weight must be
    a multiple of ``total/d`` (d = lcm of the reduced denominators of
    ``w/total``), and ``d*w <= |atom|*total`` must hold on each atom, which
    only gets harder for multiples of the lcm.
    """
    delta = fam.total
    if delta == 0:
        raise DegenerateFamError("uniform support is undefined for the zero fam")
    ratios = [w / delta for w in fam.weights]
    d = 1
    for r in ratios:
        d = d * r.denominator // math.gcd(d, r.denominator)
    for a, r in zip(fam.algebra.atoms, ratios):
        if r * d > a.size:
            return None
    # greedy minimal-positive-measure peeling: positive atoms by ascending
    # weight, then one null remainder cell
    positive = sorted(
        (a for a, w in zip(fam.algebra.atoms, fam.weights) if w > 0),
        key=lambda a: (fam.weight_of(a), a.bits),
    )
    rest = SetElem.full(fam.algebra.ground)
    for a in positive:
        rest = rest - a
    cells = list(positive) + ([rest] if not rest.is_empty else [])
    return SupportWitness(d, Partition(fam.algebra, cells))


def has_uap(fam: Fam) -> bool:
    """Uniform approximation property: null on finite sets, or uniformly supported."""
    if fam.total == 0:
        return True
    return uniformly_supported(fam) is not None
