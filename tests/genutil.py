"""Seeded random generators shared by the property and acceptance suites,
and a reference enclosure of polynomials."""

import math

from fractions import Fraction
from random import Random

from famkit.boolalg import Algebra, GroundSet, Partition, SetElem
from famkit.boxes import BoxElem, make_box
from famkit.fam import Fam
from famkit.functions import HalfPlaneRegion, RegionIntersection


def random_subset(rng: Random, ground: GroundSet, nonempty: bool = False) -> SetElem:
    while True:
        bits = rng.getrandbits(ground.size)
        if bits or not nonempty:
            return SetElem(ground, bits)


def random_algebra(rng: Random, ground: GroundSet, max_atoms: int) -> Algebra:
    """Random subalgebra with at most ``max_atoms`` atoms."""
    atoms = [SetElem.full(ground)]
    while True:
        splittable = [a for a in atoms if a.size > 1]
        if not splittable or len(atoms) >= max_atoms or rng.random() < 0.25:
            return Algebra(ground, atoms)
        target = rng.choice(splittable)
        indices = list(target.indices())
        cut = rng.randint(1, len(indices) - 1)
        rng.shuffle(indices)
        left = SetElem.from_indices(ground, indices[:cut])
        atoms.remove(target)
        atoms.extend([left, target - left])


def random_rational(rng: Random, max_denominator: int, max_numerator: int | None = None) -> Fraction:
    q = rng.randint(1, max_denominator)
    p = rng.randint(0, max_numerator if max_numerator is not None else q)
    return Fraction(p, q)


def random_fam(
    rng: Random,
    ground: GroundSet,
    max_atoms: int,
    max_denominator: int = 6,
    probability: bool = False,
    positive_total: bool = True,
) -> Fam:
    """Random fam with weight denominators bounded by ``max_denominator``.

    Probability fams are built by completing the last weight, never by
    normalizing, so the denominator bound survives.
    """
    algebra = random_algebra(rng, ground, max_atoms)
    while True:
        weights = [random_rational(rng, max_denominator) for _ in algebra.atoms]
        if probability:
            partial = sum(weights[:-1], Fraction(0))
            last = 1 - partial
            if last < 0 or last > 1 or last.denominator > max_denominator:
                continue
            weights[-1] = last
        total = sum(weights, Fraction(0))
        if positive_total and total == 0:
            continue
        return Fam(algebra, weights)


def random_partition(rng: Random, algebra: Algebra) -> Partition:
    """Random coarsening of the atom partition."""
    n_blocks = rng.randint(1, algebra.atom_count)
    assignment = [rng.randrange(n_blocks) for _ in algebra.atoms]
    blocks: dict[int, int] = {}
    for a, which in zip(algebra.atoms, assignment):
        blocks[which] = blocks.get(which, 0) | a.bits
    return Partition(algebra, [SetElem(algebra.ground, bits) for bits in blocks.values()])


def random_table(rng: Random, ground: GroundSet, max_denominator: int = 6, span: int = 4) -> list[Fraction]:
    return [
        Fraction(rng.randint(-span * max_denominator, span * max_denominator), rng.randint(1, max_denominator))
        for _ in range(ground.size)
    ]


def random_jordan_region(rng: Random):
    """A half-plane, a union of up to two boxes on the 1/8 grid, or an
    intersection of two half-planes, in the unit square."""
    kind = rng.randrange(3)
    if kind == 0:
        normal = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
        if normal == [0, 0]:
            normal[rng.randrange(2)] = Fraction(1)
        offset = Fraction(rng.randint(-2, 4), rng.randint(1, 3))
        return HalfPlaneRegion(normal, offset)
    if kind == 1:
        boxes = []
        for _ in range(rng.randint(1, 2)):
            x0, x1 = sorted(Fraction(rng.randint(0, 8), 8) for _ in range(2))
            y0, y1 = sorted(Fraction(rng.randint(0, 8), 8) for _ in range(2))
            if x0 < x1 and y0 < y1:
                boxes.append(make_box([[x0, x1], [y0, y1]]))
        if boxes:
            return BoxElem(boxes)
        return HalfPlaneRegion((1, 0), Fraction(1, 2))
    return RegionIntersection(
        HalfPlaneRegion((Fraction(rng.randint(1, 2)), Fraction(rng.randint(-1, 1))), Fraction(rng.randint(0, 2))),
        HalfPlaneRegion((Fraction(-1), Fraction(rng.randint(-1, 1))), Fraction(rng.randint(0, 2), 3)),
    )


def _ipow(x: float, e: int) -> float:
    r = 1.0
    for _ in range(e):
        r *= x
    return r


def _pow_interval(lo: float, hi: float, e: int) -> tuple[float, float]:
    if e % 2 == 1 or lo >= 0.0:
        return _ipow(lo, e), _ipow(hi, e)
    if hi <= 0.0:
        return _ipow(hi, e), _ipow(lo, e)
    a, b = _ipow(lo, e), _ipow(hi, e)
    return 0.0, a if a > b else b


def per_term_range(exps, coeffs, lo, hi) -> tuple[float, float]:
    """The natural interval extension of a polynomial over the box
    ``[lo, hi]``, term by term from the raw ``exps`` and ``coeffs``, zero
    terms included, and without the enclosure plan that famkit compiles:
    each power by repeated products from 1.0, each factor by the minimum
    and maximum of four products.  Where no NaN arises it is bit for bit
    the enclosure of every walk of the plan."""
    rlo = 0.0
    rhi = 0.0
    for exp, c in zip(exps, coeffs):
        tlo = c
        thi = c
        for d, e in enumerate(exp):
            if e:
                plo, phi = _pow_interval(lo[d], hi[d], e)
                a = tlo * plo
                b = tlo * phi
                cc = thi * plo
                dd = thi * phi
                tlo = min(a, b, cc, dd)
                thi = max(a, b, cc, dd)
        rlo += tlo
        rhi += thi
    return rlo, rhi


def assert_matches_per_term(got, exps, coeffs, lo, hi):
    """``got``, an enclosure walked from the plan of ``exps`` and
    ``coeffs``, is bit for bit :func:`per_term_range`, unless either holds
    a NaN."""
    want = per_term_range(exps, coeffs, lo, hi)
    if not any(map(math.isnan, (*got, *want))):
        assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())
