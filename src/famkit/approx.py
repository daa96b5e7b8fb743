"""Constructive approximation of fams by probability measures on finite sets.

The core construction rounds cell masses to a common denominator
``c = ceil(delta/epsilon)`` by a floor-difference recursion, places points
uniformly (mass ``1/c``) in every cell with room for them, and keeps exact
cell masses on single points elsewhere.  All checks are exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boolalg import Partition, SetElem
from .errors import BlockedCellError, CapExceededError, DegenerateFamError, InputError
from .fam import Fam, RationalLike, as_fraction, as_table, uniformly_supported

#: Candidate cap for the exhaustive uap witness search.
SEARCH_CAP = 5_000_000


@dataclass(frozen=True)
class FiniteApprox:
    """A finite set ``u`` with a probability measure on its points."""

    u: SetElem
    mu: dict[int, Fraction]
    uniform: bool

    def mass(self, b: SetElem) -> Fraction:
        """``mu(u & b)``, the approximating measure of a cell."""
        return sum((m for i, m in self.mu.items() if i in b), Fraction(0))

    def errors_per_cell(self, fam: Fam, partition: Partition) -> dict[SetElem, Fraction]:
        delta = fam.total
        return {b: abs(delta * self.mass(b) - fam(b)) for b in partition.cells}


def _recurse_rounding(masses: Sequence[Fraction], c: int) -> list[int]:
    # k_m = floor(S_m) - floor(S_{m-1}) for the running sums S of c*mass:
    # each k_m is within 1 of its term and the k's sum to floor(S_total)
    ks = []
    running = Fraction(0)
    prev_floor = 0
    for m in masses:
        running += c * m
        f = math.floor(running)
        ks.append(f - prev_floor)
        prev_floor = f
    return ks


def _positive(fam: Fam, epsilon: RationalLike, what: str) -> tuple[Fraction, Fraction]:
    """The fam's total and ``epsilon`` as a rational, each checked positive."""
    delta = fam.total
    if delta <= 0:
        raise DegenerateFamError(f"{what} needs positive total measure")
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    return delta, epsilon


def approx_uniform(
    fam: Fam,
    partition: Partition,
    epsilon: RationalLike,
    avoid: SetElem | None = None,
) -> FiniteApprox:
    """Finite approximation with per-cell error below ``epsilon``.

    Cells with room for their full point quota get uniformly weighted
    points chosen outside ``avoid``; crowded cells fall back to a single
    point carrying the exact cell mass (plus at most one rounding
    remainder below ``delta/c``).  Zero-measure cells receive no points,
    and ``|u| <= c``.
    """
    delta, epsilon = _positive(fam, epsilon, "approximation")
    if partition.algebra != fam.algebra:
        raise InputError("partition must live on the fam's algebra")
    if avoid is None:
        avoid = SetElem.empty(fam.algebra.ground)

    c = math.ceil(delta / epsilon)
    cells = list(partition.cells)
    ratios = {b: fam(b) / delta for b in cells}

    uniform_cells: list[SetElem] = []
    exact_cells: list[SetElem] = []
    for b in cells:
        if ratios[b] == 0:
            continue
        room = (b - avoid).size
        if room == 0:
            raise BlockedCellError(b)
        if room >= math.ceil(c * ratios[b]):
            uniform_cells.append(b)
        else:
            exact_cells.append(b)

    ks = _recurse_rounding([ratios[b] for b in uniform_cells], c)
    # remainder dumped on the first exact cell keeps the total at one
    beta = sum((ratios[b] for b in uniform_cells), Fraction(0)) - Fraction(sum(ks), c)
    assert 0 <= beta < Fraction(1, c)
    assert beta == 0 or exact_cells

    mu: dict[int, Fraction] = {}
    points = 0
    for b, k in zip(uniform_cells, ks):
        chosen = (b - avoid).indices()[:k]
        for i in chosen:
            mu[i] = Fraction(1, c)
        points |= sum(1 << i for i in chosen)
    for pos, b in enumerate(exact_cells):
        i = (b - avoid).indices()[0]
        mu[i] = ratios[b] + (beta if pos == 0 else 0)
        points |= 1 << i
    u = SetElem(fam.algebra.ground, points)
    masses = set(mu.values())
    return FiniteApprox(u=u, mu=mu, uniform=len(masses) == 1)


def approx_uniform_small(fam: Fam, partition: Partition, epsilon: RationalLike) -> FiniteApprox:
    """As :func:`approx_uniform` with size capped by ``min(c, |P|)``.

    When the partition is the smaller bound, one point per positive-measure
    cell carries the exact cell mass.
    """
    delta, epsilon = _positive(fam, epsilon, "approximation")
    if math.ceil(delta / epsilon) <= len(partition.cells):
        return approx_uniform(fam, partition, epsilon)
    mu: dict[int, Fraction] = {}
    points = 0
    for b in partition.cells:
        mass = fam(b)
        if mass == 0:
            continue
        i = b.indices()[0]
        mu[i] = mass / delta
        points |= 1 << i
    u = SetElem(fam.algebra.ground, points)
    return FiniteApprox(u=u, mu=mu, uniform=len(set(mu.values())) == 1)


def _witness_ok(fam: Fam, partition: Partition, epsilon: Fraction, u_bits: int) -> bool:
    size = u_bits.bit_count()
    delta = fam.total
    for b in partition.cells:
        ratio = Fraction((u_bits & b.bits).bit_count(), size)
        if abs(delta * ratio - fam(b)) >= epsilon:
            return False
    return True


def uap_witness(fam: Fam, partition: Partition, epsilon: RationalLike) -> SetElem | None:
    """A finite ``u`` with ``|delta*|u&b|/|u| - Xi(b)| < eps`` on every cell.

    Uniformly supported fams yield an exact witness of support size built
    from the support partition; otherwise the search is exhaustive up to
    size ``ceil(delta/epsilon)`` and None means none exists below that
    bound.
    """
    delta, epsilon = _positive(fam, epsilon, "uap witness")
    witness = uniformly_supported(fam)
    if witness is not None:
        bits = 0
        for cell in witness.support.cells:
            count = int(witness.d * fam(cell) / delta)
            for i in cell.indices()[:count]:
                bits |= 1 << i
        return SetElem(fam.algebra.ground, bits)
    n = fam.algebra.ground.size
    bound = min(math.ceil(delta / epsilon), n)
    total_candidates = sum(math.comb(n, size) for size in range(1, bound + 1))
    if total_candidates > SEARCH_CAP:
        raise CapExceededError("uap witness search space too large")
    for size in range(1, bound + 1):
        for combo in itertools.combinations(range(n), size):
            bits = sum(1 << i for i in combo)
            if _witness_ok(fam, partition, epsilon, bits):
                return SetElem(fam.algebra.ground, bits)
    return None


def approx_with_integrals(
    fam: Fam,
    partition: Partition,
    epsilon: RationalLike,
    fns: Sequence[Sequence[RationalLike]],
) -> FiniteApprox:
    """Approximation that also sandwiches the integral of each table function.

    Refines to the atom partition (the sharpest available) and tightens the
    working epsilon so that both the coarse-cell masses and the weighted
    sums stay within ``epsilon`` of their targets.
    """
    epsilon = as_fraction(epsilon)
    if not fns:
        return approx_uniform_small(fam, partition, epsilon)
    tables = [as_table(fn, fam.algebra.ground) for fn in fns]
    bound = max((abs(v) for t in tables for v in t), default=Fraction(0))
    atoms = Partition.of_atoms(fam.algebra)
    shrink = len(atoms.cells) * max(Fraction(1), bound)
    return approx_uniform_small(fam, atoms, epsilon / shrink)
