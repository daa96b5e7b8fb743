"""Independent brute-force verifiers used by the test suites.

Deliberately disjoint from the production algorithms: feasibility by
Fourier-Motzkin elimination instead of simplex pivoting, extension
conditions by exhaustive scans, and integrals by full partition
enumeration.  Test-only surface; everything here trades speed for
obvious correctness.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CapExceededError, FamkitError
from .extend import PartialAssignment
from .fam import Fam
from .simplex import FeasibilitySystem

FM_VAR_CAP = 12
FM_ROW_CAP = 400_000


def _fm_canonical(coeffs: tuple[Fraction, ...], const: Fraction):
    """Scale a row to coprime integers so duplicates collapse."""
    denom = const.denominator
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    k = int(const * denom)
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    g = math.gcd(g, abs(k))
    if g > 1:
        ints = [v // g for v in ints]
        k //= g
    return tuple(ints), k


def fm_feasible(system: FeasibilitySystem) -> bool:
    """Feasibility verdict by exact Fourier-Motzkin elimination.

    Equalities are substituted away first, one variable each.  The other
    variables are eliminated in descending index order (the reverse of the
    simplex's Bland order); rows are kept canonical and deduplicated to
    tame the combination blowup.  No witness is produced.
    """
    n = system.n_vars
    if n > FM_VAR_CAP:
        raise CapExceededError(f"Fourier-Motzkin capped at {FM_VAR_CAP} variables")
    # rows as (coeffs, const) meaning sum(coeffs * w) <= const
    raw: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for coeffs, lo, hi in system.intervals:
        if hi is not None:
            raw.append((tuple(coeffs), Fraction(hi)))
        if lo is not None:
            raw.append((tuple(-c for c in coeffs), -Fraction(lo)))
    for i in range(n):
        raw.append((tuple(Fraction(-1) if j == i else Fraction(0) for j in range(n)), Fraction(0)))
    # each equality is solved for its highest-index variable with a nonzero
    # coefficient, which is substituted away from the rows and the later
    # equalities; its w >= 0 row becomes a row on the other variables
    equalities = [(tuple(map(Fraction, coeffs)), Fraction(rhs)) for coeffs, rhs in system.equalities]
    while equalities:
        coeffs, rhs = equalities.pop(0)
        pivot = next((j for j in reversed(range(n)) if coeffs[j]), None)
        if pivot is None:
            if rhs:
                return False  # 0 = rhs, with rhs nonzero
            continue

        def substituted(row):
            row_coeffs, row_const = row
            f = row_coeffs[pivot] / coeffs[pivot]
            if not f:
                return row
            return tuple(a - f * c for a, c in zip(row_coeffs, coeffs)), row_const - f * rhs

        raw = [substituted(row) for row in raw]
        equalities = [substituted(row) for row in equalities]

    rows = {_fm_canonical(c, k) for c, k in raw}
    for var in reversed(range(n)):
        pos, neg, rest = [], [], set()
        for coeffs, const in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                rest.add((coeffs, const))
        if len(rest) + len(pos) * len(neg) > FM_ROW_CAP:
            raise CapExceededError("Fourier-Motzkin row blowup")
        for (pc, pconst), (nc, nconst) in itertools.product(pos, neg):
            scale_p, scale_n = -nc[var], pc[var]
            coeffs = tuple(scale_p * a + scale_n * b for a, b in zip(pc, nc))
            const = scale_p * pconst + scale_n * nconst
            rest.add(_fm_canonical(tuple(Fraction(c) for c in coeffs), Fraction(const)))
        rows = rest
    return all(const >= 0 for _, const in rows)


def scan_positivity_condition(assignment: PartialAssignment, h_bound: int = 3) -> bool:
    """Refute the positivity condition by enumerating integer h-vectors.

    Sound refuter: a returned False exhibits a violating h with entries in
    ``[-h_bound, h_bound]``; True means no violation within the bound.
    """
    sets = [s for s, _ in assignment.pairs]
    values = [v for _, v in assignment.pairs]
    if len(sets) > 5 or h_bound > 3:
        raise CapExceededError("positivity scan capped at 5 sets and |h| <= 3")
    n = assignment.ground.size
    for h in itertools.product(range(-h_bound, h_bound + 1), repeat=len(sets)):
        if all(sum(hv for s, hv in zip(sets, h) if x in s) >= 0 for x in range(n)):
            if sum(hv * v for hv, v in zip(h, values)) < 0:
                return False
    return True


def scan_order_condition(fam0: Fam, fam1: Fam) -> bool:
    """Direct double loop over all element pairs of both algebras.

    Checks the full symmetric order condition: for both orientations,
    ``a <= a'`` implies the values compare.
    """
    if fam0.algebra.size() > 1 << 10 or fam1.algebra.size() > 1 << 10:
        raise CapExceededError("order scan capped at 2^10 elements per algebra")
    elems0 = list(fam0.algebra.elements())
    elems1 = list(fam1.algebra.elements())
    for a in elems0:
        for b in elems1:
            if a <= b and fam0(a) > fam1(b):
                return False
            if b <= a and fam1(b) > fam0(a):
                return False
    return True


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All partitions of ``items`` via restricted-growth strings."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return

    def rec(i: int, rgs: list[int], maximum: int):
        if i == n:
            blocks: dict[int, list] = {}
            for idx, block in enumerate(rgs):
                blocks.setdefault(block, []).append(items[idx])
            yield [blocks[k] for k in sorted(blocks)]
            return
        for b in range(maximum + 2):
            rgs.append(b)
            yield from rec(i + 1, rgs, max(maximum, b))
            rgs.pop()

    yield from rec(1, [0], 0)


def exhaustive_integral_bounds(f_table: Sequence, fam: Fam) -> tuple[Fraction, Fraction]:
    """Lower/upper integrals by enumerating every partition of the atom set."""
    values = [Fraction(v) for v in f_table]
    atoms = fam.algebra.atoms
    if len(atoms) > 5:
        raise CapExceededError("exhaustive integral capped at 5 atoms")
    lower = None
    upper = None
    for blocks in set_partitions(range(len(atoms))):
        infsum = Fraction(0)
        supsum = Fraction(0)
        for block in blocks:
            cell_points = [x for k in block for x in atoms[k].indices()]
            weight = sum((fam.weights[k] for k in block), Fraction(0))
            infsum += min(values[x] for x in cell_points) * weight
            supsum += max(values[x] for x in cell_points) * weight
        lower = infsum if lower is None else max(lower, infsum)
        upper = supsum if upper is None else min(upper, supsum)
    return lower, upper


def exhaustive_integral(f_table: Sequence, fam: Fam) -> Fraction:
    """The integral when lower and upper agree; raises otherwise."""
    lower, upper = exhaustive_integral_bounds(f_table, fam)
    if lower != upper:
        raise FamkitError(f"not integrable: bounds [{lower}, {upper}] differ")
    return upper
