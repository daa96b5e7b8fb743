"""Decision procedures and constructors for fam existence and extension.

Everything here reduces to exact rational linear feasibility over the atom
weights of a generated algebra: partial-assignment extension, two-fam
compatibility and amalgamation, filter-forced and three-way extension, and
constrained existence (set values, integral values, ultrafilter limits).

Feasible results carry an exact witness fam (the first basic feasible
solution under Bland ordering); infeasible results carry a checkable
certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from .boolalg import Algebra, GroundSet, SetElem, generate_algebra
from .errors import (
    BoundsError,
    CapExceededError,
    DegenerateFamError,
    FamkitError,
    GroundMismatchError,
    InputError,
)
from .fam import Fam, RationalLike, as_fraction, as_table, point_mass
from .simplex import FeasibilitySystem, optimize, solve_feasibility

#: Cap on branch fan-out when targets are finite sets of values.
BRANCH_CAP = 4096


@dataclass(frozen=True)
class PartialAssignment:
    """A partial function from sets to nonnegative rationals, with X in its domain."""

    ground: GroundSet
    pairs: tuple[tuple[SetElem, Fraction], ...]

    def __init__(self, ground: GroundSet, pairs: Sequence[tuple[SetElem, RationalLike]]):
        norm = []
        seen = set()
        total = None
        for s, v in pairs:
            if s.ground != ground:
                raise GroundMismatchError("assignment set over a different ground set")
            if s.bits in seen:
                raise InputError(f"duplicate set {s} in assignment")
            seen.add(s.bits)
            value = as_fraction(v)
            if value < 0:
                raise InputError("assignment values must be nonnegative")
            if s.bits == ground.full_mask:
                total = value
            norm.append((s, value))
        if total is None:
            raise InputError("the full ground set must be in the assignment domain")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "pairs", tuple(norm))

    @property
    def delta(self) -> Fraction:
        for s, v in self.pairs:
            if s.bits == self.ground.full_mask:
                return v
        raise FamkitError("unreachable: X not in domain")


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable witness of infeasibility."""

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExtensionResult:
    status: str  # "feasible" | "infeasible"
    witness: Fam | None = None
    certificate: Certificate | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _row(algebra: Algebra, s: SetElem) -> tuple[Fraction, ...]:
    """The coefficients of the measure of ``s`` in the atom weights of ``algebra``."""
    return tuple(Fraction(1) if a.bits & s.bits else Fraction(0) for a in algebra.atoms)


def _assignment_system(assignment: PartialAssignment, extra_sets: Sequence[SetElem] = ()) -> tuple[Algebra, FeasibilitySystem]:
    algebra = generate_algebra(
        assignment.ground, [s for s, _ in assignment.pairs] + list(extra_sets)
    )
    eqs = tuple((_row(algebra, s), v) for s, v in assignment.pairs)
    return algebra, FeasibilitySystem(n_vars=algebra.atom_count, equalities=eqs)


def _integer_h(farkas: Sequence[Fraction]) -> list[int]:
    denom = 1
    for y in farkas:
        denom = denom * y.denominator // math.gcd(denom, y.denominator)
    return [int(-y * denom) for y in farkas]


def check_separating_vector(assignment: PartialAssignment, h: Sequence[int]) -> bool:
    """Verify an h-vector: sum h(a)*chi_a >= 0 pointwise while sum h(a)f(a) < 0."""
    if len(h) != len(assignment.pairs):
        return False
    n = assignment.ground.size
    for x in range(n):
        if sum(hv for (s, _), hv in zip(assignment.pairs, h) if x in s) < 0:
            return False
    return sum(hv * v for (_, v), hv in zip(assignment.pairs, h)) < 0


def extend_assignment(assignment: PartialAssignment) -> ExtensionResult:
    """Decide whether a fam on the generated algebra extends the assignment.

    Feasibility of nonnegative atom weights matching all pairs; infeasible
    outcomes return a separating integer h-vector refuting the positivity
    condition, verified before it is emitted.
    """
    algebra, system = _assignment_system(assignment)
    outcome = solve_feasibility(system)
    if outcome.feasible:
        return ExtensionResult("feasible", witness=Fam(algebra, outcome.solution))
    h = _integer_h(outcome.farkas)
    if not check_separating_vector(assignment, h):
        raise FamkitError("internal: produced an invalid infeasibility certificate")
    return ExtensionResult(
        "infeasible",
        certificate=Certificate(
            "h_vector",
            {"sets": [s for s, _ in assignment.pairs], "h": h},
        ),
    )


def _violating(a: SetElem, a_prime: SetElem, value_a: Fraction, value_a_prime: Fraction) -> Certificate:
    """The compatibility certificate: ``a <= a'`` with ``value_a > value_a_prime``."""
    return Certificate(
        "violating_pair",
        {"a": a, "a_prime": a_prime, "value_a": value_a, "value_a_prime": value_a_prime},
    )


def _merged_assignment(fam0: Fam, fam1: Fam) -> tuple[PartialAssignment | None, Certificate | None]:
    # atom-level values determine each fam, so they suffice for the merge
    ground = fam0.algebra.ground
    pairs: list[tuple[SetElem, Fraction]] = []
    seen: dict[int, Fraction] = {}
    for fam in (fam0, fam1):
        for a, w in zip(fam.algebra.atoms, fam.weights):
            if a.bits in seen:
                if seen[a.bits] != w:
                    # the two fams disagree on a shared element
                    return None, _violating(a, a, max(seen[a.bits], w), min(seen[a.bits], w))
                continue
            seen[a.bits] = w
            pairs.append((a, w))
    if ground.full_mask not in seen:
        pairs.append((SetElem.full(ground), fam0.total))
    return PartialAssignment(ground, pairs), None


def _violating_pair(fam0: Fam, fam1: Fam) -> Certificate:
    # guaranteed to exist when no common extension does: scan floor
    # projections in both directions
    for lower, upper in ((fam0, fam1), (fam1, fam0)):
        for a_prime in upper.algebra.elements():
            a = lower.algebra.floor(a_prime)
            if lower(a) > upper(a_prime):
                return _violating(a, a_prime, lower(a), upper(a_prime))
    raise FamkitError("internal: infeasible merge without a violating pair")


def amalgamate(fam0: Fam, fam1: Fam) -> ExtensionResult:
    """Common extension of both fams on the algebra generated by their union."""
    if fam0.algebra.ground != fam1.algebra.ground:
        raise GroundMismatchError("fams over different ground sets")
    if fam0.total != fam1.total:
        full = SetElem.full(fam0.algebra.ground)
        return ExtensionResult(
            "infeasible",
            certificate=_violating(full, full, max(fam0.total, fam1.total), min(fam0.total, fam1.total)),
        )
    merged, conflict = _merged_assignment(fam0, fam1)
    if conflict is not None:
        return ExtensionResult("infeasible", certificate=conflict)
    result = extend_assignment(merged)
    if result.feasible:
        return result
    return ExtensionResult("infeasible", certificate=_violating_pair(fam0, fam1))


def compatible(fam0: Fam, fam1: Fam) -> tuple[bool, Certificate | None]:
    """Whether a common extension exists; on failure, a violating pair.

    The certificate is a pair ``a <= a'`` with ``Xi_d(a) > Xi_{d'}(a')``
    (totals reported as the pair ``(X, X)`` when they differ).
    """
    result = amalgamate(fam0, fam1)
    return result.feasible, result.certificate


def extension_bounds(fam: Fam, b: SetElem) -> tuple[Fraction, Fraction]:
    """Sharp bounds for the value of ``b`` under one-set extensions of ``fam``."""
    return fam(fam.algebra.floor(b)), fam(fam.algebra.ceil(b))


def value_range(assignment: PartialAssignment, b: SetElem) -> tuple[Fraction, Fraction] | None:
    """Exact feasible range of the value of ``b`` under the assignment, or None.

    Minimizes and maximizes over the algebra generated by the assignment's
    domain together with ``b``, from one shared phase 1.
    """
    algebra, system = _assignment_system(assignment, extra_sets=[b])
    inside = _row(algebra, b)
    optima = optimize(system, [inside, [-c for c in inside]])
    if optima is None:
        return None
    (low, _), (negated_high, _) = optima
    return low, -negated_high


def _refined(fam: Fam, sets: Sequence[SetElem], weights: dict[int, Fraction]) -> Fam:
    """The fam on the algebra generated by ``fam``'s atoms and ``sets``, with
    atom weights keyed by bits (an atom missing from ``weights`` weighs 0)."""
    algebra = generate_algebra(fam.algebra.ground, list(fam.algebra.atoms) + list(sets))
    return Fam(algebra, tuple(weights.get(a.bits, Fraction(0)) for a in algebra.atoms))


def extend_one(fam: Fam, b: SetElem, z: RationalLike) -> Fam:
    """Extension to the algebra with ``b`` adjoined, taking value ``z`` at ``b``.

    Splits each atom by ``b`` and saturates the inside pieces greedily, in
    atom order, until the mass on ``b`` reaches ``z``.
    """
    z = as_fraction(z)
    lo, hi = extension_bounds(fam, b)
    if not lo <= z <= hi:
        raise BoundsError(f"target {z} outside extension bounds [{lo}, {hi}]")
    need = z - fam(fam.algebra.floor(b))
    weights: dict[int, Fraction] = {}
    for a, w in zip(fam.algebra.atoms, fam.weights):
        inside = a.bits & b.bits
        outside = a.bits & ~b.bits
        if inside and outside:
            take = min(w, need)
            need -= take
            weights[inside] = take
            weights[outside] = w - take
        else:
            weights[a.bits] = w
    assert need == 0
    return _refined(fam, [b], weights)


def extend_preserving_range(fam: Fam, b: SetElem, K: Sequence[RationalLike]) -> Fam:
    """One-set extension whose value set stays inside the closed set ``K``.

    Uses the atom rule: the piece of each atom inside ``b`` inherits the
    atom's weight and the outside piece gets zero (swapped when one side is
    empty).  Requires ``0 in K`` and every current value in ``K``.
    """
    kset = {as_fraction(v) for v in K}
    if Fraction(0) not in kset:
        raise InputError("K must contain 0")
    sums = {Fraction(0)}
    for w in fam.weights:
        sums = {s + t for s in sums for t in (Fraction(0), w)}
        bad = sums - kset
        if bad:
            raise InputError(f"fam value {min(bad)} is outside K")
    weights: dict[int, Fraction] = {}
    for a, w in zip(fam.algebra.atoms, fam.weights):
        inside = a.bits & b.bits
        outside = a.bits & ~b.bits
        if inside and outside:
            weights[inside] = w
            weights[outside] = Fraction(0)
        else:
            weights[a.bits] = w
    return _refined(fam, [b], weights)


def extend_with_filter(fam0: Fam, filter_gens: Sequence[SetElem]) -> ExtensionResult:
    """The unique extension forcing full measure on every filter generator.

    Checks the hypothesis (every positive-measure element meets every finite
    meet of generators; by monotonicity the full meet suffices, and
    positive atoms suffice among elements), then pushes each atom's mass
    into its slice of the generators' intersection.
    """
    ground = fam0.algebra.ground
    if fam0.total <= 0:
        raise DegenerateFamError("filter extension needs positive total measure")
    core_bits = ground.full_mask
    for g in filter_gens:
        if g.ground != ground:
            raise GroundMismatchError("generator over a different ground set")
        core_bits &= g.bits
    for a, w in zip(fam0.algebra.atoms, fam0.weights):
        if w > 0 and not a.bits & core_bits:
            return ExtensionResult(
                "infeasible",
                certificate=Certificate(
                    "filter_hypothesis",
                    {"b": a, "value": w, "generators": list(filter_gens)},
                ),
            )
    weights: dict[int, Fraction] = {}
    for a, w in zip(fam0.algebra.atoms, fam0.weights):
        slice_bits = a.bits & core_bits
        if slice_bits:
            weights[slice_bits] = w
        # w == 0 is guaranteed when the slice is empty
    return ExtensionResult("feasible", witness=_refined(fam0, filter_gens, weights))


def three_way_extend(fam0: Fam, fam1: Fam, filter_gens: Sequence[SetElem]) -> ExtensionResult:
    """Simultaneous extension of two fams and a filter (full measure on generators).

    Mirrors the constructive proof: filter-extend each fam, whose hypothesis
    is bullet 1, check bullet 2 on the finite algebra (the full generator
    meet dominates every finite sub-meet, so quantifying over it is
    complete), and amalgamate the two extensions.
    """
    ground = fam0.algebra.ground
    if fam1.algebra.ground != ground:
        raise GroundMismatchError("fams over different ground sets")
    if fam0.total != fam1.total:
        raise InputError("both fams must have the same total measure")
    if fam0.total <= 0:
        raise DegenerateFamError("three-way extension needs positive total measure")

    # bullet 1 is the filter extension's hypothesis, for each fam
    lifted = []
    for side, fam in enumerate((fam0, fam1)):
        result = extend_with_filter(fam, filter_gens)
        if not result.feasible:
            return ExtensionResult(
                "infeasible",
                certificate=Certificate("bullet1", {"side": side, **result.certificate.payload}),
            )
        lifted.append(result.witness)
    core_bits = ground.full_mask
    for g in filter_gens:
        core_bits &= g.bits

    # bullet 2: if a and b agree inside the core ordering, values must compare
    if fam0.algebra.atom_count + fam1.algebra.atom_count > 24:
        raise CapExceededError("three-way bullet scan over more than 2^24 element pairs")
    for a in fam0.algebra.elements():
        va = fam0(a)
        if va == 0:
            continue
        for b in fam1.algebra.elements():
            if a.bits & ~b.bits & core_bits:
                continue  # a /\ core is not below b /\ core
            if va > fam1(b):
                return ExtensionResult(
                    "infeasible",
                    certificate=Certificate(
                        "bullet2",
                        {"a": a, "b": b, "value_a": va, "value_b": fam1(b), "generators": list(filter_gens)},
                    ),
                )

    result = amalgamate(*lifted)
    if not result.feasible:
        raise FamkitError("internal: bullet conditions passed but amalgamation failed")
    return result


# -- constrained existence ---------------------------------------------


def _normalize_target(target) -> list[tuple[Fraction, Fraction]]:
    """A target is a closed interval ``(lo, hi)``, a point, or a finite set."""
    if isinstance(target, tuple):
        lo, hi = (as_fraction(x) for x in target)
        if lo > hi:
            raise InputError(f"malformed interval [{lo}, {hi}]")
        return [(lo, hi)]
    if isinstance(target, (list, set, frozenset)):
        points = sorted(as_fraction(x) for x in target)
        if not points:
            raise InputError("empty target set")
        return [(p, p) for p in points]
    v = as_fraction(target)
    return [(v, v)]


def _solve_with_targets(
    algebra: Algebra,
    equalities: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    rows: Sequence[tuple[Fraction, ...]],
    targets: Sequence,
) -> ExtensionResult:
    """A fam on ``algebra`` meeting the equalities with each row constrained
    to its target; finite-set targets branch into one solve per combination."""
    if len(rows) != len(targets):
        raise InputError("need exactly one target per constrained row")
    options = [_normalize_target(t) for t in targets]
    branches = 1
    for opt in options:
        branches *= len(opt)
        if branches > BRANCH_CAP:
            raise CapExceededError("too many finite-set target combinations")
    for combo in itertools.product(*options) if options else [()]:
        system = FeasibilitySystem(
            n_vars=algebra.atom_count,
            equalities=tuple(equalities),
            intervals=tuple((row, lo, hi) for row, (lo, hi) in zip(rows, combo)),
        )
        outcome = solve_feasibility(system)
        if outcome.feasible:
            return ExtensionResult("feasible", witness=Fam(algebra, outcome.solution))
    return ExtensionResult("infeasible", certificate=Certificate("no_branch_feasible", {}))


def fam_with_constraints(
    ground: GroundSet,
    sets: Sequence[SetElem],
    targets: Sequence,
    delta: RationalLike,
) -> ExtensionResult:
    """Existence of a fam on the generated algebra with constrained set values."""
    delta = as_fraction(delta)
    if delta < 0:
        raise InputError("total measure must be nonnegative")
    for t in targets:
        for lo, hi in _normalize_target(t):
            if lo < 0 or hi > delta:
                raise InputError(f"target [{lo}, {hi}] outside [0, {delta}]")
    algebra = generate_algebra(ground, list(sets))
    rows = [_row(algebra, s) for s in sets]
    return _solve_with_targets(algebra, [(_row(algebra, SetElem.full(ground)), delta)], rows, targets)


def fam_with_integral_constraints(
    fam0: Fam,
    fns: Sequence[Sequence[RationalLike]],
    targets: Sequence,
) -> ExtensionResult:
    """Extension of ``fam0`` to the full power set with constrained integrals.

    On a finite ground set the integral of a table function against a fam on
    the power set is linear in the singleton weights, so this is plain
    feasibility.  (Variants demanding the uap are checked post-hoc by the
    caller via :func:`famkit.fam.has_uap` on the witness.)
    """
    ground = fam0.algebra.ground
    tables = [as_table(fn, ground) for fn in fns]
    power = Algebra.power_set(ground)
    equalities = [(_row(power, a), w) for a, w in zip(fam0.algebra.atoms, fam0.weights)]
    return _solve_with_targets(power, equalities, tables, targets)


def ultrafilter_with_limits(
    ultra0: Fam,
    fns: Sequence[Sequence[RationalLike]],
    targets: Sequence,
) -> ExtensionResult:
    """Principal-ultrafilter extension with constrained function limits.

    On a finite algebra a 0/1 fam is principal at a single atom; scan its
    points for one where every function value lands in its target, and
    return the principal ultrafilter there (the ultrafilter limit of each
    function is then its value at that point).
    """
    ground = ultra0.algebra.ground
    tables = [as_table(fn, ground) for fn in fns]
    if ultra0.total != 1 or any(w not in (0, 1) for w in ultra0.weights):
        raise InputError("ultra0 must be a 0/1-valued probability fam")
    core = next(a for a, w in zip(ultra0.algebra.atoms, ultra0.weights) if w == 1)
    options = [_normalize_target(t) for t in targets]
    if len(tables) != len(options):
        raise InputError("need exactly one target per function")
    for z in core.indices():
        if all(
            any(lo <= table[z] <= hi for lo, hi in opts)
            for table, opts in zip(tables, options)
        ):
            witness = point_mass(ground, z)
            return ExtensionResult("feasible", witness=witness)
    return ExtensionResult(
        "infeasible",
        certificate=Certificate("no_point", {"core": core}),
    )
