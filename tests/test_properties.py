"""Structural property suites: hypothesis-driven laws plus exhaustive
small-scale checks."""

import hashlib
import itertools
import math
import sys
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famkit.boolalg import (
    Algebra,
    GroundSet,
    Partition,
    SetElem,
    generate_algebra,
    is_refinement,
    meet_partitions,
)
from famkit.cantor import CantorClopen, clopen_measure, iota2_image
from famkit.extend import PartialAssignment, extend_assignment, extend_one, value_range
from famkit.fam import Fam, has_uap, uniformly_supported
from famkit.integrate import infsum, integrate, supsum
from famkit.oracle import exhaustive_integral_bounds, fm_feasible, set_partitions
from famkit.errors import CapExceededError
from famkit import simplex
from famkit.simplex import FeasibilitySystem, _Tableau, optimize, solve_feasibility

from genutil import assert_matches_per_term, random_fam, random_rational, random_table

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def masks(n, count):
    return st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=count)


class TestBoolalgProperties:
    @SETTINGS
    @given(masks(5, 4))
    def test_generated_algebra_closure(self, gen_masks):
        g = GroundSet.of_size(5)
        alg = generate_algebra(g, [SetElem(g, m) for m in gen_masks])
        elems = list(alg.elements())
        assert len(elems) == 2 ** alg.atom_count
        for x in elems:
            assert alg.contains(~x)
        for x, y in zip(elems, elems[1:]):
            assert alg.contains(x | y) and alg.contains(x & y)

    @SETTINGS
    @given(masks(6, 3), masks(6, 3))
    def test_meet_refines_both(self, pm, qm):
        g = GroundSet.of_size(6)
        alg = Algebra.power_set(g)
        rng = Random(13)

        def partition_from(ms):
            cells = {}
            for i in range(6):
                which = 0
                for j, m in enumerate(ms):
                    if m >> i & 1:
                        which = j + 1
                        break
                cells[which] = cells.get(which, 0) | (1 << i)
            return Partition(alg, [SetElem(g, bits) for bits in cells.values()])

        p, q = partition_from(pm), partition_from(qm)
        met = meet_partitions(p, q)
        assert is_refinement(met, p) and is_refinement(met, q)

    @SETTINGS
    @given(masks(6, 2), st.integers(min_value=0, max_value=63))
    def test_floor_ceil_sandwich(self, gens, target):
        g = GroundSet.of_size(6)
        alg = generate_algebra(g, [SetElem(g, m) for m in gens])
        b = SetElem(g, target)
        lo, hi = alg.floor(b), alg.ceil(b)
        assert lo <= b <= hi
        assert alg.floor(lo) == lo and alg.ceil(hi) == hi


class TestFamProperties:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_additivity_on_random_pairs(self, m1, m2):
        g = GroundSet.of_size(8)
        rng = Random(m1 * 256 + m2)
        fam = random_fam(rng, g, max_atoms=6)
        x, y = SetElem(g, m1), SetElem(g, m2)
        x = fam.algebra.ceil(x)
        y = fam.algebra.ceil(y) - x
        assert fam(x | y) == fam(x) + fam(y)

    def test_uniformly_supported_implies_uap(self):
        rng = Random(5)
        for _ in range(200):
            g = GroundSet.of_size(rng.randint(2, 8))
            fam = random_fam(rng, g, max_atoms=5, max_denominator=4)
            if fam.total > 0 and uniformly_supported(fam) is not None:
                assert has_uap(fam)

    def test_uap_brute_force_equivalence_small(self):
        # witness-search cross-check on algebras with <= 4 atoms
        rng = Random(11)
        for _ in range(40):
            g = GroundSet.of_size(rng.randint(2, 6))
            fam = random_fam(rng, g, max_atoms=4, max_denominator=4, probability=True)
            expected = has_uap(fam)
            observed = _uap_by_brute_force(fam)
            assert observed == expected, fam


def _uap_by_brute_force(fam):
    """Witness search over the epsilon grid and all algebra partitions.

    The grid ends below the population's distinguishing scale (weight
    denominators <= 4, at most 6 ground points), where near-misses like
    |2/3 - 3/4| < 1/8 can no longer fake the approximation property.
    """
    g = fam.algebra.ground
    delta = fam.total
    for eps in (F(1, 2), F(1, 4), F(1, 8), F(1, 256)):
        bound = min(-(-delta // eps), F(2 ** g.size))
        for blocks in set_partitions(range(fam.algebra.atom_count)):
            cells = []
            for block in blocks:
                bits = 0
                for k in block:
                    bits |= fam.algebra.atoms[k].bits
                cells.append(SetElem(g, bits))
            found = False
            for size in range(1, g.size + 1):
                if size > bound:
                    break
                for combo in itertools.combinations(range(g.size), size):
                    u = sum(1 << i for i in combo)
                    if all(
                        abs(delta * F((u & c.bits).bit_count(), size) - fam(c)) < eps
                        for c in cells
                    ):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


class TestExtendProperties:
    def test_witness_soundness_random(self):
        rng = Random(23)
        for _ in range(80):
            g = GroundSet.of_size(rng.randint(2, 6))
            sets = [SetElem(g, rng.getrandbits(g.size)) for _ in range(rng.randint(0, 3))]
            pairs = [(SetElem.full(g), random_rational(rng, 4, 4))]
            pairs += [
                (s, random_rational(rng, 4, 4))
                for s in dict.fromkeys(sets)
                if s.bits != g.full_mask
            ]
            result = extend_assignment(PartialAssignment(g, pairs))
            if result.feasible:
                for s, v in pairs:
                    assert result.witness(s) == v

    def test_extend_one_respects_target(self):
        rng = Random(31)
        for _ in range(60):
            g = GroundSet.of_size(rng.randint(2, 7))
            fam = random_fam(rng, g, max_atoms=4)
            b = SetElem(g, rng.getrandbits(g.size))
            lo, hi = fam(fam.algebra.floor(b)), fam(fam.algebra.ceil(b))
            z = lo + (hi - lo) * random_rational(rng, 5)
            out = extend_one(fam, b, z)
            assert out(b) == z
            for a in fam.algebra.atoms:
                assert out(a) == fam(a)

    def test_fm_agrees_on_interval_systems(self):
        rng = Random(41)
        for _ in range(60):
            n = rng.randint(1, 4)
            eqs = []
            ivs = []
            for _ in range(rng.randint(1, 2)):
                coeffs = tuple(F(rng.randint(0, 2)) for _ in range(n))
                eqs.append((coeffs, random_rational(rng, 3, 6)))
            for _ in range(rng.randint(0, 2)):
                coeffs = tuple(F(rng.randint(-1, 2)) for _ in range(n))
                lo = random_rational(rng, 3, 3)
                ivs.append((coeffs, lo, lo + random_rational(rng, 3, 3)))
            system = FeasibilitySystem(n_vars=n, equalities=tuple(eqs), intervals=tuple(ivs))
            assert solve_feasibility(system).feasible == fm_feasible(system)

    @staticmethod
    def objective_systems(seed, count=60):
        """``count`` systems of one total-mass row, up to two more equality
        rows and up to two interval rows, each with three objectives."""
        rng = Random(seed)
        for _ in range(count):
            n = rng.randint(2, 5)
            eqs = [(tuple(F(1) for _ in range(n)), F(rng.randint(1, 4)))]
            for _ in range(rng.randint(0, 2)):
                coeffs = tuple(F(rng.randint(0, 3)) for _ in range(n))
                eqs.append((coeffs, random_rational(rng, 3, 6)))
            ivs = []
            for _ in range(rng.randint(0, 2)):
                coeffs = tuple(F(rng.randint(-1, 2)) for _ in range(n))
                lo = random_rational(rng, 3, 3)
                ivs.append((coeffs, lo, lo + F(rng.randint(0, 3), 2)))
            system = FeasibilitySystem(n_vars=n, equalities=tuple(eqs), intervals=tuple(ivs))
            objectives = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(3)]
            yield system, objectives

    def test_shared_phase1_matches_cold_solves(self):
        # optimize() starts every objective's phase 2 from a copy of one
        # phase-1 tableau; each optimum must equal a solve of its own and
        # come with a feasible solution that attains it
        def dot(c, x):
            return sum((a * w for a, w in zip(c, x)), F(0))

        solved = 0
        for system, objectives in self.objective_systems(43):
            eqs, ivs = system.equalities, system.intervals
            together = optimize(system, objectives)
            if together is None:
                assert not solve_feasibility(system).feasible
                continue
            solved += 1
            for objective, (value, x) in zip(objectives, together):
                assert optimize(system, [objective])[0][0] == value
                assert all(w >= 0 for w in x) and dot(objective, x) == value
                assert all(dot(c, x) == rhs for c, rhs in eqs)
                assert all(lo <= dot(c, x) <= hi for c, lo, hi in ivs)
        assert solved >= 15

    def test_fm_decides_systems_with_equality_rows(self):
        # substituting the equalities away first keeps Fourier-Motzkin inside
        # its row cap; eliminating them as two inequalities each overran it
        # on the 30th system (5 variables, 3 equalities, 2 interval rows)
        feasible = 0
        for system, _ in self.objective_systems(43):
            verdict = fm_feasible(system)
            assert verdict == solve_feasibility(system).feasible
            feasible += verdict
        assert 15 <= feasible < 60

    def test_fm_rejects_inconsistent_equalities(self):
        # the second row is the first one twice with another total: 0 = 1
        system = FeasibilitySystem(n_vars=2, equalities=(((F(1), F(1)), F(1)), ((F(2), F(2)), F(3))),
                                   intervals=())
        assert not fm_feasible(system)
        assert not solve_feasibility(system).feasible

    def test_value_range_matches_fm(self):
        # both ends of the range are attained and nothing beyond them is:
        # Fourier-Motzkin over one weight per point (at most 6 <= FM_VAR_CAP)
        # decides each pinned or pushed-out target row on its own
        rng = Random(57)
        feasible = 0
        for trial in range(40):
            n = rng.randint(1, 6)
            g = GroundSet.of_size(n)
            weights = [random_rational(rng, 4) for _ in range(n)]
            masks = {g.full_mask} | {rng.getrandbits(n) for _ in range(rng.randint(0, 3))}
            pairs = []
            for m in sorted(masks):
                value = sum((w for i, w in enumerate(weights) if m >> i & 1), F(0))
                if m != g.full_mask and rng.random() < 0.5:
                    value += F(1, rng.randint(1, 4))
                pairs.append((SetElem(g, m), value))
            b = SetElem(g, rng.getrandbits(n))

            def row(mask):
                return tuple(F(mask >> i & 1) for i in range(n))

            def system(lo=None, hi=None):
                eqs = tuple((row(s.bits), v) for s, v in pairs)
                ivs = ((row(b.bits), lo, hi),) if (lo, hi) != (None, None) else ()
                return FeasibilitySystem(n_vars=n, equalities=eqs, intervals=ivs)

            bounds = value_range(PartialAssignment(g, pairs), b)
            if bounds is None:
                assert not fm_feasible(system()), trial
                continue
            feasible += 1
            lo, hi = bounds
            assert lo <= hi
            assert fm_feasible(system(lo, lo)) and fm_feasible(system(hi, hi)), trial
            assert not fm_feasible(system(hi=lo - F(1, 1000))), trial
            assert not fm_feasible(system(lo=hi + F(1, 1000))), trial
        assert 10 <= feasible < 40


# sha256 of repr() of the Farkas vectors of ``infeasible_equality_systems(71)``,
# pinned while farkas() still read the phase-1 reduced costs of a stored
# artificial block
PINNED_FARKAS = "bb46185d916616053a50f071aabcbc99d88f3e296733151beb0e8cd28a17da4b"


class TestSimplexTableau:
    @staticmethod
    def infeasible_equality_systems(seed, count=80):
        """``count`` infeasible pure-equality systems over ``w >= 0``, with
        right-hand sides of both signs, so that phase 1 flips some rows;
        about half repeat a row, scaled with its right-hand side, so that
        one artificial of the pair can stay basic at zero."""
        rng = Random(seed)
        found = 0
        while found < count:
            n = rng.randint(1, 6)
            rows = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-2, 3)) for _ in range(n))
                rows.append((coeffs, random_rational(rng, 4, 6) * rng.choice((1, -1))))
            if rng.random() < 0.5:
                coeffs, rhs = rng.choice(rows)
                k = rng.choice((F(1), F(2), F(-1), F(1, 2)))
                rows.insert(rng.randrange(len(rows) + 1), (tuple(k * c for c in coeffs), k * rhs))
            system = FeasibilitySystem(n_vars=n, equalities=tuple(rows))
            outcome = solve_feasibility(system)
            if not outcome.feasible:
                found += 1
                yield system, outcome.farkas

    def test_farkas_vectors_refute_infeasible_equalities(self):
        # y.A <= 0 on every variable column while y.b > 0: no w >= 0 solves
        # A w = b.  The vectors themselves are pinned byte for byte.
        vectors = []
        flipped = redundant = 0
        for system, y in self.infeasible_equality_systems(71):
            rows = system.equalities
            assert len(y) == len(rows)
            for j in range(system.n_vars):
                assert sum((yi * coeffs[j] for yi, (coeffs, _) in zip(y, rows)), F(0)) <= 0
            assert sum((yi * b for yi, (_, b) in zip(y, rows)), F(0)) > 0
            vectors.append(y)
            flipped += any(b < 0 for _, b in rows)
            tab = _Tableau(system)
            tab.phase1()
            redundant += any(j >= tab.art0 and tab.rows[i][-1] == 0 for i, j in enumerate(tab.basis))
        assert flipped >= 40 and redundant >= 10
        assert hashlib.sha256(repr(vectors).encode()).hexdigest() == PINNED_FARKAS

    def test_forks_run_in_either_order(self):
        # forks share row lists with the tableau they came from; a pivot
        # replaces a row and never mutates one, so neither fork's run can
        # change what the other finds
        solved = 0
        for system, objectives in TestExtendProperties.objective_systems(47):
            tab = _Tableau(system)
            if tab.phase1() != 0:
                continue
            tab.drive_out_artificials()
            before = [list(row) for row in tab.rows]
            first, second = objectives[:2]
            results = []
            for order in ((first, second), (second, first)):
                runs = [tab.fork(), tab.fork()]
                values = [run.phase2(objective) for run, objective in zip(runs, order)]
                results.append([(value, run.solution()) for value, run in zip(values, runs)])
            assert results[0] == results[1][::-1]
            assert tab.rows == before
            assert optimize(system, [first])[0] == results[0][0]
            solved += 1
        assert solved >= 15

    def test_cap_counts_the_dense_tableau(self, monkeypatch):
        # the cap bounds m * (n + slacks + m + 1): the size of a dense tableau
        # with one artificial column per row, whether or not it is stored
        monkeypatch.setattr(simplex, "TABLEAU_CAP", 30)
        rng = Random(73)
        rejected = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            eqs = tuple((tuple(F(rng.randint(0, 2)) for _ in range(n)), F(rng.randint(-2, 3)))
                        for _ in range(rng.randint(0, 3)))
            ivs = []
            for _ in range(rng.randint(0, 2)):
                lo, hi = rng.choice(((F(0), None), (None, F(2)), (F(-1), F(1))))
                ivs.append((tuple(F(rng.randint(-1, 1)) for _ in range(n)), lo, hi))
            system = FeasibilitySystem(n_vars=n, equalities=eqs, intervals=tuple(ivs))
            slacks = sum((lo is not None) + (hi is not None) for _, lo, hi in ivs)
            m = len(eqs) + slacks
            if m * (n + slacks + m + 1) > 30:
                rejected += 1
                with pytest.raises(CapExceededError):
                    solve_feasibility(system)
            else:
                solve_feasibility(system)
        assert 40 <= rejected <= 80

    def test_default_cap_boundary(self):
        # two rows: 2 * (n + 2 + 1) entries, at most 2,000,000
        assert simplex.TABLEAU_CAP == 2_000_000
        for n, fits in ((999_997, True), (999_998, False)):
            row = (F(1),) * n
            system = FeasibilitySystem(n_vars=n, equalities=((row, F(1)), (row, F(1))))
            if fits:
                assert _Tableau(system).m == 2
            else:
                with pytest.raises(CapExceededError):
                    _Tableau(system)


class TestThreeWayCrossCheck:
    def test_verdict_matches_direct_feasibility(self):
        # the bullet conditions must agree with one joint solve over the
        # union of both atom systems plus full measure on each generator
        from famkit.extend import three_way_extend

        rng = Random(80)
        checked = 0
        while checked < 60:
            g = GroundSet.of_size(rng.randint(2, 6))
            fam0 = random_fam(rng, g, max_atoms=3, max_denominator=3)
            fam1 = random_fam(rng, g, max_atoms=3, max_denominator=3)
            if fam1.total != fam0.total or fam0.total == 0:
                continue
            gens = [SetElem(g, rng.getrandbits(g.size) | 1) for _ in range(rng.randint(1, 2))]
            delta = fam0.total
            pairs = {}
            conflict = False
            for s, v in (
                [(a, fam0(a)) for a in fam0.algebra.atoms]
                + [(a, fam1(a)) for a in fam1.algebra.atoms]
                + [(b, delta) for b in gens]
                + [(SetElem.full(g), delta)]
            ):
                if s.bits in pairs and pairs[s.bits][1] != v:
                    conflict = True
                    break
                pairs[s.bits] = (s, v)
            if conflict:
                direct_feasible = False
            else:
                direct = extend_assignment(PartialAssignment(g, list(pairs.values())))
                direct_feasible = direct.feasible
            result = three_way_extend(fam0, fam1, gens)
            assert result.feasible == direct_feasible
            if result.feasible:
                for b in gens:
                    assert result.witness(b) == delta
            checked += 1


class TestIntegralProperties:
    def test_refinement_monotonicity_exhaustive(self):
        # all partition pairs related by refinement, algebras with <= 5 atoms
        rng = Random(3)
        g = GroundSet.of_size(5)
        fam = random_fam(rng, g, max_atoms=5)
        f = random_table(rng, g)
        parts = []
        for blocks in set_partitions(range(fam.algebra.atom_count)):
            cells = []
            for block in blocks:
                bits = 0
                for k in block:
                    bits |= fam.algebra.atoms[k].bits
                cells.append(SetElem(g, bits))
            parts.append(Partition(fam.algebra, cells))
        for p in parts:
            for q in parts:
                if is_refinement(q, p):
                    assert infsum(f, p, fam) <= infsum(f, q, fam)
                    assert supsum(f, q, fam) <= supsum(f, p, fam)

    def test_lower_never_exceeds_upper(self):
        rng = Random(17)
        for _ in range(120):
            g = GroundSet.of_size(rng.randint(2, 8))
            fam = random_fam(rng, g, max_atoms=6)
            report = integrate(random_table(rng, g), fam)
            assert report.lower <= report.upper

    def test_product_closure(self):
        rng = Random(29)
        for _ in range(80):
            g = GroundSet.of_size(rng.randint(2, 7))
            fam = random_fam(rng, g, max_atoms=4)
            f = _atom_constant_table(rng, fam)
            h = _atom_constant_table(rng, fam)
            product = [a * b for a, b in zip(f, h)]
            assert integrate(product, fam).status == "integrable"

    def test_oracle_matches_atom_partition(self):
        rng = Random(37)
        for _ in range(40):
            g = GroundSet.of_size(rng.randint(2, 6))
            fam = random_fam(rng, g, max_atoms=4)
            f = _atom_constant_table(rng, fam)
            lower, upper = exhaustive_integral_bounds(f, fam)
            report = integrate(f, fam)
            assert report.status == "integrable"
            assert lower == upper == report.value


def _atom_constant_table(rng, fam):
    """A table constant on every positive atom (hence integrable)."""
    g = fam.algebra.ground
    table = [F(0)] * g.size
    for a, w in zip(fam.algebra.atoms, fam.weights):
        if w > 0:
            c = F(rng.randint(-8, 8), rng.randint(1, 4))
            for x in a.indices():
                table[x] = c
        else:
            for x in a.indices():
                table[x] = F(rng.randint(-8, 8), rng.randint(1, 4))
    return table


class TestCantorProperties:
    @SETTINGS
    @given(st.lists(st.text(alphabet="01", max_size=6), max_size=6))
    def test_measure_matches_interval_length(self, words):
        clopen = CantorClopen(words)
        measure = clopen_measure(clopen)
        # canonical antichain intervals overlap at most at dyadic endpoints
        intervals = sorted(iota2_image(w) for w in clopen.words)
        total = sum((hi - lo for lo, hi in intervals), F(0))
        assert measure == total
        for (_, hi1), (lo2, _) in zip(intervals, intervals[1:]):
            assert hi1 <= lo2

    @SETTINGS
    @given(st.text(alphabet="01", max_size=10))
    def test_cylinder_interval_length(self, word):
        lo, hi = iota2_image(word)
        assert hi - lo == F(1, 2 ** len(word))
        assert 0 <= lo <= hi <= 1


def _heap_refine(exps, coeffs, lo, hi, eps, max_cells):
    """The scalar reference: the heap of refine_generic on the scalar enclosure."""
    from famkit._refine_py import _plan, poly_range, refine_generic

    plan = _plan(exps, coeffs)
    return refine_generic(lambda l, h: poly_range(plan, l, h), lo, hi, eps, max_cells)


def _batched_refine(exps, coeffs, lo, hi, eps, max_cells):
    """refine_poly, the heap in numpy rounds, on the polynomial's plan."""
    from famkit._refine import refine_poly
    from famkit._refine_py import _plan

    return refine_poly(_plan(exps, coeffs), lo, hi, eps, max_cells)


def _bits(result):
    """A refinement result with its floats as float.hex, so that equal
    results agree to the last bit and in the sign of a zero."""
    lower, upper, cells, converged, trace = result
    return lower.hex(), upper.hex(), cells, converged, [(n, gap.hex()) for n, gap in trace]


def _exact_poly_integral(exps, coeffs, lo, hi):
    total = F(0)
    for exp, c in zip(exps, coeffs):
        term = F(c)
        for e, a, b in zip(exp, lo, hi):
            term *= (F(b) ** (e + 1) - F(a) ** (e + 1)) / (e + 1)
        total += term
    return total


@st.composite
def dyadic_polynomials(draw):
    """1-3-D polynomials of degree <= 3 with dyadic coefficients, on a box
    with dyadic corners, and a tolerance that keeps the cell count small."""
    dim = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(4), repeat=dim) if sum(e) <= 3]
    exps = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    coeffs = [draw(st.integers(-8, 8)) / 4 for _ in exps]
    lo, hi = [], []
    for _ in range(dim):
        a, b = sorted(draw(st.lists(st.integers(-8, 8), min_size=2, max_size=2, unique=True)))
        lo.append(a / 4)
        hi.append(b / 4)
    tightness = draw(st.integers(1, 3))
    return exps, coeffs, lo, hi, tightness


class TestBatchedRefinement:
    HEAVY = [
        ([(1, 0), (0, 1)], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.25e-2),
        ([(2, 1), (0, 3)], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0], 1.3e-2),
        ([(1, 1, 1)], [1.0], [0.0] * 3, [1.0] * 3, 2.5e-2),
        ([(0,), (1,), (2,)], [0.0, 0.0, 1.0], [0.0], [1.0], 1e-4),
    ]

    def test_enclosure_matches_scalar_bitwise(self):
        import numpy as np

        from famkit._refine import _enclose
        from famkit._refine_py import _plan, poly_range

        rng = Random(11)
        for _ in range(40):
            dim = rng.randint(1, 3)
            exps = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
            coeffs = [rng.uniform(-3, 3) for _ in exps]
            lo = np.array([[rng.uniform(-2, 1) for _ in range(dim)] for _ in range(50)])
            hi = lo + np.array([[rng.choice([0.0, rng.uniform(0, 2)]) for _ in range(dim)] for _ in range(50)])
            # boxes straddling, touching and avoiding zero, and signed zeros
            lo[:5] = 0.0
            hi[5:10] = -0.0
            plan = _plan(exps, coeffs)
            rlo, rhi = _enclose(plan, np.concatenate((lo.T, hi.T)))
            for i in range(len(lo)):
                want = poly_range(plan, lo[i].tolist(), hi[i].tolist())
                assert (float(rlo[i]).hex(), float(rhi[i]).hex()) == (want[0].hex(), want[1].hex())
                assert_matches_per_term(want, exps, coeffs, lo[i].tolist(), hi[i].tolist())

    def test_overflowing_enclosure_matches_scalar_bitwise(self):
        import numpy as np

        from famkit._refine import _enclose
        from famkit._refine_py import _plan, poly_range

        # coefficients near 1e300 on boxes at least 1/2 away from 0 at both
        # ends: products overflow to +-inf, and no power underflows to 0
        rng = Random(13)
        checked = infinite = 0
        for _ in range(200):
            dim = rng.randint(1, 2)
            exps = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            sign = rng.choice([-1, 1])
            coeffs = [sign * rng.choice([1, 1, -1]) * rng.uniform(0.5, 2) * 1e300 for _ in exps]
            ends = [[rng.choice([-1, 1]) * rng.uniform(0.5, 60) for _ in range(dim)] for _ in range(100)]
            lo = np.array(ends)
            hi = lo + np.array([[rng.choice([0.0, 1.0, rng.uniform(0, 80)]) for _ in range(dim)] for _ in range(100)])
            hi[np.abs(hi) < 0.5] = 0.5
            plan = _plan(exps, coeffs)
            try:
                # a NaN (inf - inf, or 0 * inf) raises: only the boxes of
                # polynomials that overflow to +-inf and never to NaN count
                with np.errstate(over="ignore", invalid="raise"):
                    rlo, rhi = _enclose(plan, np.concatenate((lo.T, hi.T)))
            except FloatingPointError:
                continue
            for i in range(len(lo)):
                want = poly_range(plan, lo[i].tolist(), hi[i].tolist())
                assert (float(rlo[i]).hex(), float(rhi[i]).hex()) == (want[0].hex(), want[1].hex())
                assert_matches_per_term(want, exps, coeffs, lo[i].tolist(), hi[i].tolist())
            checked += len(lo)
            infinite += int(np.isinf(rlo).sum() + np.isinf(rhi).sum())
        assert checked >= 5_000 and infinite >= 1_000, (checked, infinite)

    def test_overflowing_zero_terms_match_the_heap(self):
        # 1 + 0x + 0x^2 on [1e200, 2e200]: x^2 overflows, and 0 * inf made
        # the scalar enclosure NaN, while the batch leaves zero terms out
        fixture = ([(0,), (1,), (2,)], [1.0, 0.0, 0.0], [1e200], [2e200], 1e-3)
        batched = _batched_refine(*fixture, 1000)
        assert _bits(batched) == _bits(_heap_refine(*fixture, 1000))
        assert batched[:4] == (1e200, 1e200, 1, True)

    def test_heavy_fixtures_match_the_heap(self):
        for fixture in self.HEAVY:
            batched = _batched_refine(*fixture, 2_000_000)
            assert _bits(batched) == _bits(_heap_refine(*fixture, 2_000_000))
            assert batched[3]

    @pytest.mark.parametrize("eps, cells", [(1e306, 359), (3e305, 1106)])
    def test_infinite_root_gap_matches_the_heap(self, eps, cells):
        # the root cell of 0.8e308 * x on [-1, 1] contributes inf; the heap's
        # running gap used to turn NaN at its first split and ran to the
        # budget, while the batch converged
        fixture = ([(1,)], [0.8e308], [-1.0], [1.0], eps)
        batched = _batched_refine(*fixture, 200_000)
        assert _bits(batched) == _bits(_heap_refine(*fixture, 200_000))
        assert batched[2:4] == (cells, True)
        # the infinite root is counted apart from the running sum, so its
        # split subtracts no inf and the trace reads no NaN
        assert batched[4][:2] == [(1, math.inf), (2, 1.6e308)]
        assert not any(math.isnan(gap) for _, gap in batched[4])

    @pytest.mark.parametrize("eps, cells", [(1e306, 404), (3e305, 1325)])
    def test_overflowing_running_sum_matches_the_heap(self, eps, cells):
        # the two halves of 0.9e308 * x on [-1, 1] contribute 0.9e308 each:
        # the heap's running sum overflowed by itself, never came back, and
        # the heap ran to the budget
        fixture = ([(1,)], [0.9e308], [-1.0], [1.0], eps)
        batched = _batched_refine(*fixture, 200_000)
        assert _bits(batched) == _bits(_heap_refine(*fixture, 200_000))
        assert batched[2:4] == (cells, True)
        # the running sum overflows at 2 cells and still reads inf at 4,
        # as it is taken afresh only once the cells have doubled; at 8 it
        # is a sum of finite contributions again
        assert batched[4][:4] == [(1, math.inf), (2, math.inf), (4, math.inf), (8, 4.500000000000003e307)]
        assert not any(math.isnan(gap) for _, gap in batched[4])

    @SETTINGS
    @given(dyadic_polynomials())
    def test_agrees_with_the_heap(self, case):
        from famkit._refine_py import _plan, poly_range

        exps, coeffs, lo, hi, tightness = case
        rlo, rhi = poly_range(_plan(exps, coeffs), lo, hi)
        gap0 = (rhi - rlo) * math.prod(h - l for l, h in zip(lo, hi))
        eps = gap0 * 10 ** (-tightness / len(lo)) if gap0 > 0 else 1e-3
        result = _batched_refine(exps, coeffs, lo, hi, eps, 200_000)
        assert _bits(result) == _bits(_heap_refine(exps, coeffs, lo, hi, eps, 200_000))
        lower, upper, cells, converged, trace = result
        assert converged and trace[-1][1] < eps
        assert F(lower) <= _exact_poly_integral(exps, coeffs, lo, hi) <= F(upper)

    @SETTINGS
    @given(dyadic_polynomials(), st.integers(1, 400))
    def test_budget_stops_agree_with_the_heap(self, case, budget):
        # a tolerance no run of 400 cells meets: every run stops at its budget
        exps, coeffs, lo, hi, _ = case
        result = _batched_refine(exps, coeffs, lo, hi, 1e-12, budget)
        assert _bits(result) == _bits(_heap_refine(exps, coeffs, lo, hi, 1e-12, budget))

    @pytest.mark.parametrize("splits", [1, 3, 64])
    def test_rounds_split_in_small_passes(self, monkeypatch, splits):
        # a round encloses the halves of SPLITS cells per pass; in passes of
        # a few cells a round's prefix ends inside a pass and at its edges
        from famkit import _refine

        monkeypatch.setattr(_refine, "SPLITS", splits)
        for fixture, budget in [(self.HEAVY[1][:4] + (0.05,), 100_000), (self.HEAVY[3], 100_000),
                                (([(0,), (2,)], [1.0, 1.0], [0.0], [1.0], 1e-9), 777),
                                (([(1,)], [0.8e308], [-1.0], [1.0], 1e306), 200_000),
                                (([(1,)], [0.9e308], [-1.0], [1.0], 1e306), 200_000)]:
            result = _batched_refine(*fixture, budget)
            assert _bits(result) == _bits(_heap_refine(*fixture, budget)), (fixture, splits)

    def test_ties_pick_the_earliest_cells(self):
        import numpy as np

        from famkit._refine import _window

        contrib = np.ones(5000)
        contrib[[7, 4000]] = 3.0
        # a threshold of 1.0 takes every cell, the two largest first
        everything = [7, 4000, *range(7), *range(8, 4000), *range(4001, 5000)]
        assert _window(contrib, 3.0, 1 / 3, 10_000).tolist() == everything
        assert _window(contrib, 3.0, 1 / 3, 50).tolist() == everything[:50]
        assert _window(contrib, 3.0, 0.5, 10_000).tolist() == [7, 4000]

        # a block of 15k equal contributions, with cells above and below it
        contrib = np.ones(20_000)
        contrib[1::20] = 3.0
        contrib[5::10] = 2.0
        contrib[3::20] = 0.5
        contrib[9::20] = 0.25
        assert np.count_nonzero(contrib == 1.0) == 15_000
        above = [*range(1, 20_000, 20), *range(5, 20_000, 10)]
        ties = np.flatnonzero(contrib == 1.0).tolist()
        assert _window(contrib, 3.0, 1 / 3, 30_000).tolist() == above + ties
        assert _window(contrib, 3.0, 1 / 3, 9_000).tolist() == above + ties[:6_000]
        assert _window(contrib, 3.0, 0.5, 30_000).tolist() == above

    def test_selection_matches_a_full_sort(self):
        import numpy as np

        from famkit._refine import _window

        rng = Random(23)
        for _ in range(300):
            n = rng.randint(1, 400)
            values = [rng.randint(0, 12) / 4 for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.1:
                values.append(math.inf)
            contrib = np.array([rng.choice(values) for _ in range(n)])
            top = float(contrib.max())
            if not top > 0.0:
                continue
            ratio = rng.choice([0.0, 1e-300, 0.25, 0.5, 1.0, rng.random()])
            limit = rng.randint(1, n + 5)
            # 0 * inf is no threshold: every cell that contributes is taken
            threshold = ratio * top if ratio * top > 0.0 else 5e-324
            want = sorted((i for i in range(n) if contrib[i] >= threshold), key=lambda i: (-contrib[i], i))
            assert _window(contrib, top, ratio, limit).tolist() == want[:limit]

    # float.hex of lower and upper, the cell count, convergence and a digest
    # of the printed trace, pinned from the heap of _heap_refine
    PINS = [
        ("0x1.fcccd00000000p-1", "0x1.0199980000000p+0", 29492, True,
         "c40fba4bba3f7b75ce9c694bf99025bd4a5bffc486131465a4601f762a41395f"),
        ("-0x1.6ff59bca80000p-4", "-0x1.3ab6413af0000p-4", 21489, True,
         "2c8ff9d074836dda67a5c3d659a14fae0ed1e7092f3bc3be37131cf4d98cf13a"),
        ("0x1.cedac37000000p-4", "0x1.1aa0830000000p-3", 23474, True,
         "b5a6fcc22bb0cc77e7dee3552e30c5addcb9138b37fcd822cb2d88c62dddb742"),
        ("0x1.55483a6bd1000p-2", "0x1.55627133d5000p-2", 9387, True,
         "6f51345339537d564d5776dd1561632753631c17bfde091e1c9f5d47fbc28ae8"),
    ]
    BUDGET_PINS = [
        (([(0,), (2,)], [1.0, 1.0], [0.0], [1.0], 1e-9, 777),
         ("0x1.552ed9fc00000p+0", "0x1.557be98c00000p+0", 777, False,
          "52e7d6357b2aecfe440903f4217e537928c15ccfe79473c77ba534ebfc600824")),
        (([(2, 1), (0, 3)], [1.0, -1.0], [-0.5, -0.25], [0.75, 1.0], 1e-3, 20_000),
         ("-0x1.e00b4340a5300p-3", "-0x1.bd02635be5040p-3", 20000, False,
          "5f09facb718633a4fbddc2a4795d4c1855fa6840efcd7125dde4eb7786c9448b")),
    ]

    # 1-D quartics shaped like the quadrature benchmark's adaptive problems
    # (rational intervals, tolerances from 1e-5 to 1e-3, a few hundred to a
    # few thousand cells), the last one stopped by its budget: coefficients
    # of 1, x, ..., x^4, the interval, epsilon, the budget, then the pin
    QUARTIC_PINS = [
        (([-0.632212, 0.51446, -0.0817668, 0.511214, 0.629813], F(-3, 5), F(3, 5), 9.1e-4, 2_000_000),
         ("-0x1.80a996cc3204cp-1", "-0x1.80325ebd319b5p-1", 1404, True,
          "f9a60e0f61fb453d48e706ea88280621b7f5ca8f5fde25988e5b0d2f76578a1e")),
        (([0.00199519, 0.00141807, 0.00232208, 6.31461e-05, -0.0018733], F(-5, 7), F(9, 7), 3.8e-5, 2_000_000),
         ("0x1.5f66a83da993bp-8", "0x1.61e3529621c6ep-8", 642, True,
          "8f54c3200057b81c5dc7c1336af3fb3de31869514ce3e9253bb97352e90a18ed")),
        (([-0.083471, 0.0336558, 0.050303, -0.0443958, 0.0644409], F(0), F(1), 5.4e-4, 2_000_000),
         ("-0x1.8c213030560f0p-5", "-0x1.87b619a117b55p-5", 322, True,
          "3eb453440d2b288f50f19cdd3c6edeb8308acd2ce7d64b2b0cdf2225446a3802")),
        (([-7.48909e-05, 0.000303906, 0.000368399, 0.000377117, 0.000472975], F(-2, 5), F(13, 5), 1.4e-4,
          2_000_000),
         ("0x1.2dcdf32e5b8c8p-6", "0x1.3018a2b0e51d5p-6", 478, True,
          "1cc26c49dd28d94e48992f98a76061b64ddeacdc2016c09acdb6f337f98bc773")),
        (([0.0103811, -0.0112231, 0.00595935, 0.00517537, 0.0102712], F(1), F(9, 4), 4.1e-4, 2_000_000),
         ("0x1.4565487bf767ap-3", "0x1.463c257288057p-3", 1028, True,
          "f6ec087544a250a6395ea0654e8eb589ddecc82534423cdf7e32268853881939")),
        (([-0.0010262, -0.00311327, 0.00347302, -0.00513585, -0.00397154], F(3, 5), F(37, 20), 5.2e-5, 2_000_000),
         ("-0x1.fc3c482129110p-6", "-0x1.fb622ff27fd98p-6", 2109, True,
          "fc95d43f38ce1781d8de600af9e5709c669e01ca8347b33aa9a68bb7dd67e582")),
        (([-0.377794, 0.242473, -0.0419677, 0.335682, 0.544718], F(1, 4), F(13, 20), 4.3e-5, 2_000_000),
         ("-0x1.57c76b20f0953p-4", "-0x1.579a5595a3db9p-4", 2760, True,
          "9e64aecf2e263c0e8222bad994e9a5741bcfa8cf25e193bc4617b58a4a3b23fd")),
        (([-0.377794, 0.242473, -0.0419677, 0.335682, 0.544718], F(1, 4), F(13, 20), 4.3e-5, 1500),
         ("-0x1.57da3b53e5150p-4", "-0x1.57878329651d1p-4", 1500, False,
          "7efe93fa70e344c0cf5c2eb0026d806db8e615de1a9072f49d8f63ab1a1e7ffb")),
    ]

    @staticmethod
    def _pin(result):
        lower, upper, cells, converged, trace = result
        digest = hashlib.sha256(repr(tuple((n, gap.hex()) for n, gap in trace)).encode()).hexdigest()
        return lower.hex(), upper.hex(), cells, converged, digest

    def test_heavy_fixtures_pinned(self):
        for fixture, pinned in zip(self.HEAVY, self.PINS):
            assert self._pin(_batched_refine(*fixture, 2_000_000)) == pinned, fixture
        for args, pinned in self.BUDGET_PINS:
            result = _batched_refine(*args)
            assert self._pin(result) == pinned, args
            assert _bits(result) == _bits(_heap_refine(*args)), args

    @pytest.mark.parametrize("case,pinned", QUARTIC_PINS)
    def test_quartics_pinned(self, case, pinned):
        coeffs, a, b, eps, budget = case
        args = ([(e,) for e in range(len(coeffs))], coeffs, [float(a)], [float(b)], eps, budget)
        result = _batched_refine(*args)
        assert self._pin(result) == pinned
        assert _bits(result) == _bits(_heap_refine(*args))

    @SETTINGS
    @given(dyadic_polynomials(), st.booleans())
    def test_grid_matches_the_scalar_grid(self, case, offgrid):
        import importlib

        from famkit._refine import refine_grid
        from famkit._refine_py import _plan, poly_range

        integrate_module = importlib.import_module("famkit.integrate")
        exps, coeffs, lo, hi, tightness = case
        if offgrid:
            # corners off the dyadic grid, so midpoints and widths round
            lo = [x + 1 / 3 for x in lo]
            hi = [x + 2 / 7 for x in hi]
        plan = _plan(exps, coeffs)
        rlo, rhi = poly_range(plan, lo, hi)
        gap0 = (rhi - rlo) * math.prod(h - l for l, h in zip(lo, hi))
        eps = gap0 * 10 ** (-tightness / len(lo)) if gap0 > 0 else 1e-3
        scalar = integrate_module._refine_grid(lambda l, h: poly_range(plan, l, h), lo, hi, eps, 4096)
        batched = refine_grid(plan, lo, hi, eps, 4096)
        assert _bits(batched) == _bits(scalar)

    def test_budget_stops_at_exactly_max_cells(self):
        for budget in (1, 2, 777, 1000):
            lower, upper, cells, converged, trace = _batched_refine(
                [(0,), (2,)], [1.0, 1.0], [0.0], [1.0], 1e-9, budget
            )
            assert (cells, converged) == (budget, False)
            assert trace[-1][0] == budget
            assert lower <= 4 / 3 <= upper

    def test_split_matches_split_widest_at_the_edge_of_the_float_range(self):
        import numpy as np

        from famkit._refine import _split
        from famkit._refine_py import split_widest

        # near the edge of the float range lo + hi overflows, and the
        # midpoint 0.5 * (lo + hi) was -inf or +inf, a corner of no cell
        rng = Random(19)
        overflowed = 0
        for dim in (1, 2, 3):
            lo, hi = [], []
            for _ in range(60):
                ends = []
                for _ in range(dim):
                    sign = rng.choice([-1.0, 1.0])
                    if rng.random() < 0.6:
                        # both ends above half the largest float, of one sign
                        ends.append(sorted(sign * rng.uniform(0.5, 1.0) * sys.float_info.max for _ in range(2)))
                    else:
                        ends.append(sorted(rng.uniform(-1.0, 1.0) * 1e308 for _ in range(2)))
                lo.append([a for a, _ in ends])
                hi.append([b for _, b in ends])
            cells = np.array([[*l, *h] for l, h in zip(lo, hi)]).T
            with np.errstate(over="ignore"):
                halves = _split(cells)
                overflowed += int(np.isinf(0.5 * (cells[:dim] + cells[dim:])).sum())
            assert np.isfinite(halves).all()
            for i, (l, h) in enumerate(zip(lo, hi)):
                (llo, lhi), (rlo, rhi) = split_widest(l, h)
                left, right = halves[:, i].tolist(), halves[:, len(lo) + i].tolist()
                assert [x.hex() for x in left] == [x.hex() for x in llo + lhi]
                assert [x.hex() for x in right] == [x.hex() for x in rlo + rhi]
                assert all(a < m < b for a, m, b in zip(l, lhi, h) if m != b)
        assert overflowed >= 50


class TestExperimentHarness:
    def test_search_runs_and_reports(self):
        from famkit.experiments import search_uniformly_supported_amalgamation

        g = GroundSet(["00", "01", "10", "11"])
        x_low = SetElem.from_labels(g, ["00", "01"])
        x_row = SetElem.from_labels(g, ["00", "10"])
        fam0 = Fam(generate_algebra(g, [x_low]), {x_low: F(1, 2), ~x_low: F(1, 2)})
        fam1 = Fam(generate_algebra(g, [x_row]), {x_row: F(1, 2), ~x_row: F(1, 2)})
        result = search_uniformly_supported_amalgamation(fam0, fam1, Random(1), trials=10)
        assert result.attempted == 10
        assert result.witnesses_found > 0
        # no assertion about uniform support: the question is open
