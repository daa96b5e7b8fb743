"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F
from random import Random

import pytest

from famkit.approx import approx_uniform, uap_witness
from famkit.boolalg import Algebra, GroundSet, Partition, SetElem, generate_algebra
from famkit.boxes import VolumeFam, make_box
from famkit.cantor import cantor_integrate, clopen_measure, lebesgue_vitali_check
from famkit.extend import (
    PartialAssignment,
    amalgamate,
    compatible,
    extend_assignment,
    extend_with_filter,
    value_range,
)
from famkit.fam import Fam, has_uap, uniform_fam
from famkit.functions import (
    DenseCodenseRegion,
    HalfPlaneRegion,
    IndicatorFn,
    PiecewiseConstantFn,
    PolynomialFn,
    RegionComplement,
    RegionIntersection,
    RegionUnion,
    triangle_under_diagonal,
)
from famkit.integrate import (
    inner_measure,
    integrate,
    integrate_over,
    is_jordan,
    outer_measure,
    pushforward_integral_check,
    xi_star_converges,
)
from famkit.oracle import fm_feasible, scan_order_condition, set_partitions

from genutil import random_fam, random_jordan_region, random_partition, random_subset


@contextmanager
def criterion(number, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {text} ({elapsed:.2f}s)", flush=True)


def elem(ground, *indices):
    return SetElem.from_indices(ground, indices)


def test_criterion_1_cross_section_extension():
    with criterion(1, "cross-section amalgamation with exact (1/6, 1/2) bounds"):
        started = time.perf_counter()
        g = GroundSet(["00", "01", "10", "11"])
        x_low = elem(g, 0, 1)   # first coordinate 0
        x_row = elem(g, 0, 2)   # second coordinate 0
        fam0 = Fam(generate_algebra(g, [x_low]), {x_low: F(1, 3), ~x_low: F(2, 3)})
        fam1 = Fam(generate_algebra(g, [x_row]), {x_row: F(1, 2), ~x_row: F(1, 2)})
        result = amalgamate(fam0, fam1)
        assert result.feasible
        pairs = [(a, fam0(a)) for a in fam0.algebra.atoms]
        pairs += [(a, fam1(a)) for a in fam1.algebra.atoms]
        pairs += [(SetElem.full(g), F(1))]
        bounds = value_range(PartialAssignment(g, pairs), elem(g, 3))
        assert bounds == (F(1, 6), F(1, 2))
        assert time.perf_counter() - started < 1.0


def test_criterion_2_finite_approximation_guarantees():
    with criterion(2, "500 random approximation instances meet every clause"):
        started = time.perf_counter()
        rng = Random(390)
        eps_grid = [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
        for case in range(500):
            g = GroundSet.of_size(rng.randint(2, 10))
            fam = random_fam(rng, g, max_atoms=8, max_denominator=5)
            partition = random_partition(rng, fam.algebra)
            eps = rng.choice(eps_grid)
            avoid = None
            if case % 3 == 0:
                # keep at least one free point in every positive cell
                bits = rng.getrandbits(g.size)
                for cell in partition.cells:
                    if fam(cell) > 0 and cell.bits & ~bits == 0:
                        bits &= ~(1 << cell.indices()[0])
                avoid = SetElem(g, bits)
            out = approx_uniform(fam, partition, eps, avoid=avoid)
            delta = fam.total
            c = math.ceil(delta / eps)
            assert out.u.size <= c
            assert avoid is None or out.u.disjoint(avoid)
            assert not out.u.is_empty
            assert sum(out.mu.values()) == 1
            assert all(m >= 0 for m in out.mu.values())
            for cell in partition.cells:
                assert abs(delta * out.mass(cell) - fam(cell)) < eps
                if fam(cell) == 0:
                    assert (out.u & cell).is_empty
        assert time.perf_counter() - started < 10.0


def test_criterion_3_extension_oracle_equivalence():
    with criterion(3, "extension verdict equals Fourier-Motzkin on 500 assignments"):
        started = time.perf_counter()
        rng = Random(700)
        from famkit.extend import _assignment_system

        for _ in range(500):
            g = GroundSet.of_size(rng.randint(2, 6))
            pairs = [(SetElem.full(g), F(rng.randint(0, 4), rng.randint(1, 4)))]
            for _ in range(rng.randint(0, 4)):
                s = random_subset(rng, g)
                if s.bits != g.full_mask and all(p.bits != s.bits for p, _ in pairs):
                    pairs.append((s, F(rng.randint(0, 4), rng.randint(1, 4))))
            assignment = PartialAssignment(g, pairs)
            result = extend_assignment(assignment)
            _, system = _assignment_system(assignment)
            assert result.feasible == fm_feasible(system)
            if result.feasible:
                for s, v in pairs:
                    assert result.witness(s) == v
        assert time.perf_counter() - started < 30.0


def test_criterion_4_compatibility_equivalence():
    with criterion(4, "compatible == amalgamate == condition scan on 500 pairs"):
        started = time.perf_counter()
        rng = Random(48)
        for _ in range(500):
            g = GroundSet.of_size(rng.randint(2, 8))
            fam0 = random_fam(rng, g, max_atoms=4, positive_total=False)
            if rng.random() < 0.5:
                fam1 = random_fam(rng, g, max_atoms=4, positive_total=False)
            else:
                # share the total so compatibility is not decided trivially
                fam1 = random_fam(rng, g, max_atoms=4, positive_total=False)
                if fam1.total != fam0.total and fam1.total > 0:
                    fam1 = fam1.scaled(F(1))
            ok, certificate = compatible(fam0, fam1)
            result = amalgamate(fam0, fam1)
            scan = scan_order_condition(fam0, fam1)
            assert ok == result.feasible == scan
            if not ok:
                payload = certificate.payload
                assert payload["a"] <= payload["a_prime"]
                assert payload["value_a"] > payload["value_a_prime"]
            else:
                for fam in (fam0, fam1):
                    for a in fam.algebra.atoms:
                        assert result.witness(a) == fam(a)
        assert time.perf_counter() - started < 30.0


def test_criterion_5_filter_extension_uniqueness():
    with criterion(5, "filter-forced extensions exist, hit delta, and are unique"):
        rng = Random(69)
        cases = 0
        while cases < 200:
            g = GroundSet.of_size(rng.randint(3, 8))
            fam0 = random_fam(rng, g, max_atoms=3, max_denominator=4)
            core_bits = 0
            for a, w in zip(fam0.algebra.atoms, fam0.weights):
                if w > 0:
                    core_bits |= 1 << rng.choice(a.indices())
            if core_bits == 0:
                continue
            gens = []
            for _ in range(rng.randint(1, 2)):
                extra = rng.getrandbits(g.size)
                gens.append(SetElem(g, core_bits | extra))
            result = extend_with_filter(fam0, gens)
            assert result.feasible
            witness = result.witness
            delta = fam0.total
            for b in gens:
                assert witness(b) == delta
            for a in fam0.algebra.atoms:
                assert witness(a) == fam0(a)
            # uniqueness: the combined constraints pin every atom weight
            pairs = [(a, fam0(a)) for a in fam0.algebra.atoms]
            if all(p.bits != g.full_mask for p, _ in pairs):
                pairs.append((SetElem.full(g), delta))
            seen_bits = {p.bits for p, _ in pairs}
            for b in gens:
                if b.bits not in seen_bits:
                    pairs.append((b, delta))
                    seen_bits.add(b.bits)
            assignment = PartialAssignment(g, pairs)
            for atom in witness.algebra.atoms:
                lo, hi = value_range(assignment, atom)
                assert lo == hi == witness(atom)
            cases += 1

        # the worked fixture: evens at 2/3 forced through the filter at {0,1}
        g = GroundSet.of_size(6)
        evens = elem(g, 0, 2, 4)
        fam0 = Fam(generate_algebra(g, [evens]), {evens: F(2, 3), ~evens: F(1, 3)})
        witness = extend_with_filter(fam0, [elem(g, 0, 1)]).witness
        assert witness(elem(g, 0)) == F(2, 3)
        assert witness(elem(g, 1)) == F(1, 3)


def test_criterion_6_quadrature():
    with criterion(6, "x^2 and x+y quadrature at 1e-6 accuracy; Dirichlet certified"):
        started = time.perf_counter()
        report = integrate(PolynomialFn([0, 0, 1]), VolumeFam([[0, 1]]), epsilon=1e-6)
        assert report.status == "integrable"
        assert abs(report.value - 1 / 3) <= 1e-6
        assert time.perf_counter() - started < 5.0

        started = time.perf_counter()
        fn = PolynomialFn({(1, 0): 1.0, (0, 1): 1.0})
        report = integrate(fn, VolumeFam([[0, 1], [0, 1]]), epsilon=5e-3)
        assert report.status == "integrable"
        assert abs(report.value - 1.0) <= 1e-6
        assert time.perf_counter() - started < 5.0

        started = time.perf_counter()
        report = integrate(IndicatorFn(DenseCodenseRegion()), VolumeFam([[0, 1]]), epsilon=1e-6)
        assert report.status == "not_integrable"
        assert report.gap >= 1 - 1e-9
        assert time.perf_counter() - started < 5.0


def test_criterion_7_jordan_suite():
    with criterion(7, "triangle at 1e-4, dense fixture, and closure on 200 pairs"):
        started = time.perf_counter()
        square = VolumeFam([[0, 1], [0, 1]])
        report = is_jordan(triangle_under_diagonal(), square, F(1, 10000))
        assert report.jordan
        assert abs(report.measure - F(1, 2)) <= F(1, 10000)

        unit = VolumeFam([[0, 1]])
        rationals = DenseCodenseRegion()
        assert inner_measure(rationals, unit) == 0
        assert outer_measure(rationals, unit) == 1
        assert is_jordan(rationals, unit, F(1, 100)).jordan is False

        eps = F(1, 128)
        rng = Random(540)
        for _ in range(200):
            a = random_jordan_region(rng)
            b = random_jordan_region(rng)
            assert is_jordan(RegionUnion(a, b), square, eps).jordan
            assert is_jordan(RegionIntersection(a, b), square, eps).jordan
            assert is_jordan(RegionComplement(a), square, eps).jordan
            # additivity on a certified-disjoint pair split by a halfplane
            knife = HalfPlaneRegion((1, 0), F(rng.randint(1, 3), 4))
            left = RegionIntersection(a, knife)
            right = RegionIntersection(b, RegionComplement(knife))
            m_left = is_jordan(left, square, eps).measure
            m_right = is_jordan(right, square, eps).measure
            m_union = is_jordan(RegionUnion(left, right), square, eps).measure
            assert abs(m_union - (m_left + m_right)) <= 2 * eps
        assert time.perf_counter() - started < 5.0


def test_criterion_8_cantor_lebesgue_vitali():
    with criterion(8, "Cantor/interval agreement and Lebesgue-Vitali verdicts"):
        identity = PolynomialFn([0, 1])
        c_report = cantor_integrate(identity, epsilon=1e-4)
        assert c_report.status == "integrable"
        assert abs(c_report.value - 0.5) <= 1e-4
        b_report = integrate(identity, VolumeFam([[0, 1]]), epsilon=1e-4)
        assert abs(c_report.value - b_report.value) <= 2e-4

        assert lebesgue_vitali_check(PolynomialFn([0, 0, 1]), epsilon=1e-2).verdict == "integrable"
        step = PiecewiseConstantFn(
            [(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(3, 4)]]), -2.0)],
            default=0.25,
        )
        assert lebesgue_vitali_check(step, epsilon=1e-2).verdict == "integrable"
        dirichlet = IndicatorFn(DenseCodenseRegion())
        assert lebesgue_vitali_check(dirichlet, epsilon=1e-2).verdict == "not_integrable"

        assert clopen_measure("0") == F(1, 2)


def _atom_constant_table(rng, fam, span=8):
    table = [F(0)] * fam.algebra.ground.size
    for a, w in zip(fam.algebra.atoms, fam.weights):
        value = F(rng.randint(-span, span), rng.randint(1, 4))
        for x in a.indices():
            table[x] = value if w > 0 else value + rng.randint(0, 3)
    return table


def test_criterion_9_integral_algebra_laws():
    with criterion(9, "exact integral laws on 1000 random finite-backend cases"):
        rng = Random(900)
        for _ in range(1000):
            g = GroundSet.of_size(rng.randint(2, 8))
            fam = random_fam(rng, g, max_atoms=6)
            f = _atom_constant_table(rng, fam)
            h = _atom_constant_table(rng, fam)
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            int_f = integrate(f, fam)
            int_h = integrate(h, fam)
            assert int_f.status == int_h.status == "integrable"

            combo = [c * a + b for a, b in zip(f, h)]
            assert integrate(combo, fam).value == c * int_f.value + int_h.value

            bump = F(rng.randint(0, 5), rng.randint(1, 3))
            dominating = [a + bump for a in f]
            assert integrate(dominating, fam).value >= int_f.value

            assert abs(int_f.value) <= integrate([abs(a) for a in f], fam).value

            e1 = fam.algebra.ceil(random_subset(rng, g))
            e2 = ~e1 & fam.algebra.ceil(random_subset(rng, g))
            both = integrate_over(f, e1 | e2, fam).value
            assert both == integrate_over(f, e1, fam).value + integrate_over(f, e2, fam).value

            # pushforward identity through a random map
            gy = GroundSet.of_size(rng.randint(1, 6))
            hmap = [rng.randrange(gy.size) for _ in range(g.size)]
            from famkit.fam import pushforward

            fam_h = pushforward(fam, hmap, gy)
            f_y = _atom_constant_table(rng, fam_h)
            check = pushforward_integral_check(f_y, hmap, fam, gy)
            assert check.image.status == "integrable"
            assert check.equal and check.consistent

            # subalgebra consistency: refine each atom, keeping the weights
            split_atoms = []
            split_weights = []
            for a, w in zip(fam.algebra.atoms, fam.weights):
                idx = a.indices()
                if len(idx) > 1 and rng.random() < 0.5:
                    cut = rng.randint(1, len(idx) - 1)
                    left = SetElem.from_indices(g, idx[:cut])
                    share = w * F(rng.randint(0, 4), 4)
                    split_atoms += [left, a - left]
                    split_weights += [share, w - share]
                else:
                    split_atoms.append(a)
                    split_weights.append(w)
            fine = Fam(Algebra(g, split_atoms), dict(zip(split_atoms, split_weights)))
            assert all(fine(a) == fam(a) for a in fam.algebra.atoms)
            fine_report = integrate(f, fine)
            assert fine_report.status == "integrable"
            assert fine_report.value == int_f.value

            # uniform average formula
            u = random_subset(rng, g, nonempty=True)
            avg_fam = uniform_fam(g, u)
            table = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(g.size)]
            expected = sum((table[k] for k in u.indices()), F(0)) / u.size
            assert integrate(table, avg_fam).value == expected


def test_criterion_10_uap_classification():
    with criterion(10, "exhaustive uap classification with witness-search cross-check"):
        weight_values = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
        # 1/256 sits below the population's distinguishing scale (cell values
        # have denominator <= 12 and witnesses at most 6 points, so any
        # inexact match errs by at least 1/72); the coarse grid alone cannot
        # refute e.g. 3/4 on a doubleton with 1/4 on a singleton
        eps_grid = [F(1, 2), F(1, 4), F(1, 8), F(1, 256)]

        def shapes(n, max_parts):
            # integer partitions of n into at most max_parts parts
            def rec(remaining, cap, parts):
                if remaining == 0:
                    yield tuple(parts)
                    return
                if len(parts) == max_parts:
                    return
                for size in range(min(cap, remaining), 0, -1):
                    parts.append(size)
                    yield from rec(remaining - size, size, parts)
                    parts.pop()

            yield from rec(n, n, [])

        checked = 0
        for n in range(1, 7):
            for shape in shapes(n, 4):
                ground = GroundSet.of_size(n)
                atoms = []
                at = 0
                for size in shape:
                    atoms.append(SetElem.from_indices(ground, range(at, at + size)))
                    at += size
                algebra = Algebra(ground, atoms)
                for weights in itertools.product(weight_values, repeat=len(shape)):
                    if sum(weights, F(0)) != 1:
                        continue
                    fam = Fam(algebra, dict(zip(atoms, weights)))
                    checked += 1
                    expected = has_uap(fam)
                    grid_ok = True
                    for blocks in set_partitions(range(fam.algebra.atom_count)):
                        cells = []
                        for block in blocks:
                            bits = 0
                            for k in block:
                                bits |= fam.algebra.atoms[k].bits
                            cells.append(SetElem(ground, bits))
                        partition = Partition(fam.algebra, cells)
                        for eps in eps_grid:
                            witness = uap_witness(fam, partition, eps)
                            if witness is None:
                                grid_ok = False
                            else:
                                size = witness.size
                                for cell in partition.cells:
                                    ratio = F((witness.bits & cell.bits).bit_count(), size)
                                    assert abs(ratio - fam(cell)) < eps
                            if not grid_ok:
                                break
                        if not grid_ok:
                            break
                    assert grid_ok == expected, fam

                    if all(a.size == 1 for a in atoms):
                        # on full power sets: uap iff the fam is uniform on some subset
                        uniform_match = any(
                            fam == uniform_fam(ground, SetElem(ground, bits))
                            for bits in range(1, 1 << n)
                        )
                        assert uniform_match == expected, fam
        assert checked > 200


def test_criterion_11_limit_theorems():
    with criterion(11, "Cauchy integral sequences and uniform-convergence transport"):
        rng = Random(66)
        tolerances = [F(1, 2), F(1, 10), F(1, 100)]
        horizon = 160
        for case in range(100):
            g = GroundSet.of_size(rng.randint(2, 8))
            fam = random_fam(rng, g, max_atoms=5)
            f = _atom_constant_table(rng, fam)
            gpert = _atom_constant_table(rng, fam, span=4)
            bound = max(abs(v) for v in gpert) + 3
            null_bits = 0
            for a, w in zip(fam.algebra.atoms, fam.weights):
                if w == 0:
                    null_bits |= a.bits

            seq = []
            for n in range(1, horizon + 1):
                term = [fv + gv / n for fv, gv in zip(f, gpert)]
                if case % 2 and null_bits:
                    # extra noise supported inside the null region
                    term = [
                        v + (rng.randint(-3, 3) if null_bits >> x & 1 else 0)
                        for x, v in enumerate(term)
                    ]
                seq.append(term)

            reports = [integrate(fn, fam) for fn in seq]
            assert all(r.status == "integrable" for r in reports)
            values = [r.value for r in reports]
            limit = integrate(f, fam).value

            # Cauchy at every tested tolerance: some suffix has spread < tol
            suffix_spread = []
            hi = lo = values[-1]
            for v in reversed(values):
                hi, lo = max(hi, v), min(lo, v)
                suffix_spread.append(hi - lo)
            suffix_spread.reverse()
            for tol in tolerances:
                assert any(spread < tol for spread in suffix_spread)

            # convergence to the bounded limit's integral
            base = integrate(gpert, fam).value
            for n, v in enumerate(values, start=1):
                assert v == limit + base / n

            eps_small = F(1, 16)
            assert bound / horizon < eps_small  # deviations vanish at the horizon
            report = xi_star_converges(seq, f, fam, [F(1, 2), eps_small])
            assert report.converged

            # uniform-convergence transport, exactly
            assert abs(values[-1] - limit) == abs(base) / horizon


def test_kernel_backend_available():
    from famkit._refine import backend_name

    print(f"refinement kernel backend: {backend_name()}", flush=True)
    assert backend_name() == "python"
