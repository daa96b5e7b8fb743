from fractions import Fraction as F

import pytest

from famkit.approx import approx_with_integrals
from famkit.boolalg import Algebra, GroundSet, Partition, SetElem, generate_algebra
from famkit.errors import BoundsError, GroundMismatchError, InputError
from famkit.extend import (
    PartialAssignment,
    amalgamate,
    check_separating_vector,
    compatible,
    extend_assignment,
    extend_one,
    extend_preserving_range,
    extend_with_filter,
    extension_bounds,
    fam_with_constraints,
    fam_with_integral_constraints,
    three_way_extend,
    ultrafilter_with_limits,
    value_range,
)
from famkit.fam import Fam, point_mass, uniform_fam


def elem(ground, *indices):
    return SetElem.from_indices(ground, indices)


def cross_section():
    """The {0,1}^2 fixture: Xi0(X_0)=1/3 on columns, Xi1(X^0)=1/2 on rows."""
    g = GroundSet(["00", "01", "10", "11"])
    x_low = elem(g, 0, 1)   # first coordinate 0
    x_row = elem(g, 0, 2)   # second coordinate 0
    fam0 = Fam(generate_algebra(g, [x_low]), {x_low: F(1, 3), ~x_low: F(2, 3)})
    fam1 = Fam(generate_algebra(g, [x_row]), {x_row: F(1, 2), ~x_row: F(1, 2)})
    return g, fam0, fam1


class TestExtendAssignment:
    def test_total_only(self):
        g = GroundSet.of_size(3)
        result = extend_assignment(PartialAssignment(g, [(SetElem.full(g), 1)]))
        assert result.feasible
        assert result.witness.total == 1
        assert result.witness.algebra.atom_count == 1

    def test_cross_section_feasible(self):
        g, fam0, fam1 = cross_section()
        pairs = [
            (SetElem.full(g), 1),
            (elem(g, 0, 1), F(1, 3)),
            (elem(g, 0, 2), F(1, 2)),
        ]
        result = extend_assignment(PartialAssignment(g, pairs))
        assert result.feasible
        w11 = result.witness(elem(g, 3))
        assert F(1, 6) <= w11 <= F(1, 2)

    def test_additivity_violation_certificate(self):
        g = GroundSet.of_size(4)
        a = elem(g, 0, 1)
        result = extend_assignment(
            PartialAssignment(g, [(SetElem.full(g), 1), (a, F(2, 3)), (~a, F(2, 3))])
        )
        assert not result.feasible
        cert = result.certificate
        assert cert.kind == "h_vector"
        assignment = PartialAssignment(g, [(SetElem.full(g), 1), (a, F(2, 3)), (~a, F(2, 3))])
        assert check_separating_vector(assignment, cert.payload["h"])

    def test_witness_reevaluates_exactly(self):
        g = GroundSet.of_size(5)
        pairs = [
            (SetElem.full(g), F(3, 2)),
            (elem(g, 0, 1, 2), F(3, 4)),
            (elem(g, 2, 3), F(1, 2)),
        ]
        result = extend_assignment(PartialAssignment(g, pairs))
        assert result.feasible
        for s, v in pairs:
            assert result.witness(s) == v

    def test_requires_full_set(self):
        g = GroundSet.of_size(3)
        with pytest.raises(InputError):
            PartialAssignment(g, [(elem(g, 0), F(1, 2))])


class TestCompatibleAmalgamate:
    def test_self_compatible(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, elem(g, 0, 1))
        ok, cert = compatible(fam, fam)
        assert ok and cert is None
        assert amalgamate(fam, fam).witness == fam

    def test_cross_section_compatible(self):
        _, fam0, fam1 = cross_section()
        ok, _ = compatible(fam0, fam1)
        assert ok
        result = amalgamate(fam0, fam1)
        assert result.feasible
        for fam in (fam0, fam1):
            for a in fam.algebra.atoms:
                assert result.witness(a) == fam(a)
        # the witness obeys Xi({0,0}) = Xi({1,1}) - 1/6
        g = fam0.algebra.ground
        assert result.witness(elem(g, 0)) == result.witness(elem(g, 3)) - F(1, 6)

    def test_same_subalgebra_disagreement(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam_a = Fam(alg, [F(1, 3), F(2, 3)])
        fam_b = Fam(alg, [F(1, 4), F(3, 4)])
        ok, cert = compatible(fam_a, fam_b)
        assert not ok
        assert cert.kind == "violating_pair"
        assert cert.payload["a"] == cert.payload["a_prime"]

    def test_total_mismatch(self):
        g = GroundSet.of_size(3)
        ok, cert = compatible(point_mass(g, 0), point_mass(g, 1, total=2))
        assert not ok
        assert cert.payload["a"] == SetElem.full(g)

    def test_point_masses_at_distinct_measured_points(self):
        # mass at 0 forces {1,2,3} null, yet the other fam puts 1 on {1}:
        # incompatible despite equal totals, with a checkable pair
        g = GroundSet.of_size(4)
        fam0 = Fam(generate_algebra(g, [elem(g, 0)]), {elem(g, 0): 1})
        fam1 = Fam(generate_algebra(g, [elem(g, 1)]), {elem(g, 1): 1})
        result = amalgamate(fam0, fam1)
        assert not result.feasible
        cert = result.certificate.payload
        assert cert["a"] <= cert["a_prime"] and cert["value_a"] > cert["value_a_prime"]

    def test_point_masses_same_point_different_algebras(self):
        g = GroundSet.of_size(4)
        fam0 = Fam(generate_algebra(g, [elem(g, 0, 1)]), {elem(g, 0, 1): 1})
        fam1 = Fam(generate_algebra(g, [elem(g, 0, 2)]), {elem(g, 0, 2): 1})
        assert amalgamate(fam0, fam1).feasible

    def test_violating_pair_checks_out(self):
        g = GroundSet.of_size(4)
        # fam0 puts 3/4 on {0,1}; fam1 puts 1/2 on {0,1,2}: floor scan catches it
        fam0 = Fam(generate_algebra(g, [elem(g, 0, 1)]), {elem(g, 0, 1): F(3, 4), elem(g, 2, 3): F(1, 4)})
        fam1 = Fam(
            generate_algebra(g, [elem(g, 0, 1, 2)]),
            {elem(g, 0, 1, 2): F(1, 2), elem(g, 3): F(1, 2)},
        )
        ok, cert = compatible(fam0, fam1)
        assert not ok
        a, a_prime = cert.payload["a"], cert.payload["a_prime"]
        assert a <= a_prime
        assert cert.payload["value_a"] > cert.payload["value_a_prime"]


class TestBoundsAndExtendOne:
    def test_member_bounds_collapse(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        b = elem(g, 0, 1)
        assert extension_bounds(fam, b) == (F(1, 2), F(1, 2))

    def test_trivial_algebra_bounds(self):
        g = GroundSet.of_size(4)
        fam = Fam(Algebra.trivial(g), [1])
        assert extension_bounds(fam, elem(g, 0)) == (0, 1)

    def test_cross_section_partial_bounds(self):
        g, fam0, _ = cross_section()
        assert extension_bounds(fam0, elem(g, 3)) == (0, F(2, 3))

    def test_extend_one_interior(self):
        g = GroundSet.of_size(4)
        fam = Fam(Algebra.trivial(g), [1])
        b = elem(g, 0, 1)
        out = extend_one(fam, b, F(1, 3))
        assert out(b) == F(1, 3)
        assert out(~b) == F(2, 3)

    def test_extend_one_at_bounds(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        alg = generate_algebra(g, [elem(g, 0, 1)])
        coarse = Fam(alg, [F(1, 2), F(1, 2)])
        b = elem(g, 0, 2)
        lo, hi = extension_bounds(coarse, b)
        assert (lo, hi) == (0, 1)
        assert extend_one(coarse, b, lo)(b) == lo
        assert extend_one(coarse, b, hi)(b) == hi

    def test_extend_one_out_of_bounds(self):
        g = GroundSet.of_size(3)
        fam = uniform_fam(g, SetElem.full(g))
        with pytest.raises(BoundsError):
            extend_one(fam, elem(g, 0), F(1, 2))

    def test_extend_one_preserves_original(self):
        g = GroundSet.of_size(5)
        alg = generate_algebra(g, [elem(g, 0, 1, 2)])
        fam = Fam(alg, [F(2, 5), F(3, 5)])
        out = extend_one(fam, elem(g, 1, 2, 3), F(1, 2))
        for b in alg.elements():
            assert out(b) == fam(b)


class TestValueRange:
    def test_cross_section_paper_numbers(self):
        g, fam0, fam1 = cross_section()
        pairs = [(a, fam0(a)) for a in fam0.algebra.atoms]
        pairs += [(a, fam1(a)) for a in fam1.algebra.atoms]
        pairs += [(SetElem.full(g), F(1))]
        assignment = PartialAssignment(g, pairs)
        assert value_range(assignment, elem(g, 3)) == (F(1, 6), F(1, 2))

    def test_infeasible_returns_none(self):
        g = GroundSet.of_size(3)
        a = elem(g, 0)
        assignment = PartialAssignment(g, [(SetElem.full(g), 1), (a, F(2, 3)), (~a, F(2, 3))])
        assert value_range(assignment, a) is None


class TestPreservingRange:
    def test_member_unchanged(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        out = extend_preserving_range(fam, elem(g, 0, 1), [0, 1])
        assert out(elem(g, 0, 1)) == 1

    def test_zero_one_stays_zero_one(self):
        # ultrafilter extension: a 0/1 fam extends to a 0/1 fam
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        out = extend_preserving_range(fam, elem(g, 0, 2), [0, 1])
        values = {out(b) for b in out.algebra.elements()}
        assert values <= {0, 1}
        assert out.total == 1

    def test_three_level_range(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1, 2), F(1, 2)])
        K = [F(0), F(1, 2), F(1)]
        out = extend_preserving_range(fam, elem(g, 1, 2), K)
        assert {out(b) for b in out.algebra.elements()} <= set(K)

    def test_precondition_violation(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        with pytest.raises(InputError):
            extend_preserving_range(fam, elem(g, 0), [0, 1])


class TestExtendWithFilter:
    def test_whole_space_generator_keeps_fam(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        result = extend_with_filter(fam, [SetElem.full(g)])
        assert result.feasible
        assert result.witness == fam

    def test_worked_evens_fixture(self):
        # ground {0..5}, Xi0(evens) = 2/3, filter generated by {0,1}
        g = GroundSet.of_size(6)
        evens = elem(g, 0, 2, 4)
        fam0 = Fam(generate_algebra(g, [evens]), {evens: F(2, 3), ~evens: F(1, 3)})
        result = extend_with_filter(fam0, [elem(g, 0, 1)])
        assert result.feasible
        witness = result.witness
        assert witness(elem(g, 0)) == F(2, 3)
        assert witness(elem(g, 1)) == F(1, 3)
        assert witness(elem(g, 0, 1)) == 1

    def test_hypothesis_violation(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        result = extend_with_filter(fam, [elem(g, 0, 1)])
        assert not result.feasible
        assert result.certificate.kind == "filter_hypothesis"

    def test_uniqueness_via_value_range(self):
        g = GroundSet.of_size(6)
        evens = elem(g, 0, 2, 4)
        fam0 = Fam(generate_algebra(g, [evens]), {evens: F(2, 3), ~evens: F(1, 3)})
        gens = [elem(g, 0, 1)]
        result = extend_with_filter(fam0, gens)
        pairs = [(a, fam0(a)) for a in fam0.algebra.atoms]
        pairs.append((SetElem.full(g), F(1)))
        pairs += [(b, F(1)) for b in gens]
        assignment = PartialAssignment(g, pairs)
        for b in result.witness.algebra.elements():
            lo, hi = value_range(assignment, b)
            assert lo == hi == result.witness(b)


class TestThreeWay:
    def test_reduces_to_filter_extension(self):
        g = GroundSet.of_size(6)
        evens = elem(g, 0, 2, 4)
        fam0 = Fam(generate_algebra(g, [evens]), {evens: F(2, 3), ~evens: F(1, 3)})
        result = three_way_extend(fam0, fam0, [elem(g, 0, 1)])
        assert result.feasible
        assert result.witness(elem(g, 0)) == F(2, 3)

    def test_reduces_to_amalgamate(self):
        g, fam0, fam1 = cross_section()
        result = three_way_extend(fam0, fam1, [SetElem.full(g)])
        assert result.feasible
        for fam in (fam0, fam1):
            for a in fam.algebra.atoms:
                assert result.witness(a) == fam(a)

    def test_bullet1_violation(self):
        g = GroundSet.of_size(4)
        fam0 = uniform_fam(g, SetElem.full(g))
        result = three_way_extend(fam0, fam0, [elem(g, 0)])
        assert not result.feasible
        assert result.certificate.kind == "bullet1"

    def test_bullet2_violation(self):
        # both fams concentrate inside the core but with incomparable masses
        g = GroundSet.of_size(4)
        core = elem(g, 0, 1)
        fam0 = Fam(generate_algebra(g, [elem(g, 0)]), {elem(g, 0): F(3, 4), elem(g, 1, 2, 3): F(1, 4)})
        fam1 = Fam(generate_algebra(g, [elem(g, 0)]), {elem(g, 0): F(1, 2), elem(g, 1, 2, 3): F(1, 2)})
        result = three_way_extend(fam0, fam1, [core])
        assert not result.feasible
        assert result.certificate.kind == "bullet2"

    def test_generator_over_another_ground_set_rejected(self):
        g = GroundSet.of_size(4)
        fam0 = uniform_fam(g, SetElem.full(g))
        with pytest.raises(GroundMismatchError):
            three_way_extend(fam0, fam0, [elem(GroundSet.of_size(3), 0)])


class TestConstrained:
    def test_single_set_full_interval(self):
        g = GroundSet.of_size(4)
        result = fam_with_constraints(g, [elem(g, 0, 1)], [(0, 1)], 1)
        assert result.feasible

    def test_disjoint_overfull(self):
        g = GroundSet.of_size(4)
        result = fam_with_constraints(
            g, [elem(g, 0, 1), elem(g, 2, 3)], [(F(3, 4), 1), (F(3, 4), 1)], 1
        )
        assert not result.feasible

    def test_quarter_quarter_paper_instance(self):
        g = GroundSet.of_size(6)
        result = fam_with_constraints(
            g, [elem(g, 0, 1), elem(g, 2, 3)], [[F(1, 4)], [F(1, 4)]], 1
        )
        assert result.feasible
        assert result.witness(elem(g, 0, 1)) == F(1, 4)
        assert result.witness(elem(g, 2, 3)) == F(1, 4)

    def test_malformed_interval(self):
        g = GroundSet.of_size(3)
        with pytest.raises(InputError):
            fam_with_constraints(g, [elem(g, 0)], [(F(1, 2), F(1, 4))], 1)
        with pytest.raises(InputError):
            fam_with_constraints(g, [elem(g, 0)], [(0, 2)], 1)


class TestIntegralConstraints:
    def test_empty_fns_plain_extension(self):
        g = GroundSet.of_size(3)
        fam0 = Fam(Algebra.trivial(g), [1])
        result = fam_with_integral_constraints(fam0, [], [])
        assert result.feasible
        assert result.witness.total == 1

    def test_indicator_equals_set_constraint(self):
        g = GroundSet.of_size(4)
        fam0 = Fam(Algebra.trivial(g), [1])
        e = elem(g, 1, 2)
        chi = [1 if x in e else 0 for x in range(4)]
        result = fam_with_integral_constraints(fam0, [chi], [(F(1, 3), F(1, 3))])
        assert result.feasible
        assert result.witness(e) == F(1, 3)

    def test_identity_mean_one(self):
        g = GroundSet.of_size(3)
        fam0 = Fam(Algebra.trivial(g), [1])
        result = fam_with_integral_constraints(fam0, [[0, 1, 2]], [(1, 1)])
        assert result.feasible
        weights = result.witness.weights
        mean = sum(F(x) * w for x, w in zip([0, 1, 2], weights))
        assert mean == 1

    def test_infeasible_target(self):
        g = GroundSet.of_size(3)
        fam0 = Fam(Algebra.trivial(g), [1])
        result = fam_with_integral_constraints(fam0, [[0, 1, 2]], [(3, 4)])
        assert not result.feasible


class TestUltrafilterLimits:
    def test_empty_fns_any_core_point(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 2, 3)])
        ultra = Fam(alg, {elem(g, 2, 3): 1})
        result = ultrafilter_with_limits(ultra, [], [])
        assert result.feasible
        assert result.witness(elem(g, 2, 3)) == 1

    def test_point_scan(self):
        g = GroundSet.of_size(6)
        alg = generate_algebra(g, [elem(g, 2, 3)])
        ultra = Fam(alg, {elem(g, 2, 3): 1})
        result = ultrafilter_with_limits(ultra, [[0, 1, 2, 3, 4, 5]], [(3, 3)])
        assert result.feasible
        assert result.witness(elem(g, 3)) == 1

    def test_unattainable_values(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        ultra = Fam(alg, {elem(g, 0, 1): 1})
        result = ultrafilter_with_limits(ultra, [[0, 1, 2, 3]], [(2, 3)])
        assert not result.feasible
        assert result.certificate.kind == "no_point"


@pytest.mark.parametrize("table", [["1"], ["1", "2", "3", "4"]], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda fam, fns: ultrafilter_with_limits(fam, fns, [1]),
    lambda fam, fns: fam_with_integral_constraints(fam, fns, [1]),
    lambda fam, fns: approx_with_integrals(fam, Partition.of_atoms(fam.algebra), F(1, 4), fns),
], ids=["ultrafilter", "integral", "approx"])
def test_tables_cover_the_ground_set_exactly(call, table):
    g = GroundSet.of_size(3)
    with pytest.raises(InputError, match="^table must have one value per ground element$"):
        call(point_mass(g, 2), [table])
