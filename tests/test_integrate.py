import hashlib
import itertools
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famkit._refine_py import _plan, darboux_sum, exact_sum, poly_range
from famkit.boolalg import Algebra, GroundSet, Partition, SetElem, generate_algebra
from famkit.boxes import IN, OUT, STRADDLE, BoxElem, VolumeFam, make_box
from famkit.cantor import cantor_integrate, oscillation_cover
from famkit.errors import InputError
from famkit.fam import Fam, uniform_fam
from famkit.functions import (
    DenseCodenseRegion,
    HalfPlaneRegion,
    IndicatorFn,
    LipschitzFn,
    PiecewiseConstantFn,
    PointRegion,
    PolynomialFn,
    RegionComplement,
    RegionIntersection,
    RegionUnion,
    add_term,
    triangle_under_diagonal,
)
from famkit.integrate import (
    DEFAULT_BUDGET,
    INTEGRABLE,
    infsum,
    integrate,
    integrate_over,
    integrate_simple,
    inner_measure,
    is_jordan,
    jordan_completion,
    measure_bracket,
    oscillation,
    outer_measure,
    pushforward_integral_check,
    supsum,
    ultrafilter_integrate,
    xi_star_converges,
)
from famkit.jsonio import parse_fn


def elem(ground, *indices):
    return SetElem.from_indices(ground, indices)


class TestFiniteSums:
    def test_constant(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        p = Partition(fam.algebra, [SetElem.full(g)])
        assert supsum([3, 3, 3, 3], p, fam) == 3
        assert infsum([3, 3, 3, 3], p, fam) == 3

    def test_indicator_recovers_measure(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        e = elem(g, 0, 1)
        p = Partition(fam.algebra, [e, ~e])
        chi = [1, 1, 0, 0]
        assert supsum(chi, p, fam) == infsum(chi, p, fam) == F(1, 2)

    def test_two_halves_of_identity(self):
        # f(x) = x on four points with two-cell partition brackets the mean
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        p = Partition(fam.algebra, [elem(g, 0, 1), elem(g, 2, 3)])
        f = [0, 1, 2, 3]
        assert supsum(f, p, fam) == F(1, 2) + F(3, 2)
        assert infsum(f, p, fam) == F(0) + F(1)

    def test_refinement_tightens(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        coarse = Partition(fam.algebra, [SetElem.full(g)])
        fine = Partition.of_atoms(fam.algebra)
        f = [0, 2, 5, 7]
        assert infsum(f, coarse, fam) <= infsum(f, fine, fam)
        assert supsum(f, fine, fam) <= supsum(f, coarse, fam)


class TestFiniteIntegrate:
    def test_table_on_power_set_always_integrable(self):
        g = GroundSet.of_size(5)
        fam = uniform_fam(g, SetElem.full(g))
        report = integrate([1, 2, 3, 4, 5], fam)
        assert report.status == "integrable"
        assert report.value == F(15, 5)

    def test_uniform_average_formula(self):
        g = GroundSet.of_size(6)
        u = elem(g, 0, 3, 5)
        fam = uniform_fam(g, u)
        f = [7, 100, 100, 1, 100, 4]
        report = integrate(f, fam)
        assert report.value == F(7 + 1 + 4, 3)

    def test_non_integrable_on_coarse_algebra(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1, 2), F(1, 2)])
        report = integrate([0, 1, 1, 1], fam)
        assert report.status == "not_integrable"
        assert report.lower == F(1, 2) and report.upper == 1

    def test_variation_on_null_atom_is_harmless(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        report = integrate([2, 2, 17, -3], fam)
        assert report.status == "integrable"
        assert report.value == 2

    def test_integrate_over_member(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        e = elem(g, 1, 2)
        report = integrate_over([5, 5, 5, 5], e, fam)
        assert report.value == 5 * F(1, 2)

    def test_integrate_over_empty(self):
        g = GroundSet.of_size(3)
        fam = uniform_fam(g, SetElem.full(g))
        report = integrate_over([1, 2, 3], SetElem.empty(g), fam)
        assert report.value == 0


class TestOscillation:
    def test_constant_on_atom(self):
        g = GroundSet.of_size(4)
        a = elem(g, 0, 1)
        assert oscillation([5, 5, 1, 2], a) == 0
        assert ultrafilter_integrate([5, 5, 1, 2], a) == 5

    def test_varying_on_atom(self):
        g = GroundSet.of_size(2)
        a = elem(g, 0, 1)
        assert oscillation([0, 1], a) == 1
        assert ultrafilter_integrate([0, 1], a) is None

    def test_atom_point_evaluation(self):
        # principal ultrafilters at atoms recover point evaluation
        g = GroundSet.of_size(3)
        alg = Algebra.power_set(g)
        f = [3, 1, 4]
        for i, a in enumerate(alg.atoms):
            assert ultrafilter_integrate(f, a) == f[i]


class TestJordanFinite:
    def test_member_is_jordan(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        e = elem(g, 0, 2)
        report = is_jordan(e, fam)
        assert report.jordan and report.measure == F(1, 2)
        assert report.witness == (e, e)

    def test_splitting_positive_atom_not_jordan(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1, 2), F(1, 2)])
        report = is_jordan(elem(g, 0), fam)
        assert report.jordan is False
        assert report.bracket == (0, F(1, 2))

    def test_subset_of_null_atom_is_jordan(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        report = is_jordan(elem(g, 2), fam)
        assert report.jordan and report.measure == 0

    def test_outer_inner_finite(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1, 3), F(2, 3)])
        e = elem(g, 0, 2)
        assert outer_measure(e, fam) == 1
        assert inner_measure(e, fam) == 0

    def test_jordan_completion_preserves_integrals(self):
        g = GroundSet.of_size(5)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        hat = jordan_completion(fam)
        f = [2, 2, 9, 8, 7]
        r_orig = integrate(f, fam)
        r_hat = integrate(f, hat)
        assert r_orig.status == r_hat.status == "integrable"
        assert r_orig.value == r_hat.value
        # and the completion decides subsets of null atoms
        assert is_jordan(elem(g, 2), hat).jordan


class TestPushforward:
    def test_identity_map(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        check = pushforward_integral_check([1, 2, 3, 4], list(range(4)), fam, g)
        assert check.equal and check.consistent

    def test_paper_collapse_indicator(self):
        gx = GroundSet.of_size(10)
        gy = GroundSet.of_size(3)
        fam = uniform_fam(gx, SetElem.full(gx))
        h = [0] + [1] * 9
        check = pushforward_integral_check([1, 0, 0], h, fam, gy)
        assert check.equal
        assert check.image.value == F(1, 10)

    def test_constant(self):
        gx = GroundSet.of_size(5)
        gy = GroundSet.of_size(2)
        fam = uniform_fam(gx, elem(gx, 0, 1))
        check = pushforward_integral_check([4, 4], [0] * 5, fam, gy)
        assert check.equal
        assert check.source.value == 4


class TestXiStar:
    def test_constant_sequence(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        f = [1, 2, 3, 4]
        report = xi_star_converges([f, f, f], f, fam, [F(1, 2), F(1, 8)])
        assert report.converged
        for track in report.tracks:
            assert set(track.outer_measures) == {0}

    def test_shrinking_uniform_perturbation(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        f = [F(1), F(1), F(1), F(1)]
        seq = [[F(1) + F(1, n + 1)] * 4 for n in range(8)]
        report = xi_star_converges(seq, f, fam, [F(1, 4)])
        track = report.tracks[0]
        assert track.outer_measures[0] == 1  # deviation 1/2 >= 1/4
        assert track.outer_measures[-1] == 0
        assert report.converged

    def test_deviation_inside_null_set(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, [F(1), F(0)])
        f = [0, 0, 0, 0]
        seq = [[0, 0, 100, -3]] * 3
        report = xi_star_converges(seq, f, fam, [F(1, 2)])
        assert report.converged


UNIT = VolumeFam([[0, 1]])
SQUARE = VolumeFam([[0, 1], [0, 1]])


class TestBoxIntegrate:
    def test_constant_zero_gap(self):
        report = integrate(PolynomialFn([2.5]), UNIT, epsilon=1e-9)
        assert report.status == "integrable"
        assert report.value == pytest.approx(2.5, abs=1e-9)

    def test_x_squared(self):
        report = integrate(PolynomialFn([0, 0, 1]), UNIT, epsilon=1e-4)
        assert report.status == "integrable"
        assert report.value == pytest.approx(1 / 3, abs=1e-4)
        assert report.upper - report.lower < 1e-4

    def test_linear_two_dim(self):
        fn = PolynomialFn({(1, 0): 1.0, (0, 1): 1.0})
        report = integrate(fn, SQUARE, epsilon=1e-2)
        assert report.status == "integrable"
        assert report.value == pytest.approx(1.0, abs=1e-6)

    def test_dirichlet_certified_gap(self):
        fn = IndicatorFn(DenseCodenseRegion())
        report = integrate(fn, UNIT, epsilon=1e-6)
        assert report.status == "not_integrable"
        assert report.lower == pytest.approx(0.0)
        assert report.upper == pytest.approx(1.0)
        assert report.gap >= 1 - 1e-9

    @pytest.mark.parametrize("b", [F(1, 3), F(2, 3)])
    def test_dirichlet_bracket_rounds_outward(self, b):
        # the volume b is no float, so the float product must step outward
        report = integrate(IndicatorFn(DenseCodenseRegion()), VolumeFam([[0, b]]), epsilon=1e-3)
        assert report.status == "not_integrable"
        assert F(report.upper) >= b
        assert F(report.lower) <= 0

    def test_grid_strategy(self):
        report = integrate(PolynomialFn([0, 1]), UNIT, epsilon=1e-2, strategy="grid")
        assert report.status == "integrable"
        assert report.value == pytest.approx(0.5, abs=1e-2)

    def test_grid_asks_the_oracle_once_per_cell(self):
        square = PolynomialFn([0, 0, 1])
        calls = []

        class Counting:
            def range_on(self, box):
                calls.append(box)
                return square.range_on(box)

        report = integrate(Counting(), UNIT, epsilon=1e-3, strategy="grid")
        assert report.status == "integrable"
        assert len(calls) == sum(n for n, _ in report.trace)

    def test_lipschitz_oracle(self):
        fn = LipschitzFn(lambda p: abs(p[0] - 0.5), 1.0)
        report = integrate(fn, UNIT, epsilon=1e-3)
        assert report.status == "integrable"
        assert report.value == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("call", [
        # each answered as if the part had the box's axes: [0.5, 0.5078125],
        # [0.0, 0.0078125], [0.5, 0.5] (both strategies), [0.5, 0.5] and
        # [0.0, 0.0078125]; the polynomial raised IndexError
        lambda: integrate_over(PolynomialFn([1.0]), HalfPlaneRegion((1, 1), F(1, 2)), UNIT, 1e-2),
        lambda: integrate_over(PolynomialFn([1.0]), PointRegion((F(1, 2), F(1, 2))), UNIT, 1e-2),
        lambda: integrate(PiecewiseConstantFn([(make_box([[0, F(1, 2)], [0, 1]]), 1.0)]), UNIT, 1e-2),
        lambda: integrate(PiecewiseConstantFn([(make_box([[0, F(1, 2)], [0, 1]]), 1.0)]), UNIT, 1e-2,
                          strategy="grid"),
        lambda: integrate(PiecewiseConstantFn([(make_box([[0, F(1, 2)]]), 1.0)]), SQUARE, 1e-2),
        lambda: integrate(IndicatorFn(PointRegion((0.5, 0.5))), UNIT, 1e-2),
        lambda: integrate(PolynomialFn({(1, 1): 1.0}), UNIT, 1e-2),
    ], ids=["over-halfplane-2d", "over-point-2d", "pieces-2d", "pieces-2d-grid", "piece-1d", "indicator-point-2d",
            "polynomial-2d"])
    def test_parts_of_another_dimension_rejected(self, call):
        with pytest.raises(InputError, match="dimension mismatch: .* has [0-9]+ axes, the problem has"):
            call()

    def test_constants_dense_fixture_and_foreign_oracles_fit_any_box(self):
        cube = VolumeFam([[0, 1]] * 3)
        for fam in (UNIT, SQUARE, cube):
            assert integrate(PolynomialFn({(): 2.0}), fam, 1e-3).value == 2.0
            assert integrate(LipschitzFn(lambda p: 1.0, 0.0), fam, 1e-3).value == 1.0
            assert integrate(IndicatorFn(DenseCodenseRegion()), fam, 1e-3).status == "not_integrable"
            assert is_jordan(DenseCodenseRegion(), fam, F(1, 8)).jordan is False

    def test_box_union_of_mixed_dimensions_rejected(self):
        # the 1-D box used to subtract the 2-D one away on their shared axis
        with pytest.raises(InputError, match="mixes boxes of 1 and 2 axes"):
            BoxElem([make_box([[0, 1]]), make_box([[0, 1], [0, 1]])])

    def test_piecewise_constant(self):
        fn = PiecewiseConstantFn([(make_box([[0, F(1, 2)]]), 1.0)], default=3.0)
        report = integrate(fn, UNIT, epsilon=1e-6)
        assert report.status == "integrable"
        assert report.value == pytest.approx(2.0, abs=1e-6)

    def test_piecewise_overlapping_pieces_keep_the_default(self):
        # both pieces are [0, 1/2): their volumes add up to the whole unit
        # interval, but the default 5 still holds on [1/2, 1)
        half = make_box([[0, F(1, 2)]])
        fn = PiecewiseConstantFn([(half, 1.0), (half, 1.0)], default=5.0)
        assert fn.range_on(UNIT.bounding) == (1.0, 5.0)
        report = integrate(fn, UNIT, epsilon=1e-3)
        assert report.status == "integrable"
        assert report.value == pytest.approx(3.0, abs=1e-3)
        # overlapping pieces that do cover the interval leave the default out
        covering = PiecewiseConstantFn(
            [(make_box([[0, F(3, 4)]]), 1.0), (make_box([[F(1, 2), 1]]), 2.0)], default=5.0
        )
        assert covering.range_on(UNIT.bounding) == (1.0, 2.0)

    def test_piecewise_overlap_takes_the_first_piece(self):
        # on [1/4, 1/2) both pieces meet every cell, but the first one's
        # value holds: its range once left the 2 in, and the gap stalled at
        # 0.25 in both strategies
        fn = PiecewiseConstantFn([(make_box([[0, F(1, 2)]]), 1.0), (make_box([[F(1, 4), F(3, 4)]]), 2.0)])
        assert fn.range_on(((F(1, 4), F(1, 2)),)) == (1.0, 1.0)
        report = integrate(fn, UNIT, 1e-3, budget=5000)
        assert (report.status, report.lower, report.upper, report.trace[-1][0]) == (INTEGRABLE, 1.0, 1.0, 3)
        report = integrate(fn, UNIT, 1e-3, budget=5000, strategy="grid")
        assert (report.status, report.lower, report.upper) == (INTEGRABLE, 1.0, 1.0)

    def test_integrate_over_jordan_null_set(self):
        point = PointRegion([F(1, 2)])
        report = integrate_over(PolynomialFn([0, 1]), point, UNIT, epsilon=1e-6)
        assert report.status == "integrable"
        assert report.value == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("exps", [(-1,), (1.5,), (0, -2), ("2",), (True,)])
    def test_polynomial_exponents_are_non_negative_integers(self, exps):
        with pytest.raises(InputError, match="non-negative integers"):
            PolynomialFn({exps: 1.0})

    def test_integral_float_exponents_are_integers(self):
        fn = PolynomialFn({(2.0,): 1.0, (0,): 1.0})
        assert fn.exps == ((0,), (2,))
        assert all(type(e) is int for exps in fn.exps for e in exps)

    def test_repeated_terms_sum(self):
        fn = parse_fn({"poly": {"terms": [{"exps": [1], "coeff": 1}, {"exps": [0], "coeff": 5},
                                          {"exps": [1], "coeff": 2}]}}, 1)
        assert (fn.exps, fn.coeffs) == (((0,), (1,)), (5.0, 3.0))
        report = integrate(fn, UNIT, epsilon=1e-3)
        assert report.lower <= 6.5 <= report.upper
        terms = {}
        for exps, coeff in (((1, 0), 1), ((1, 0), 0.5), ((0, 1), 2)):
            add_term(terms, exps, coeff)
        assert terms == {(1, 0): 1.5, (0, 1): 2.0}

    def test_budget_exhaustion_is_undecided(self):
        report = integrate(PolynomialFn([0, 0, 1]), UNIT, epsilon=1e-9, budget=64)
        assert report.status == "undecided"
        assert report.value is None


    @pytest.mark.parametrize("build", [
        lambda: PolynomialFn([1.0, math.nan]),
        lambda: PolynomialFn({(1, 0): math.inf, (0, 0): 1.0}),
        # two finite terms whose sum overflows
        lambda: parse_fn({"poly": {"terms": [{"exps": [1], "coeff": 1e308}] * 2}}, 1),
        lambda: PiecewiseConstantFn([(make_box([[0, 1]]), math.nan)]),
        lambda: PiecewiseConstantFn([], default=-math.inf),
        lambda: IndicatorFn(HalfPlaneRegion((1,), 0), value=math.inf),
        lambda: LipschitzFn(lambda x: x[0], math.nan),
        # a tolerance or a threshold beyond the float range
        lambda: integrate(PolynomialFn([0, 1]), UNIT, epsilon="1e400"),
        lambda: cantor_integrate(PolynomialFn([0, 1]), epsilon=F(10) ** 400),
        lambda: oscillation_cover(PolynomialFn([0, 1]), F(10) ** 400, 3),
        # integers and corners beyond the float range raised OverflowError
        lambda: LipschitzFn(lambda x: x[0], 10 ** 400),
        lambda: parse_fn({"poly": [0, 10 ** 400]}, 1),
        lambda: PiecewiseConstantFn([(make_box([[0, 1]]), 10 ** 400)]),
        lambda: PiecewiseConstantFn([], default=-10 ** 400),
        lambda: integrate(PolynomialFn([0, 1]), VolumeFam([[0, 10 ** 400]]), 1e-3),
        lambda: integrate(LipschitzFn(lambda x: x[0], 1), VolumeFam([[-10 ** 400, 0]]), 1e-3),
        lambda: integrate(IndicatorFn(HalfPlaneRegion((1,), F(1, 3))), VolumeFam([[0, 10 ** 400]]), 1e-3,
                          strategy="grid"),
    ])
    def test_nonfinite_numbers_rejected(self, build):
        with pytest.raises(InputError, match="must be finite"):
            build()


def _corner_extremes(normal, box):
    """Min and max of ``normal . x`` over the corners of ``box``, in Fractions."""
    values = [sum((c * F(x) for c, x in zip(normal, corner)), F(0)) for corner in itertools.product(*box)]
    return min(values), max(values)


@st.composite
def halfplanes_and_float_boxes(draw):
    """A half-plane and a float box with one corner on its boundary, within
    1e-12 of it, or anywhere."""
    dim = draw(st.integers(1, 3))
    normal = draw(st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(-3), F(1, 3), F(-5, 7)]),
                           min_size=dim, max_size=dim))
    corner = [draw(st.integers(-64, 64)) / 32 for _ in range(dim)]
    mode = draw(st.sampled_from(["on", "near", "anywhere"]))
    if mode == "anywhere":
        corner = [draw(st.floats(-4, 4)) for _ in range(dim)]
        offset = F(draw(st.integers(-20, 20)), draw(st.integers(1, 9)))
    else:
        offset = sum((c * F(x) for c, x in zip(normal, corner)), F(0))
    if mode == "near":
        corner = [x + draw(st.sampled_from([-1e-12, -3e-13, -2e-16, 0.0, 5e-14, 1e-12])) for x in corner]
    box = []
    for x in corner:
        width = draw(st.sampled_from([0.0, 2.0 ** -40, 1e-12, 2.0 ** -3, 0.1, 1.0]))
        box.append((x, x + width) if draw(st.booleans()) else (x - width, x))
    return HalfPlaneRegion(normal, offset), tuple(box)


class TestHalfPlaneClassify:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(halfplanes_and_float_boxes())
    def test_matches_corner_extremes(self, case):
        region, box = case
        low, high = _corner_extremes(region.normal, box)
        want = IN if high <= region.offset else OUT if low > region.offset else STRADDLE
        assert region.classify(box) == want
        assert region.classify(tuple((F(lo), F(hi)) for lo, hi in box)) == want

    def test_exact_fallback_name_kept(self):
        # perfbench/tracing.py wraps this name in the class's own namespace
        assert vars(HalfPlaneRegion)["_classify_exact"] is vars(HalfPlaneRegion)["classify"]


def _listed_verdict(region, box):
    """The rule that classified every part of a union or an intersection
    before deciding."""
    if isinstance(region, RegionComplement):
        return {IN: OUT, OUT: IN, STRADDLE: STRADDLE}[_listed_verdict(region.inner, box)]
    if isinstance(region, (RegionUnion, RegionIntersection)):
        results = [_listed_verdict(p, box) for p in region.parts]
        if isinstance(region, RegionUnion):
            return IN if IN in results else OUT if all(r == OUT for r in results) else STRADDLE
        return IN if all(r == IN for r in results) else OUT if OUT in results else STRADDLE
    return region.classify(box)


_eighths = st.integers(-2, 10).map(lambda k: F(k, 8))
_leaf_regions = st.one_of(
    st.builds(HalfPlaneRegion, st.tuples(_eighths, _eighths), _eighths),
    st.lists(st.tuples(_eighths, _eighths, _eighths, _eighths), min_size=1, max_size=2).map(
        lambda corners: BoxElem([make_box([sorted((a, b)), sorted((c, d))]) for a, b, c, d in corners])),
)
_regions = st.recursive(_leaf_regions, lambda parts: st.one_of(
    st.builds(RegionComplement, parts),
    st.lists(parts, min_size=1, max_size=3).map(lambda ps: RegionUnion(*ps)),
    st.lists(parts, min_size=1, max_size=3).map(lambda ps: RegionIntersection(*ps)),
), max_leaves=6)


class TestCombinedRegionClassify:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_regions, st.lists(_eighths, min_size=4, max_size=4))
    def test_short_circuit_matches_listed_verdicts(self, region, corners):
        x0, x1, y0, y1 = corners
        box = ((min(x0, x1), max(x0, x1) + F(1, 16)), (min(y0, y1), max(y0, y1) + F(1, 16)))
        assert region.classify(box) == _listed_verdict(region, box)
        floats = tuple((float(lo), float(hi)) for lo, hi in box)
        assert region.classify(floats) == _listed_verdict(region, floats)


OFFGRID = VolumeFam([[F(1, 3), 2], [F(-1, 7), 1]])


#: the indicator probes: the two ``box-indicator`` regions of
#: ``benchmarks/bench_bracket.py`` and the ``offgrid`` half-plane
INDICATOR_PROBES = {
    "box-indicator-1": (HalfPlaneRegion((2, -1), F(4, 7)), SQUARE, 3.2e-3),
    "box-indicator-2": (RegionIntersection(HalfPlaneRegion((1, -2), F(1, 5)),
                                           HalfPlaneRegion((-1, -1), F(-3, 7))), SQUARE, 1e-3),
    "offgrid": (HalfPlaneRegion((-3, 2), F(-1, 2)), OFFGRID, 1e-3),
}


#: every indicator pinned below, as (region, fam, eps, value): two more and
#: the probes at the values 1, 0.1 and -2.5
INDICATOR_PINS = {
    "halfplane": (HalfPlaneRegion((1, 2), F(2, 3)), SQUARE, 1e-3, 1.0),
    "intersection": (RegionIntersection(HalfPlaneRegion((1, -2), F(1, 5)), HalfPlaneRegion((-1, -1), F(-3, 7))),
                     SQUARE, 3e-3, 1.0),
    **{f"{name}@{value:g}": (*INDICATOR_PROBES[name], value)
       for name in INDICATOR_PROBES for value in (1.0, 0.1, -2.5)},
}


def _indicator(name):
    region, fam, eps, value = INDICATOR_PINS[name]
    return integrate(IndicatorFn(region, value=value), fam, eps)


def _pin(report):
    trace = repr(tuple((n, gap.hex()) for n, gap in report.trace))
    return (report.lower.hex(), report.upper.hex(), report.trace[-1][0], report.status == INTEGRABLE,
            hashlib.sha256(trace.encode()).hexdigest())


class TestScalarRefinementPins:
    """``float.hex`` of lower and upper, the cell count, convergence and a
    digest of the trace, pinned from the heap that kept a table of cells and
    the float-filtered half-plane verdict.  The indicator pins are from
    the exact Jordan bracket, rounded outward, of the same cells."""

    @pytest.mark.parametrize("name,run,pinned", [
        ("halfplane", lambda: _indicator("halfplane"),
         ("0x1.c4da000000000p-4", "0x1.c8f2000000000p-4", 2698, True,
          "be5987ac86124d49ad8bd73f4bbb66ea8dbae575d9aba7ebec59866821fdaeed")),
        ("intersection", lambda: _indicator("intersection"),
         ("0x1.82d4000000000p-1", "0x1.845d000000000p-1", 2510, True,
          "6e627150684d2692fe1b97fe23d231d75ba6c71f211b5d92b29f1f1020f148a7")),
        ("step", lambda: integrate(PiecewiseConstantFn(
            [(make_box([[0, F(1, 3)], [F(1, 5), F(2, 3)]]), 2.0),
             (make_box([[F(1, 2), F(6, 7)], [0, F(3, 4)]]), -1.5)], default=0.25), SQUARE, 1e-2),
         ("0x1.8490000000000p-5", "0x1.d660000000000p-5", 1519, True,
          "87fa4819590171f7dfd5e7c6ba404dfcaca75c88c3ddc5c9e7001b16501517f7")),
        ("restricted", lambda: integrate_over(PolynomialFn({(1, 0): 1.0, (0, 2): -0.5}),
                                              HalfPlaneRegion((2, 1), F(4, 3)), SQUARE, 3e-3),
         ("0x1.81fe828250000p-5", "0x1.9a91ceaa14000p-5", 20316, True,
          "8bc4c0d9f5abd8f8d6e65be4451528f749a513bb0dfe58dc0b9a982d7b233177")),
        ("grid", lambda: integrate(PolynomialFn({(2, 1): 1.0, (0, 3): -1.0}), SQUARE, 1e-2, strategy="grid"),
         ("-0x1.63feac0000000p-4", "-0x1.46a9540000000p-4", 65536, True,
          "31bfde7f2771a258eb57d2f161509a6297d323372b48308258ee2d04c64cd382")),
        # off the dyadic grid: the lattice cells are exact where float
        # midpoints and cell bounds would round (see test_offgrid_contains)
        ("offgrid", lambda: _indicator("offgrid@-2.5"),
         ("-0x1.12cb64bcf3cf4p+2", "-0x1.12bb02b0c30c3p+2", 10200, True,
          "ee917548022c3a81271ecd2728b5ae7d92a9ce160cdbcfb3b0cb88eac2aae95d")),
        ("offgrid-grid", lambda: integrate(PolynomialFn({(1, 1): 1.0, (0, 2): 0.5}), OFFGRID, 4e-2,
                                           strategy="grid"),
         ("0x1.36368d24e7345p+0", "0x1.401210168e789p+0", 16384, True,
          "9c38404c83b89a53fb0e1a2dc669ce49d7f5c732417d6493d0e06c5f80bfafe1")),
        # the indicator probes at the values 1, 0.1 and -2.5 (the offgrid
        # -2.5 case is "offgrid" above)
        ("box-indicator-1@1", lambda: _indicator("box-indicator-1@1"),
         ("0x1.1180000000000p-1", "0x1.1323000000000p-1", 1649, True,
          "7624bb353ea78834731e6e5733420907e49e94baf999c18bc7b8d43f1880d62c")),
        ("box-indicator-1@0.1", lambda: _indicator("box-indicator-1@0.1"),
         ("0x1.acccccccccccdp-5", "0x1.c6ccccccccccep-5", 156, True,
          "e821fd7471e87c8cff00a0ac07770bb3461f0b429449c4a873bd8e266d74ca35")),
        ("box-indicator-1@-2.5", lambda: _indicator("box-indicator-1@-2.5"),
         ("-0x1.5760d80000000p+0", "-0x1.568f280000000p+0", 4162, True,
          "a86315095b3459d86e25d8d82377aa17a37a50c1027c5b1023f55415593a4161")),
        ("box-indicator-2@1", lambda: _indicator("box-indicator-2@1"),
         ("0x1.8345c80000000p-1", "0x1.83c8d80000000p-1", 7952, True,
          "08b1d806e6e6bbf79ff586574589b4b66e4e60cefc462c3e42aa52fe9c06ff15")),
        ("box-indicator-2@0.1", lambda: _indicator("box-indicator-2@0.1"),
         ("0x1.343b333333333p-4", "0x1.3853333333334p-4", 807, True,
          "0f168609446e67ad003f5bc07ac0bcb8c9e2cb266c8055a868e692b9ece68126")),
        ("box-indicator-2@-2.5", lambda: _indicator("box-indicator-2@-2.5"),
         ("-0x1.e48a1c0000000p+0", "-0x1.e44893c000000p+0", 18445, True,
          "78d2e6f821e2ae6073bc64293767e6789db241a46012c8ed1d15e372374beb11")),
        ("offgrid@1", lambda: _indicator("offgrid@1"),
         ("0x1.b77e4c30c30c3p+0", "0x1.b7bfd55555556p+0", 4014, True,
          "29572d171b98addbe7fe35e20df6a1fcf49ec399169b3e165e41706f351ff3a3")),
        ("offgrid@0.1", lambda: _indicator("offgrid@0.1"),
         ("0x1.5eadb6db6db6ep-3", "0x1.60b9e79e79e7bp-3", 386, True,
          "b01e3c1d67ad6d8b8c9201a52de3c5c9931f96d64340639c1b61017e90d39a40")),
    ])
    def test_pinned(self, name, run, pinned):
        assert _pin(run()) == pinned, name

    def test_offgrid_contains(self):
        # -2.5 times the area of {-3x + 2y <= -1/2} in [1/3, 2] x [-1/7, 1]
        report = integrate(IndicatorFn(HalfPlaneRegion((-3, 2), F(-1, 2)), value=-2.5), OFFGRID, 1e-3)
        assert F(report.lower) <= F(-2885, 672) <= F(report.upper)

    @pytest.mark.parametrize("name", sorted(INDICATOR_PINS))
    def test_indicator_contains_its_exact_bracket(self, name):
        region, fam, eps, value = INDICATOR_PINS[name]
        report = integrate(IndicatorFn(region, value), fam, eps)
        exact_eps = F(repr(eps))
        bracket = measure_bracket(region, fam, exact_eps / abs(F(value)), DEFAULT_BUDGET - 1)
        lo, hi = sorted((F(value) * bracket.inner, F(value) * bracket.outer))
        assert F(report.lower) <= lo <= hi <= F(report.upper)
        assert report.status == INTEGRABLE
        assert F(report.upper) - F(report.lower) < exact_eps

    @pytest.mark.parametrize("fn,region,eps,exact", [
        # x**2 * y over {y <= x} in the unit square, in 2,460 and 21,384 cells
        (PolynomialFn({(2, 1): 1.0}), HalfPlaneRegion((-1, 1), 0), 1e-2, F(1, 10)),
        (PolynomialFn({(2, 1): 1.0}), HalfPlaneRegion((-1, 1), 0), 3e-3, F(1, 10)),
    ])
    def test_restricted_contains_the_exact_value(self, fn, region, eps, exact):
        report = integrate_over(fn, region, SQUARE, eps)
        assert report.status == INTEGRABLE
        assert F(report.lower) <= exact <= F(report.upper)


def _cantor_poly(depth_budget, epsilon):
    return cantor_integrate(PolynomialFn([0.3, -0.7, 0.5]), depth_budget=depth_budget, epsilon=epsilon)


def _grid(fn, budget):
    return integrate(fn, OFFGRID, 1e-3, budget=budget, strategy="grid")


GRID_POLY = PolynomialFn({(1, 1): 1.0, (0, 2): 0.5})
GRID_HALFPLANE = IndicatorFn(HalfPlaneRegion((-3, 2), F(-1, 2)), value=-2.5)


class TestUniformRefinementPins:
    """The edges of uniform refinement: Cantor depth budgets of 0 and 1, an
    unconverged Cantor run, the oscillation-floor short cut, and grids of
    at most 1, 2 and 3 cells, in both cell forms.  Status, then ``_pin``."""

    @pytest.mark.parametrize("name,run,pinned", [
        ("cantor-depth-0", lambda: _cantor_poly(0, 1e-3),
         ("undecided", "-0x1.9999999999999p-2", "0x1.999999999999ap-1", 1, False,
          "1e6b0723521726af66a8694cf96956a1c590e0c7138884784ed872c7753161f0")),
        ("cantor-depth-0-constant", lambda: cantor_integrate(PolynomialFn([2.5]), depth_budget=0, epsilon=1e-3),
         ("integrable", "0x1.4000000000000p+1", "0x1.4000000000000p+1", 1, True,
          "3e89c952db363712305652b8a060d48cfef1ffe08b9c3f8661446eb346349e17")),
        ("cantor-depth-1", lambda: _cantor_poly(1, 1e-3),
         ("undecided", "-0x1.4ccccccccccccp-3", "0x1.c000000000000p-2", 2, False,
          "2c1b89964b97ac5be6c79fb789735f4b4195e1502e0809f662db4d99d1ed28f4")),
        ("cantor-unconverged", lambda: _cantor_poly(9, 1e-4),
         ("undecided", "0x1.d911666666666p-4", "0x1.e2ab000000000p-4", 512, False,
          "32ef740c8f0ee9b36ac50e5689216d1aa89f9886536b5cc533f3c279cf086304")),
        ("cantor-floor", lambda: cantor_integrate(IndicatorFn(DenseCodenseRegion(), value=-2.5), epsilon=1e-3),
         ("not_integrable", "-0x1.4000000000000p+1", "0x0.0p+0", 1, False,
          "1370b1e0f63de6bf482d95148feb0790f9f9a7a424f22486138a0b411c35a40d")),
        ("box-floor", lambda: integrate(IndicatorFn(DenseCodenseRegion(), value=-2.5), OFFGRID, 1e-3),
         ("not_integrable", "-0x1.30c30c30c30c4p+2", "0x0.0p+0", 1, False,
          "0c075a7f1dcc92e4316c1214d900f5da1ead2bf19b1cb32c13b6fb4c50984b6c")),
        ("box-floor-grid", lambda: _grid(IndicatorFn(DenseCodenseRegion(), value=3.0), DEFAULT_BUDGET),
         ("not_integrable", "0x0.0p+0", "0x1.6db6db6db6db7p+2", 1, False,
          "60a7cfcb28d82f2c0bcf6d110a24a26226f9062e7ff18b98238b9ca5d5fb3937")),
        ("numpy-grid-1", lambda: _grid(GRID_POLY, 1),
         ("undecided", "-0x1.16a3b35fc845ap-1", "0x1.30c30c30c30c3p+2", 1, False,
          "44a4097908cf3c8c08a8e1bc5a7e52c1eca25c1214952e38895d95b2240daab6")),
        ("numpy-grid-2", lambda: _grid(GRID_POLY, 2),
         ("undecided", "-0x1.b92ddc02526e4p-2", "0x1.fbefbefbefbf0p+1", 2, False,
          "cfa653ed979d509c1ac1eab22cf52bbd3861374860cb6a5fec461125b2a87efb")),
        ("numpy-grid-3", lambda: _grid(GRID_POLY, 3),
         ("undecided", "-0x1.b92ddc02526e4p-2", "0x1.fbefbefbefbf0p+1", 2, False,
          "cfa653ed979d509c1ac1eab22cf52bbd3861374860cb6a5fec461125b2a87efb")),
        ("scalar-grid-1", lambda: _grid(GRID_HALFPLANE, 1),
         ("undecided", "-0x1.30c30c30c30c3p+2", "0x0.0p+0", 1, False,
          "0c075a7f1dcc92e4316c1214d900f5da1ead2bf19b1cb32c13b6fb4c50984b6c")),
        ("scalar-grid-2", lambda: _grid(GRID_HALFPLANE, 2),
         ("undecided", "-0x1.30c30c30c30c3p+2", "-0x1.30c30c30c30c2p+1", 2, False,
          "a4306dce7fa675231beb0c42b3fafac41c5fb861ae355277af450b1f56a4b76d")),
        ("scalar-grid-3", lambda: _grid(GRID_HALFPLANE, 3),
         ("undecided", "-0x1.30c30c30c30c3p+2", "-0x1.30c30c30c30c2p+1", 2, False,
          "a4306dce7fa675231beb0c42b3fafac41c5fb861ae355277af450b1f56a4b76d")),
    ])
    def test_pinned(self, name, run, pinned):
        report = run()
        assert (report.status, *_pin(report)) == pinned, name


class TestBoxSums:
    def test_identity_on_two_halves(self):
        # f(x) = x over [0,1) split in half: upper 3/4, lower 1/4
        from famkit.integrate import box_infsum, box_supsum

        cells = [make_box([[0, F(1, 2)]]), make_box([[F(1, 2), 1]])]
        fn = PolynomialFn([0, 1])
        assert box_supsum(fn, cells, UNIT) == pytest.approx(0.75)
        assert box_infsum(fn, cells, UNIT) == pytest.approx(0.25)

    def test_missing_oracle_rejected(self):
        from famkit.integrate import box_supsum

        with pytest.raises(InputError):
            box_supsum(lambda p: p[0], [make_box([[0, 1]])], UNIT)
        with pytest.raises(InputError):
            integrate(lambda p: p[0], UNIT, epsilon=1e-3)


# ends 1e-17 short of 1, closer than any float below 1, so every float
# cell [x, 1.0] with x < 1 meets both the box and its complement
SLIVER = make_box([[0, F(99999999999999999, 10 ** 17)]])


class TestBoxElemOnFloatCells:
    def test_float_cell_over_the_end_straddles(self):
        assert BoxElem([SLIVER]).classify(((0.5, 1.0),)) == STRADDLE

    def test_step_function_keeps_its_default(self):
        # the integral is 1 * (1 - 1e-17) + 1e17 * 1e-17, about 2
        report = integrate(PiecewiseConstantFn([(SLIVER, 1.0)], default=1e17), UNIT, 1e-2, budget=64)
        assert report.lower <= 2 <= report.upper
        assert report.status == "undecided"

    def test_indicator_of_the_complement_keeps_zero(self):
        # the integral is 1e17 * 1e-17 = 1
        report = integrate(IndicatorFn(RegionComplement(BoxElem([SLIVER])), value=1e17), UNIT, 1e-2, budget=64)
        assert report.lower <= 1 <= report.upper
        assert report.status == "undecided"


class TestNanGap:
    """A NaN gap never falls below epsilon and never clears, so the run
    stops at once with ``InputError``; an infinite gap may still clear."""

    @pytest.mark.parametrize("run", [
        # this used to split one cell per round, for 114 s
        lambda: integrate(PolynomialFn([0, 1e308, 1e308]), VolumeFam([[1, 1]]), 1e-3, budget=100_000),
        # these used to run the whole budget, their gap NaN from the second
        # round on
        lambda: integrate(PolynomialFn([0, 1e308, 1e308]), VolumeFam([[0, 10]]), 1e-3),
        lambda: integrate(PolynomialFn([0, 1e308, 1e308]), VolumeFam([[0, 10]]), 1e-3, strategy="grid"),
        # and this every Cantor depth, for 1 s
        lambda: cantor_integrate(PolynomialFn([1e308, 1e308]), epsilon=1e-6),
    ], ids=["zero-width", "adaptive", "grid", "cantor"])
    def test_raises_at_once(self, run):
        started = time.perf_counter()
        with pytest.raises(InputError, match="Darboux gap is NaN"):
            run()
        assert time.perf_counter() - started < 1.0

    def test_infinite_gap_still_converges(self):
        # the gap is inf in the first round; the running gap counts the
        # infinite root apart from its sum, so splitting it subtracts no
        # inf, and at two cells the trace reads the finite halves' sum
        report = integrate(PolynomialFn([0, 1e308, -1e308]), UNIT, 1e306)
        assert report.trace[1] == (2, 1e308)
        assert (report.status, *_pin(report)) == (
            "integrable", "0x1.705a74cf65d95p+1020", "0x1.871cf38576ec1p+1020", 205, True,
            "73617cb1095c6098a9d9a000994c47bcff10428bd54b715f36fd90b0528c2b53")


class TestInfiniteGap:
    """A cell that contributes inf leaves the gap infinite until it splits;
    splitting it must not turn the heap's running gap into NaN."""

    @pytest.mark.parametrize("value, box, second", [
        # only the root contributes inf: the trace at two cells was NaN
        (0.8e308, [[0, 2]], 1.6e308),
        # the root and its left half contribute inf: that trace entry was NaN
        (0.5e308, [[0, 4]], math.inf),
    ])
    @pytest.mark.parametrize("budget", [1_000, 20_000, 200_000])
    def test_heap_converges_after_infinite_cells(self, value, box, second, budget):
        # the heap's running gap used to become inf - inf = NaN, so it split
        # until the budget and reported undecided
        fn = parse_fn({"piecewise": {"pieces": [{"box": [[0, "1/3"]], "value": -value}],
                                     "default": value}}, 1)
        report = integrate(fn, VolumeFam(box), 1e293, budget=budget)
        assert report.status == "integrable"
        assert report.trace[-1][0] == 53
        assert report.trace[:2] == ((1, math.inf), (2, second))


class _Linear:
    """``slope * x`` through its enclosure but not a ``PolynomialFn``, so
    that the scalar heap integrates it."""

    oscillation_floor = 0.0

    def __init__(self, slope):
        self.slope = slope

    def range_on(self, box):
        return poly_range(_plan([(1,)], [self.slope]), [float(box[0][0])], [float(box[0][1])])


def test_heap_running_sum_overflows_and_recovers():
    # the root's halves contribute 0.9e308 each: their running sum was inf
    # for good, and the heap reported undecided at the whole budget
    report = integrate(_Linear(0.9e308), VolumeFam([[-1, 1]]), 1e306, budget=20_000)
    assert (report.status, report.trace[-1][0]) == ("integrable", 404)
    # the sum is taken afresh at four cells, after the trace entry there
    assert [gap for _, gap in report.trace[:4]] == [math.inf] * 3 + [4.500000000000003e+307]


def test_batch_trace_of_a_gap_beyond_the_float_range():
    # the gap 0.9e308 + 0.9e308 at two cells made math.fsum raise
    # OverflowError out of integrate
    report = integrate(PolynomialFn([0, 0.9e308]), VolumeFam([[-1, 1]]), 1e306, budget=2)
    assert (report.status, report.trace[-1]) == ("undecided", (2, math.inf))


def _steps():
    # each half is a constant cell whose lower and upper terms are -inf or +inf
    return PiecewiseConstantFn([(make_box([[0, 2]]), -1e308), (make_box([[2, 4]]), 1e308)])


class TestOverflowingSums:
    """A final Darboux sum that leaves the float range raises ``InputError``:
    a sum of -inf and +inf terms, and finite terms whose exact sum
    overflows.  Finite terms whose partial sums overflow are summed
    exactly, and a refinement round may pass an infinite sum on."""

    @pytest.mark.parametrize("run", [
        # the cubic's two end cells give -inf and +inf terms
        lambda: integrate(PolynomialFn([0, 0, 0, -3]), VolumeFam([[-1e100, 7e99]]), 1e148, budget=3000),
        lambda: integrate(PolynomialFn([0, 0, 0, -3]), VolumeFam([[-1e100, 7e99]]), 1e148, budget=3000,
                          strategy="grid"),
        # four cells of lower term 1e308 each
        lambda: integrate(PolynomialFn([1e308, 1e292]), VolumeFam([[0, 4]]), 1e291),
        lambda: integrate(_steps(), VolumeFam([[0, 4]]), 1e-3),
        lambda: integrate(_steps(), VolumeFam([[0, 4]]), 1e-3, strategy="grid"),
    ], ids=["batch", "batch-grid", "batch-finite-terms", "scalar-heap", "scalar-grid"])
    def test_raises_input_error(self, run):
        with pytest.raises(InputError, match="the lower Darboux sum overflows"):
            run()


    def test_partial_sums_that_overflow_are_summed_exactly(self):
        # math.fsum raises on the partial sum 2e308 of the first two terms
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        assert darboux_sum([1e308, 1e308, -1e308], "lower") == 1e308
        assert darboux_sum([1e308, 1e308, -1e292], "upper") == math.inf
        assert darboux_sum([-1e308, -1e308, 5e-324], "upper") == -math.inf
        with pytest.raises(InputError, match="the lower Darboux sum overflows"):
            darboux_sum([math.inf, -math.inf], "lower")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 4), st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 1e308, -1e308])))))
    def test_exact_sum_is_fsum(self, pairs):
        terms = [x for n, x in pairs for _ in range(n)]
        try:
            expected = math.fsum(terms)
        except OverflowError:
            exact = sum(map(F, terms), F(0))
            try:
                expected = float(exact)
            except OverflowError:
                expected = math.inf if exact > 0 else -math.inf
        # repr tells the signs of zeros apart
        assert repr(exact_sum(terms)) == repr(expected)

    def test_grid_round_passes_an_overflowing_sum_on(self):
        # two cells of upper term 1.5e308 each: the round's upper sum is
        # beyond the float range, but the next round's is 1.5e308
        fn = parse_fn({"piecewise": {"pieces": [{"box": [[0, 1]], "value": 1e308},
                                                {"box": [[1, 2]], "value": 1e308}], "default": -1e308}}, 1)
        fam = VolumeFam([[0, 3]])
        adaptive = integrate(fn, fam, 1e-3)
        assert (adaptive.status, adaptive.value) == ("integrable", 1e308)
        grid = integrate(fn, fam, 1e-3, budget=5000, strategy="grid")
        assert grid.status == "undecided"
        assert grid.trace[:3] == ((1, math.inf), (2, math.inf), (4, 1.5e308))
        assert grid.lower <= adaptive.value <= grid.upper
        coarse = integrate(fn, fam, 1e305, strategy="grid")
        assert coarse.status == "integrable"
        assert abs(coarse.value - adaptive.value) <= 1e305

    def test_grid_on_a_box_wider_than_the_float_range(self):
        # the root's float volume is inf, and its lower term 0 * inf was a
        # NaN gap: the grid raised "the Darboux gap is NaN at 1 cells"
        fn = parse_fn({"piecewise": {"pieces": [{"box": [[-1e308, 0]], "value": 1}]}}, 1)
        fam = VolumeFam(make_box([[-1e308, 1e308]]))
        adaptive = integrate(fn, fam, 1e305)
        grid = integrate(fn, fam, 1e305, strategy="grid")
        assert (adaptive.status, grid.status) == ("integrable", "integrable")
        assert grid.trace[0] == (1, math.inf)
        assert grid.lower <= adaptive.upper and adaptive.lower <= grid.upper

    def test_box_sums_of_mixed_infinite_terms(self):
        # these used to raise ValueError('-inf + inf in fsum') from math.fsum
        from famkit.integrate import box_infsum, box_supsum

        cells = [make_box([[0, 2]]), make_box([[2, 4]])]
        for sums in (box_infsum, box_supsum):
            with pytest.raises(InputError, match="Darboux sum overflows"):
                sums(_steps(), cells, VolumeFam([[0, 4]]))

    def test_box_sum_of_overflowing_zero_terms(self):
        # x and x^2 have zero coefficients; x^2 overflows on the cell, and
        # 0 * inf made the enclosure NaN, so this raised "overflows"
        from famkit.integrate import box_supsum

        assert box_supsum(PolynomialFn([1, 0, 0]), [make_box([[10 ** 200, 2 * 10 ** 200]])], None) == 1e200

    @pytest.mark.parametrize("fn", [
        IndicatorFn(HalfPlaneRegion((-1, 0), 0)),
        PolynomialFn({(1, 0): 1.0, (0, 0): 1.0}),
    ], ids=["indicator", "polynomial"])
    def test_box_sums_of_a_cell_beyond_the_float_range(self, fn):
        # the cell's volume, 2**2000, is no float: these raised OverflowError
        from famkit.integrate import box_infsum, box_supsum

        cells = [make_box([[0, 2 ** 1000], [0, 2 ** 1000]])]
        fam = VolumeFam(cells[0])
        with pytest.raises(InputError, match="the lower Darboux sum overflows the float range"):
            box_infsum(fn, cells, fam)
        with pytest.raises(InputError, match="the upper Darboux sum overflows the float range"):
            box_supsum(fn, cells, fam)

    def test_zero_range_ends_on_a_cell_beyond_the_float_range(self):
        # the cell lies outside {x <= -1}: both range ends are 0, and 0 times
        # the float volume inf made both sums NaN and raise InputError
        from famkit.integrate import box_infsum, box_supsum

        cells = [make_box([[0, 2 ** 1000], [0, 2 ** 1000]])]
        fam = VolumeFam(cells[0])
        fn = IndicatorFn(HalfPlaneRegion((1, 0), -1))
        assert box_infsum(fn, cells, fam) == 0.0
        assert box_supsum(fn, cells, fam) == 0.0

    def test_indicator_on_a_box_wider_than_the_float_range(self):
        # the value times the exact bracket reads no float corner: the
        # integral raised OverflowError converting the corner 10**400
        fam = VolumeFam([[0, 10 ** 400]])
        report = integrate(IndicatorFn(HalfPlaneRegion((1,), F(1, 3))), fam, 1e-3)
        assert report.status == "integrable"
        assert report.lower <= F(1, 3) <= report.upper
        assert report.trace[-1][0] == 1340

    def test_infinite_final_sums_are_rejected(self):
        # the lower sums of the four end cells are 1e308 each: the final
        # lower sum is +inf, which used to be reported with status integrable
        with pytest.raises(InputError, match="the lower Darboux sum overflows"):
            integrate(PolynomialFn([1e308, 1e292]), VolumeFam([[0, 4]]), 1e293)
        # one cylinder of range [0, 1.7e308] beside one of 1.7e308: the
        # upper sum at depth 1 is +inf, which used to be reported as undecided
        step = PiecewiseConstantFn([(make_box([[0, F(2, 3)]]), 1.7e308)])
        with pytest.raises(InputError, match="the upper Darboux sum overflows"):
            cantor_integrate(step, depth_budget=1, epsilon=1e-3)

    @pytest.mark.parametrize("box", [
        # the measure, 2**1200, is no float: the floor test raised OverflowError
        [[0, 2 ** 1000], [0, 2 ** 200]],
        # the measure rounds down to the largest float, the upper end steps
        # up to inf, and Fraction(inf) raised OverflowError
        [[0, F(sys.float_info.max) + 2 ** 969]],
    ], ids=["no-float", "largest-float"])
    def test_oscillation_floor_beyond_the_float_range(self, box):
        fam = VolumeFam(box)
        with pytest.raises(InputError, match="the upper Darboux sum overflows"):
            integrate(IndicatorFn(DenseCodenseRegion()), fam, 1e-3)
        # a small enough value brings the upper end back inside
        report = integrate(IndicatorFn(DenseCodenseRegion(), value=2.0 ** -200), fam, 1e-3)
        assert report.status == "not_integrable"
        assert report.lower == 0.0 and F(report.upper) >= fam.total / 2 ** 200


class TestReportedValue:
    """The value of a converged report is the midpoint of its sums, also
    where their sum overflows, and bit for bit ``0.5 * (lower + upper)``
    wherever that is finite."""

    BACKENDS = {
        "box": lambda v: integrate(PiecewiseConstantFn([], default=v), UNIT, 1e300),
        "cantor": lambda v: cantor_integrate(
            PiecewiseConstantFn([(make_box([[0, F(1, 3)]]), v)], default=v), epsilon=1e300),
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_value_of_huge_sums_is_finite(self, backend):
        # 0.5 * (lower + upper) was Infinity here
        report = self.BACKENDS[backend](1.7e308)
        assert (report.status, report.lower, report.upper, report.value) == (
            "integrable", 1.7e308, 1.7e308, 1.7e308)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("v", [5e-324, -5e-324, 0.1, -3.0, 8.9e307])
    def test_finite_values_stay_bit_for_bit(self, backend, v):
        # 0.5 * lower + 0.5 * upper alone would give 0.0 for the subnormals
        report = self.BACKENDS[backend](v)
        assert report.value.hex() == (0.5 * (report.lower + report.upper)).hex() == v.hex()


class TestToleranceAndBudget:
    HALF = HalfPlaneRegion((1, 2), F(2, 3))

    @pytest.mark.parametrize("eps", [0, -1, "0", "-1/3", 0.0, -1e-3])
    @pytest.mark.parametrize("call", [
        lambda r, eps: measure_bracket(r, SQUARE, eps, budget=200),
        lambda r, eps: is_jordan(r, SQUARE, eps, budget=200),
        lambda r, eps: inner_measure(r, SQUARE, eps, budget=200),
        lambda r, eps: outer_measure(r, SQUARE, eps, budget=200),
        lambda r, eps: integrate_simple([(r, 1)], SQUARE, eps, budget=200),
    ], ids=["measure_bracket", "is_jordan", "inner_measure", "outer_measure", "integrate_simple"])
    def test_exact_tolerance_must_be_positive(self, call, eps):
        with pytest.raises(InputError, match="epsilon must be positive"):
            call(self.HALF, eps)

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("strategy", ["adaptive", "grid"])
    def test_integral_budget_below_one(self, budget, strategy):
        with pytest.raises(InputError, match="at least 1"):
            integrate(PolynomialFn([0, 0, 1]), UNIT, 1e-3, budget=budget, strategy=strategy)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_bracket_budget_below_one(self, budget):
        with pytest.raises(InputError, match="at least 1"):
            measure_bracket(HalfPlaneRegion((1, 1), 1), SQUARE, F(1, 64), budget=budget)

    @pytest.mark.parametrize("fn", [PolynomialFn([0, 1]), IndicatorFn(DenseCodenseRegion())],
                             ids=["poly", "dirichlet"])
    def test_unknown_strategy_rejected(self, fn):
        # the oscillation floor of the Dirichlet indicator decided before
        # the strategy was read, so it answered not_integrable
        with pytest.raises(InputError, match="unknown strategy 'bogus'"):
            integrate(fn, UNIT, 1e-3, strategy="bogus")


class TestBoxJordan:
    def test_box_is_jordan(self):
        e = BoxElem([make_box([[0, F(1, 2)], [0, F(1, 2)]])])
        report = is_jordan(e, SQUARE, F(1, 1000))
        assert report.jordan
        assert report.measure == F(1, 4)

    def test_triangle_half_area(self):
        report = is_jordan(triangle_under_diagonal(), SQUARE, F(1, 10000))
        assert report.jordan
        assert abs(report.measure - F(1, 2)) <= F(1, 10000)
        A, B = report.witness
        assert A.volume <= report.measure <= B.volume

    def test_dense_fixture_not_jordan(self):
        report = is_jordan(DenseCodenseRegion(), UNIT, F(1, 100))
        assert report.jordan is False
        assert report.bracket == (0, 1)

    def test_outer_inner_dense(self):
        assert outer_measure(DenseCodenseRegion(), UNIT) == 1
        assert inner_measure(DenseCodenseRegion(), UNIT) == 0

    def test_point_has_vanishing_outer(self):
        out = outer_measure(PointRegion([F(1, 3)]), UNIT, epsilon=F(1, 512))
        assert out < F(1, 512)
        assert inner_measure(PointRegion([F(1, 3)]), UNIT) == 0

    def test_closure_operations(self):
        tri = triangle_under_diagonal()
        half = HalfPlaneRegion((1, 0), F(1, 2))  # x <= 1/2
        for region in (
            RegionUnion(tri, half),
            RegionIntersection(tri, half),
            RegionComplement(tri),
        ):
            report = is_jordan(region, SQUARE, F(1, 500))
            assert report.jordan

    def test_additivity_on_disjoint_union(self):
        eps = F(1, 2000)
        left = HalfPlaneRegion((1, 0), F(1, 4))
        right = RegionIntersection(
            RegionComplement(HalfPlaneRegion((1, 0), F(1, 2))),
            HalfPlaneRegion((1, 0), F(3, 4)),
        )
        union = RegionUnion(left, right)
        m_left = is_jordan(left, SQUARE, eps).measure
        m_right = is_jordan(right, SQUARE, eps).measure
        m_union = is_jordan(union, SQUARE, eps).measure
        assert abs(m_union - (m_left + m_right)) <= 2 * eps


class TestIntegrateSimple:
    def test_single_box_cell(self):
        e = BoxElem([make_box([[0, F(1, 2)]])])
        report = integrate_simple([(e, 3)], UNIT, F(1, 1000))
        assert report.status == "integrable"
        assert report.value == F(3, 2)

    def test_two_triangles_tile_square(self):
        lower = triangle_under_diagonal()
        upper = RegionComplement(lower)
        report = integrate_simple([(lower, 1), (upper, 2)], SQUARE, F(1, 100))
        assert report.status == "integrable"
        assert abs(report.value - F(3, 2)) <= F(1, 100)

    def test_non_jordan_cell_distinct_constants(self):
        report = integrate_simple(
            [(DenseCodenseRegion(), 1), (BoxElem([make_box([[2, 3]])]), 2)],
            UNIT,
            F(1, 100),
        )
        assert report.status == "not_integrable"

    def test_overlap_rejected(self):
        a = BoxElem([make_box([[0, F(3, 4)]])])
        b = BoxElem([make_box([[F(1, 2), 1]])])
        with pytest.raises(InputError):
            integrate_simple([(a, 1), (b, 2)], UNIT, F(1, 100))

    def test_agrees_with_direct_integration(self):
        # the same simple function through the Jordan route and the
        # Darboux route lands on the same value
        cells = [
            (BoxElem([make_box([[0, F(1, 4)]])]), F(2)),
            (BoxElem([make_box([[F(1, 4), F(5, 8)]])]), F(-1)),
        ]
        simple_report = integrate_simple(cells, UNIT, F(1, 10000))
        fn = PiecewiseConstantFn(
            [(make_box([[0, F(1, 4)]]), 2.0), (make_box([[F(1, 4), F(5, 8)]]), -1.0)],
            default=0.0,
        )
        darboux_report = integrate(fn, UNIT, epsilon=1e-6)
        assert simple_report.status == darboux_report.status == "integrable"
        assert abs(float(simple_report.value) - darboux_report.value) <= 2e-6
        assert simple_report.value == F(2, 4) - F(3, 8)
