from fractions import Fraction as F

import pytest

from famkit.boxes import VolumeFam, make_box
from famkit.cantor import (
    CantorClopen,
    Cylinder,
    _depth_sums,
    cantor_integrate,
    clopen_measure,
    iota2_image,
    lebesgue_vitali_check,
    oscillation_cover,
)
from famkit.errors import InputError
from famkit.functions import DenseCodenseRegion, IndicatorFn, PiecewiseConstantFn, PolynomialFn
from famkit.integrate import integrate


class TestClopen:
    def test_whole_space(self):
        assert clopen_measure(Cylinder("")) == 1
        assert CantorClopen([""]).is_everything

    def test_single_cylinder(self):
        assert clopen_measure(Cylinder("0")) == F(1, 2)
        assert clopen_measure("0110") == F(1, 16)

    def test_sibling_merge(self):
        clopen = CantorClopen(["00", "01"])
        assert clopen.words == ("0",)
        assert clopen_measure(clopen) == F(1, 2)

    def test_cascading_merge(self):
        clopen = CantorClopen(["00", "01", "10", "11"])
        assert clopen.is_everything

    def test_prefix_absorbs(self):
        clopen = CantorClopen(["0", "010", "0111"])
        assert clopen.words == ("0",)

    def test_mixed_antichain(self):
        clopen = CantorClopen(["0", "10"])
        assert clopen.words == ("0", "10")
        assert clopen_measure(clopen) == F(3, 4)

    def test_bad_word(self):
        with pytest.raises(InputError):
            Cylinder("012")


class TestIota2:
    def test_empty_word(self):
        assert iota2_image("") == (0, 1)

    def test_one(self):
        assert iota2_image("1") == (F(1, 2), F(1))

    def test_zero_one(self):
        assert iota2_image("01") == (F(1, 4), F(1, 2))

    def test_lengths_match_measure(self):
        for w in ["", "0", "1", "00", "101", "0110"]:
            lo, hi = iota2_image(w)
            assert hi - lo == clopen_measure(w)


class TestCantorIntegrate:
    def test_constant(self):
        report = cantor_integrate(PolynomialFn([3.0]), epsilon=1e-9)
        assert report.status == "integrable"
        assert report.value == pytest.approx(3.0, abs=1e-9)

    def test_identity(self):
        report = cantor_integrate(PolynomialFn([0, 1]), epsilon=1e-4)
        assert report.status == "integrable"
        assert report.value == pytest.approx(0.5, abs=1e-4)

    def test_square(self):
        report = cantor_integrate(PolynomialFn([0, 0, 1]), epsilon=1e-4)
        assert report.status == "integrable"
        assert report.value == pytest.approx(1 / 3, abs=1e-4)

    def test_dirichlet(self):
        report = cantor_integrate(IndicatorFn(DenseCodenseRegion()), epsilon=1e-6)
        assert report.status == "not_integrable"
        assert report.upper - report.lower == pytest.approx(1.0)

    def test_agreement_with_box_backend(self):
        for fn in [PolynomialFn([0, 1]), PolynomialFn([1, -2, 3])]:
            c = cantor_integrate(fn, epsilon=1e-4)
            b = integrate(fn, VolumeFam([[0, 1]]), epsilon=1e-4)
            assert c.status == b.status == "integrable"
            assert abs(c.value - b.value) <= 2e-4


class TestOscillationCover:
    def test_continuous_cover_shrinks(self):
        fn = PolynomialFn([0, 1])
        measures = [oscillation_cover(fn, F(1, 8), d).measure for d in range(0, 8)]
        assert measures[0] == 1
        assert measures[-1] == 0
        assert all(a >= b for a, b in zip(measures, measures[1:]))

    def test_threshold_monotone(self):
        fn = PolynomialFn([0, 0, 1])
        at_depth = 5
        small = oscillation_cover(fn, F(1, 64), at_depth).measure
        large = oscillation_cover(fn, F(1, 4), at_depth).measure
        assert large <= small

    def test_dirichlet_full_cover(self):
        fn = IndicatorFn(DenseCodenseRegion())
        for depth in (0, 3, 6):
            assert oscillation_cover(fn, F(1, 2), depth).measure == 1

    def test_single_jump_cover_bound(self):
        step = PiecewiseConstantFn([(make_box([[0, F(1, 3)]]), 1.0)], default=0.0)
        for depth in (2, 4, 6):
            measure = oscillation_cover(step, F(1, 2), depth).measure
            assert measure <= F(2, 2 ** depth)


class TestCylinderImages:
    """Depth sums and covers ask the oracle on each cylinder's image, in word order."""

    FUNCTIONS = [
        PolynomialFn([0, 0, 1]),
        PolynomialFn([1, -2, 3]),
        PiecewiseConstantFn([(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(3, 4)]]), -2.0)],
                            default=0.25),
    ]

    @staticmethod
    def words(depth):
        return [format(k, f"0{depth}b") if depth else "" for k in range(2 ** depth)]

    @pytest.mark.parametrize("g", FUNCTIONS)
    @pytest.mark.parametrize("depth", [0, 1, 5, 9])
    def test_depth_sums_match_the_word_images(self, g, depth):
        lower = upper = 0.0
        for w in self.words(depth):
            rlo, rhi = g.range_on((iota2_image(w),))
            lower += rlo
            upper += rhi
        scale = 0.5 ** depth
        got = _depth_sums(g, depth)
        assert [x.hex() for x in got] == [(lower * scale).hex(), (upper * scale).hex()]

    @pytest.mark.parametrize("g", FUNCTIONS)
    @pytest.mark.parametrize("depth", [0, 3, 8])
    def test_covers_match_the_word_images(self, g, depth):
        covered = []
        for w in self.words(depth):
            rlo, rhi = g.range_on((iota2_image(w),))
            if rhi - rlo >= 0.25:
                covered.append(w)
        assert oscillation_cover(g, F(1, 4), depth).cover == CantorClopen(covered)


class TestLebesgueVitali:
    def test_polynomial_integrable(self):
        report = lebesgue_vitali_check(PolynomialFn([0, 0, 1]), epsilon=1e-2)
        assert report.verdict == "integrable"

    def test_finite_step_integrable(self):
        step = PiecewiseConstantFn(
            [(make_box([[0, F(1, 4)]]), 2.0), (make_box([[F(1, 4), F(2, 3)]]), -1.0)],
            default=0.5,
        )
        report = lebesgue_vitali_check(step, epsilon=1e-2)
        assert report.verdict == "integrable"

    def test_dirichlet_not_integrable(self):
        report = lebesgue_vitali_check(IndicatorFn(DenseCodenseRegion()), epsilon=1e-2)
        assert report.verdict == "not_integrable"

    def test_cross_validation_with_gap(self):
        for fn, expected in [
            (PolynomialFn([0, 1]), "integrable"),
            (IndicatorFn(DenseCodenseRegion()), "not_integrable"),
        ]:
            lv = lebesgue_vitali_check(fn, epsilon=1e-2)
            gap_report = cantor_integrate(fn, epsilon=1e-2)
            assert lv.verdict == gap_report.status == expected


class TestConvergentSequenceFixture:
    """Finite truncations of the convergent-sequence space: clopens are the
    finite sets of sequence points and their complements; the 0/1 fam sits
    at the limit."""

    def _fixture(self, m, n):
        from famkit.boolalg import Algebra, GroundSet, SetElem
        from famkit.fam import Fam

        g = GroundSet.of_size(n + 1)
        atoms = [SetElem.singleton(g, k) for k in range(m)]
        atoms.append(SetElem.from_indices(g, range(m, n + 1)))
        algebra = Algebra(g, atoms)
        weights = {atoms[-1]: F(1)}
        return g, Fam(algebra, weights)

    def test_bracket_reproduces_inner0_outer1(self):
        from famkit.boolalg import SetElem
        from famkit.integrate import inner_measure, outer_measure

        g, fam = self._fixture(m=4, n=9)
        sequence_points = SetElem.from_indices(g, range(9))
        assert inner_measure(sequence_points, fam) == 0
        assert outer_measure(sequence_points, fam) == 1

    def test_identity_gap_shrinks_with_truncation(self):
        from famkit.integrate import integrate

        for m, n in [(2, 5), (4, 9), (8, 17)]:
            g, fam = self._fixture(m, n)
            # x_k = 1 - 2^-k converging to 1
            table = [F(2 ** k - 1, 2 ** k) for k in range(n)] + [F(1)]
            report = integrate(table, fam)
            assert report.status == "not_integrable"
            assert report.gap == 1 - table[m]
        assert report.gap == F(1, 2 ** 8)
