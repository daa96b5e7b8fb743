import math
import tracemalloc
from fractions import Fraction as F
from functools import reduce
from itertools import islice, repeat
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famkit import cantor
from famkit._refine_py import poly_range, refine_uniform
from famkit.boxes import IN, OUT, BoxElem, VolumeFam, make_box
from famkit.cantor import (
    BLOCK,
    DEFAULT_DEPTH_BUDGET,
    MAX_DEPTH,
    UNIT,
    CantorClopen,
    Cylinder,
    _depth_sums,
    _fold,
    _run_depths,
    cantor_integrate,
    clopen_measure,
    iota2_image,
    lebesgue_vitali_check,
    oscillation_cover,
)
from famkit.errors import CapExceededError, InputError
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
)
from famkit.integrate import integrate
from famkit.lattice import DyadicLattice, lattice_classifier
from genutil import assert_matches_per_term

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def runs_at(g, depth):
    """The runs of ``g`` at depth ``depth``, from a sweep of its own."""
    return next(islice(_run_depths(g), depth, None))


def cylinder_ranges(g, depth):
    """``g``'s range on each depth-``depth`` cylinder image, left to right:
    the runs at that depth, one entry per cylinder."""
    return [(lo, hi) for count, lo, hi in runs_at(g, depth) for _ in range(count)]


#: The three Cantor entry points, each on an integrand ``g``.
CANTOR_CALLS = pytest.mark.parametrize("call", [
    lambda g: cantor_integrate(g, epsilon=1e-2),
    lambda g: lebesgue_vitali_check(g),
    lambda g: oscillation_cover(g, F(1, 4), 3),
], ids=["integrate", "vitali", "cover"])


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

    def test_overlapping_pieces_keep_the_default(self):
        half = make_box([[0, F(1, 2)]])
        report = cantor_integrate(PiecewiseConstantFn([(half, 1.0), (half, 1.0)], default=5.0), epsilon=1e-3)
        assert report.status == "integrable"
        assert report.value == pytest.approx(3.0, abs=1e-3)

    def test_overlap_takes_the_first_piece(self):
        # the second piece's 2 used to count on [1/4, 1/2), where the first
        # piece's 1 holds, and the gap stalled at 0.25 down to 2**20 cylinders
        fn = PiecewiseConstantFn([(make_box([[0, F(1, 2)]]), 1.0), (make_box([[F(1, 4), F(3, 4)]]), 2.0)])
        report = cantor_integrate(fn, epsilon=1e-3)
        assert (report.status, report.lower, report.upper) == ("integrable", 1.0, 1.0)

    def test_dirichlet(self):
        report = cantor_integrate(IndicatorFn(DenseCodenseRegion()), epsilon=1e-6)
        assert report.status == "not_integrable"
        assert report.upper - report.lower == pytest.approx(1.0)

    def test_pinned_square(self):
        # x**2 at 1e-4 stops at depth 14, the gap halving exactly each time
        report = cantor_integrate(PolynomialFn([0, 0, 1]), epsilon=1e-4)
        assert (report.lower.hex(), report.upper.hex()) == ("0x1.554d556000000p-2", "0x1.555d556000000p-2")
        assert [(n, w.hex()) for n, w in report.trace] == [(2 ** d, (0.5 ** d).hex()) for d in range(15)]

    def test_pinned_cubic(self):
        report = cantor_integrate(PolynomialFn([0.3, -0.7, 0.5, -0.1]), epsilon=1e-4)
        assert (report.lower.hex(), report.upper.hex()) == ("0x1.774dddecccea5p-4", "0x1.77a11120001d9p-4")
        assert [w.hex() for _, w in report.trace[-3:]] == [
            "0x1.4cccccccccd00p-12", "0x1.4cccccccccc00p-13", "0x1.4ccccccccd000p-14"]

    ONE_SWEEP = {
        "step": PiecewiseConstantFn(
            [(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(5, 7)]]), 3.0)], default=-1.0
        ),
        # x >= 2/3, whose integral at 3e-6 reaches depth 19
        "indicator": IndicatorFn(HalfPlaneRegion([-1], F(-2, 3))),
        # dense-codense on [0, 1/3], where every cell straddles at every depth
        "dense": IndicatorFn(RegionIntersection(DenseCodenseRegion(), BoxElem([[[0, F(1, 3)]]]))),
        # asked on each image's box
        "lipschitz": LipschitzFn(lambda p: abs(p[0] - 0.3), 1.0),
        "x2": PolynomialFn([0, 0, 1]),
    }

    @pytest.mark.parametrize("name,eps,depth_budget", [
        *((name, eps, DEFAULT_DEPTH_BUDGET)
          for name in ("step", "indicator") for eps in (1e-2, 2.93e-3, 1e-4, 3e-6)),
        ("step", 3e-6, 10), ("indicator", 1e-5, 0),
        ("dense", 1e-3, 12), ("dense", 0.5, DEFAULT_DEPTH_BUDGET),
        ("lipschitz", 1e-2, DEFAULT_DEPTH_BUDGET), ("lipschitz", 1e-3, 6),
        ("x2", 1e-2, DEFAULT_DEPTH_BUDGET), ("x2", 1e-4, DEFAULT_DEPTH_BUDGET), ("x2", 1e-6, 12),
    ])
    def test_one_sweep_matches_a_sweep_per_depth(self, name, eps, depth_budget):
        # the reference restarts the sweep from the root at every depth
        g = self.ONE_SWEEP[name]
        report = cantor_integrate(g, depth_budget=depth_budget, epsilon=eps)
        lower, upper, _, converged, trace = refine_uniform(
            lambda depth: _depth_sums(g, runs_at(g, depth), depth), lambda depth: depth + 1, 0, eps, 2 ** depth_budget)
        assert (report.lower.hex(), report.upper.hex()) == (lower.hex(), upper.hex())
        assert [(n, w.hex()) for n, w in report.trace] == [(n, w.hex()) for n, w in trace]
        assert (report.status == "integrable") == converged

    def test_an_integral_descends_once(self, monkeypatch):
        partitions = cantor._lattice_partitions
        calls = 0

        def counted(regions):
            nonlocal calls
            calls += 1
            return partitions(regions)

        monkeypatch.setattr(cantor, "_lattice_partitions", counted)
        report = cantor_integrate(self.ONE_SWEEP["step"], epsilon=3e-6)
        # one descent serves every depth, where a restart at each took 21
        assert (calls, len(report.trace)) == (1, DEFAULT_DEPTH_BUDGET + 1)

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
        got = _depth_sums(g, runs_at(g, depth), depth)
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


# cut points: dyadic and not, inside [0, 1], on its ends and outside it
CUTS = st.sampled_from([F(-1, 2), F(0), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(5, 8), F(2, 3), F(1), F(3, 2)])
VALUES = st.sampled_from([1.0, -2.0, 0.5, 3.0, 0.0, -0.0])


@st.composite
def intervals(draw):
    a, b = draw(CUTS), draw(CUTS)
    return make_box([[min(a, b), max(a, b)]])


HALFPLANES = st.builds(
    HalfPlaneRegion,
    st.sampled_from([[1], [-1], [2], [F(-1, 3)]]),
    st.builds(F, st.integers(-3, 9), st.sampled_from([1, 2, 3, 4, 7, 8, 1024])),
)
REGIONS = st.recursive(
    HALFPLANES | st.lists(intervals(), min_size=1, max_size=3).map(BoxElem),
    lambda parts: (
        parts.map(RegionComplement)
        | st.lists(parts, min_size=2, max_size=3).map(lambda ps: RegionUnion(*ps))
        | st.lists(parts, min_size=2, max_size=3).map(lambda ps: RegionIntersection(*ps))
    ),
    max_leaves=4,
)
ORACLES = {
    "poly": st.lists(st.floats(-4, 4), min_size=1, max_size=5).map(PolynomialFn),
    "indicator": st.builds(IndicatorFn, REGIONS, VALUES),
    "piecewise": st.builds(
        PiecewiseConstantFn, st.lists(st.tuples(intervals(), VALUES), max_size=4), VALUES
    ),
    # no lattice path: asked on each image's box
    "lipschitz": st.builds(
        lambda c, k: LipschitzFn(lambda p: k * abs(p[0] - c), abs(k)),
        st.floats(0, 1), st.sampled_from([0.5, -1.0, 3.0]),
    ),
}


# zeros of both signs, negatives and magnitudes far from 1
POLY_COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324]) | st.floats(-4, 4)


def poly_ranges(g, depth):
    """``poly_range`` on each depth-``depth`` cylinder image, one call each."""
    step = 0.5 ** depth
    return [poly_range(g.plan, (k * step,), ((k + 1) * step,)) for k in range(2 ** depth)]


class TestCylinderRanges:
    """The sweep returns exactly ``range_on`` of each cylinder's image."""

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    @SETTINGS
    @given(data=st.data(), depth=st.integers(0, 10))
    def test_sweep_matches_range_on_bitwise(self, kind, data, depth):
        g = data.draw(ORACLES[kind])
        range_on = g.range_on
        calls = 0

        def counted(box):
            nonlocal calls
            calls += 1
            return range_on(box)

        g.range_on = counted  # on the instance, so type(g) still selects the path
        try:
            got = cylinder_ranges(g, depth)
        finally:
            del g.range_on
        want = [range_on((iota2_image(w),)) for w in TestCylinderImages.words(depth)]
        assert [(lo.hex(), hi.hex()) for lo, hi in got] == [(lo.hex(), hi.hex()) for lo, hi in want]
        # only the oracles without a lattice or float path are asked per box
        assert calls == (2 ** depth if kind == "lipschitz" else 0)

    @pytest.mark.parametrize("depth", [11, 12, 13])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(coeffs=st.lists(POLY_COEFFS, min_size=1, max_size=8))
    def test_blocks_match_poly_range_bitwise(self, depth, coeffs):
        # depths past log2(BLOCK): the sweep crosses block boundaries
        assert 2 ** depth > BLOCK
        g = PolynomialFn(coeffs)
        want = poly_ranges(g, depth)
        got = cylinder_ranges(g, depth)
        assert [(lo.hex(), hi.hex()) for lo, hi in got] == [(lo.hex(), hi.hex()) for lo, hi in want]
        # and the per-term reference, which compiles no plan
        step = 0.5 ** depth
        for k, enclosure in enumerate(got):
            assert_matches_per_term(enclosure, g.exps, g.coeffs, (k * step,), ((k + 1) * step,))
        lower = upper = 0.0
        for rlo, rhi in want:
            lower += rlo
            upper += rhi
        scale = 0.5 ** depth
        got = _depth_sums(g, runs_at(g, depth), depth)
        assert [x.hex() for x in got] == [(lower * scale).hex(), (upper * scale).hex()]

    @CANTOR_CALLS
    def test_polynomials_in_two_variables_rejected(self, call):
        # a Cantor integrand is a function on [0, 1]: these ended in an
        # IndexError from the enclosure of the first cylinder image
        with pytest.raises(InputError, match="polynomial dimension mismatch"):
            call(PolynomialFn({(1, 1): 1.0}))

    def test_nonfinite_coefficients_rejected(self):
        # inf * 0.0 is nan at x = 0, so no enclosure of such a polynomial
        # holds; the sweep never meets one, since none is built
        for coeffs in ([1.0, float("inf")], [float("nan")], [0.0, 0.0, -float("inf")]):
            with pytest.raises(InputError, match="must be finite"):
                PolynomialFn(coeffs)

    def test_deep_sums_hold_one_block(self):
        g = PolynomialFn([0.3, -0.7, 0.5, -0.1, 0.02])
        tracemalloc.start()
        try:
            _depth_sums(g, runs_at(g, 16), 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @CANTOR_CALLS
    def test_pieces_of_another_dimension_rejected(self, call):
        # both were read on their first side: integrate answered [0.5, 0.5]
        # for the second, and cover the empty cover
        for pieces in ([(make_box([[0, F(1, 2)], [1, 1]]), 2.0)], [(make_box([[0, F(1, 2)], [0, 1]]), 1.0)]):
            with pytest.raises(InputError, match="piece dimension mismatch"):
                call(PiecewiseConstantFn(pieces, default=-1.0))

    @CANTOR_CALLS
    def test_indicators_of_another_dimension_rejected(self, call):
        # the lattice of [0, 1] classified the half-plane on its first axis:
        # integrate answered integrable [0.5, 0.5078125]
        with pytest.raises(InputError, match="region dimension mismatch"):
            call(IndicatorFn(HalfPlaneRegion((1, 1), F(1, 2))))


def reference_vitali(g, eps, depth_budget, threshold_levels=8):
    """The per-threshold loop that the shared sweep replaced: each threshold
    deepens on its own, through ``oscillation_cover``."""
    floor = float(getattr(g, "oscillation_floor", 0.0))
    profile = []
    for k in range(1, threshold_levels + 1):
        threshold = F(1, 2 ** k)
        depth = 0
        while depth <= depth_budget:
            measure = oscillation_cover(g, threshold, depth).measure
            if measure < eps or floor >= threshold:
                break
            depth += 1
        else:
            depth = depth_budget
        profile.append((threshold, depth, measure))
    if all(m < eps for _, _, m in profile):
        verdict = "integrable"
    elif floor > 0.0:
        verdict = "not_integrable"
    else:
        verdict = "undecided"
    return verdict, tuple(profile)


VITALI_FUNCTIONS = {
    "poly": PolynomialFn([0.3, -0.7, 0.5]),
    # widths 2**-depth: each threshold is met exactly at some depth
    "x": PolynomialFn([0, 1]),
    "x2": PolynomialFn([0, 0, 1]),
    "step": PiecewiseConstantFn(
        [(make_box([[0, F(1, 3)]]), 1.0), (make_box([[F(1, 3), F(5, 7)]]), 3.0)], default=-1.0
    ),
    "indicator": IndicatorFn(HalfPlaneRegion([-1], F(-2, 9)), 0.5),
    "dirichlet": IndicatorFn(DenseCodenseRegion()),
}


class TestVitaliSweep:
    @pytest.mark.parametrize("name", sorted(VITALI_FUNCTIONS))
    @pytest.mark.parametrize(
        "eps,budget", [(F(1, 50), 20), (F(1, 200), 20), (F(1, 8), 20), (F(1, 50), 3), (F(1, 2), 0)]
    )
    def test_profile_matches_the_per_threshold_loop(self, name, eps, budget):
        g = VITALI_FUNCTIONS[name]
        report = lebesgue_vitali_check(g, epsilon=eps, depth_budget=budget)
        assert (report.verdict, report.oscillation_profile) == reference_vitali(g, eps, budget)


# 1-D regions of every kind that lattice verdicts combine: half-lines of both
# signs, box unions, points and the dense-codense fixture, under complements
# and nested unions and intersections; the breaks fall on dyadic points, on 0
# and 1, between them and outside [0, 1]
RUN_REGIONS = st.recursive(
    HALFPLANES
    | st.lists(intervals(), min_size=1, max_size=3).map(BoxElem)
    | CUTS.map(lambda x: PointRegion([x]))
    | st.just(DenseCodenseRegion()),
    lambda parts: (
        parts.map(RegionComplement)
        | st.lists(parts, min_size=2, max_size=3).map(lambda ps: RegionUnion(*ps))
        | st.lists(parts, min_size=2, max_size=3).map(lambda ps: RegionIntersection(*ps))
    ),
    max_leaves=4,
)
RUN_ORACLES = st.builds(IndicatorFn, RUN_REGIONS, VALUES) | ORACLES["piecewise"]


def lattice_ranges(g, depth):
    """``g``'s range on each depth-``depth`` cylinder, from the lattice
    verdicts on that cylinder alone."""
    lattice = DyadicLattice(UNIT)
    lattice.axis(depth)

    def verdicts(region):
        at = lattice_classifier(region, lattice)(depth)
        return [at((k,)) for k in range(2 ** depth)]

    if isinstance(g, IndicatorFn):
        return [g.ranges[v] for v in verdicts(g.region)]
    pieces = [verdicts(BoxElem([box])) for box, _ in g.pieces]
    support = verdicts(g.support)
    ranges = []
    for k in range(2 ** depth):
        values = []
        for piece, (_, v) in zip(pieces, g.pieces):
            if piece[k] != OUT:
                values.append(v)
                if piece[k] == IN:  # the first piece that holds the cylinder hides the rest
                    break
        else:
            if support[k] != IN:
                values.append(g.default)
        ranges.append((min(values), max(values)))
    return ranges


def image_ranges(g, depth):
    """``range_on`` of each depth-``depth`` cylinder's image, one call each."""
    return [g.range_on((iota2_image(w),)) for w in TestCylinderImages.words(depth)]


def per_cylinder_vitali(g, eps, depth_budget, threshold_levels=8):
    """The Lebesgue-Vitali check on one range per cylinder: each threshold
    deepens until the share of cylinders at least that wide is below eps."""
    floor = float(getattr(g, "oscillation_floor", 0.0))
    widths = {}
    profile = []
    for k in range(1, threshold_levels + 1):
        threshold = F(1, 2 ** k)
        for depth in range(depth_budget + 1):
            if depth not in widths:
                widths[depth] = [hi - lo for lo, hi in image_ranges(g, depth)]
            measure = F(sum(w >= threshold for w in widths[depth]), 2 ** depth)
            if measure < eps or floor >= threshold:
                break
        profile.append((threshold, depth, measure))
    if all(m < eps for _, _, m in profile):
        verdict = "integrable"
    elif floor > 0.0:
        verdict = "not_integrable"
    else:
        verdict = "undecided"
    return verdict, tuple(profile)


def hexed(ranges):
    return [(lo.hex(), hi.hex()) for lo, hi in ranges]


class TestCylinderRuns:
    """Runs of cylinders that share one range, found by descending the
    lattice of [0, 1], and the sweeps that fold them."""

    @SETTINGS
    @given(g=RUN_ORACLES, depth=st.integers(0, 12))
    def test_runs_expand_to_the_lattice_verdicts(self, g, depth):
        runs = list(runs_at(g, depth))
        start = 0
        for count, _, _ in runs:
            # each run is one lattice cell
            assert count & (count - 1) == 0 and start % count == 0
            start += count
        assert start == 2 ** depth
        expanded = [(lo, hi) for count, lo, hi in runs for _ in range(count)]
        assert hexed(expanded) == hexed(lattice_ranges(g, depth))

    @SETTINGS
    @given(g=RUN_ORACLES, depth=st.integers(0, 12),
           threshold=st.sampled_from([F(1, 2), F(1, 4), F(3, 2), F(4)]))
    def test_sweeps_match_one_range_per_cylinder(self, g, depth, threshold):
        ranges = image_ranges(g, depth)
        lower = upper = 0.0
        for rlo, rhi in ranges:
            lower += rlo
            upper += rhi
        scale = 0.5 ** depth
        got = _depth_sums(g, runs_at(g, depth), depth)
        assert [x.hex() for x in got] == [(lower * scale).hex(), (upper * scale).hex()]
        covered = [w for w, (rlo, rhi) in zip(TestCylinderImages.words(depth), ranges) if rhi - rlo >= threshold]
        assert oscillation_cover(g, threshold, depth).cover == CantorClopen(covered)

    @SETTINGS
    @given(g=RUN_ORACLES, budget=st.integers(0, 8), eps=st.sampled_from([F(1, 50), F(1, 8), F(1, 2)]))
    def test_vitali_matches_one_range_per_cylinder(self, g, budget, eps):
        report = lebesgue_vitali_check(g, epsilon=eps, depth_budget=budget)
        assert (report.verdict, report.oscillation_profile) == per_cylinder_vitali(g, eps, budget)

    @staticmethod
    def counted_verdicts(monkeypatch):
        """Counts every lattice verdict that the Cantor sweeps ask for."""
        calls = [0]

        def counting(region, lattice):
            at = lattice_classifier(region, lattice)

            def counted_at(depth):
                verdict = at(depth)

                def counted(cell):
                    calls[0] += 1
                    return verdict(cell)

                return counted

            return counted_at

        monkeypatch.setattr("famkit.cantor.lattice_classifier", counting)
        return calls

    def test_step_cover_asks_verdicts_per_level(self, monkeypatch):
        calls = self.counted_verdicts(monkeypatch)
        depth = 16
        cover = oscillation_cover(VITALI_FUNCTIONS["step"], F(1, 4), depth)
        assert cover.measure == F(2, 2 ** depth)
        # two pieces and their union, on the root and on at most four cells
        # per level below it: two breaks, each inside one cell of a level,
        # whose halves are visited; sweeping each cylinder took 3 * 2**16
        assert 0 < calls[0] <= 3 * (1 + 4 * depth)

    def test_dirichlet_sweep_asks_no_verdict(self, monkeypatch):
        calls = self.counted_verdicts(monkeypatch)
        assert oscillation_cover(IndicatorFn(DenseCodenseRegion()), F(1, 2), 16).cover.is_everything
        assert lebesgue_vitali_check(IndicatorFn(DenseCodenseRegion()), epsilon=1e-2).verdict == "not_integrable"
        assert calls[0] == 0


# floats of few significant bits, which the O(1) fold takes, from the
# subnormals to near overflow; and any float, zeros and infinities included
DYADIC_FLOATS = st.builds(math.ldexp, st.integers(-2 ** 20, 2 ** 20), st.integers(-1074, 1000))
FOLD_FLOATS = st.one_of(
    DYADIC_FLOATS,
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.7e308, -1.7e308,
                     2.0 ** 1023, math.inf, -math.inf]),
)


class TestFold:
    """``_fold`` is ``reduce(add, repeat(x, count), acc)``, bit for bit."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(acc=FOLD_FLOATS, x=FOLD_FLOATS, count=st.integers(0, 3000))
    def test_equals_the_sequential_sum(self, acc, x, count):
        # hex tells the signs of zeros apart
        assert _fold(acc, x, count).hex() == reduce(add, repeat(x, count), acc).hex()

    @pytest.mark.parametrize("acc,x,count", [
        (0.0, -0.0, 5), (-0.0, -0.0, 5), (-0.0, 0.0, 1), (-3.0, 1.0, 3), (5e-324, -5e-324, 1),
        (1.7e308, 1e292, 3), (2.0 ** 1023, 2.0 ** 1022, 2), (-1.7e308, -1.7e308, 2),
        (math.inf, -1.0, 7), (-math.inf, math.inf, 2), (0.5, 0.1, 1000), (0.0, 2.0 ** -1074, 4096),
        # a partial sum of 54 significant bits rounds, at the first or the last
        (2.0 ** 53 + 2, -1.0, 4), (2.0 ** 53 - 2, 1.0, 4), (-2.0 ** 53 + 2, -1.0, 4),
    ])
    def test_edges(self, acc, x, count):
        assert _fold(acc, x, count).hex() == reduce(add, repeat(x, count), acc).hex()

    def test_exact_folds_take_one_step(self):
        # 2**40 additions would take hours
        assert _fold(0.0, 1.0, 2 ** 40) == 2.0 ** 40
        assert _fold(-0.5, 0.25, 2 ** 41) == 2.0 ** 39 - 0.5


class TestDepthCap:
    CALLS = {
        "integrate": lambda depth: cantor_integrate(PolynomialFn([0, 1]), depth_budget=depth),
        "vitali": lambda depth: lebesgue_vitali_check(PolynomialFn([0, 1]), depth_budget=depth),
        "cover": lambda depth: oscillation_cover(PolynomialFn([0, 1]), F(1, 4), depth),
    }

    def test_cap_keeps_float_endpoints_exact(self):
        assert DEFAULT_DEPTH_BUDGET <= MAX_DEPTH <= 53

    @pytest.mark.parametrize("op", sorted(CALLS))
    def test_negative_depth_is_an_input_error(self, op):
        with pytest.raises(InputError) as exc:
            self.CALLS[op](-1)
        assert not isinstance(exc.value, CapExceededError)

    @pytest.mark.parametrize("op", sorted(CALLS))
    def test_depth_above_the_cap_fails_before_sweeping(self, op):
        with pytest.raises(CapExceededError):
            self.CALLS[op](MAX_DEPTH + 1)

    def test_the_cap_itself_is_allowed(self):
        report = cantor_integrate(PolynomialFn([3.0]), depth_budget=MAX_DEPTH)
        assert report.status == "integrable"


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
