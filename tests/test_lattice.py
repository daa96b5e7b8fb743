"""The integer dyadic lattice behind Jordan brackets and indicator integrals.

Lattice verdicts must equal ``region.classify`` on the cell's rational box,
and ``measure_bracket`` must give what the Fraction-box heap it replaced
gave: the same brackets and the same cells in the same order.  Indicator
integrals are their value times such a bracket: they must contain it
exactly, and split the cells and reach the verdict that the scalar heap
does on float cells wherever those float cells are exact.
"""

import hashlib
import heapq
import importlib
import math
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famkit._refine_py import refine_generic
from famkit.boxes import IN, OUT, STRADDLE, BoxElem, VolumeFam, box_volume, make_box
from famkit.errors import InputError
from famkit.functions import (
    DenseCodenseRegion,
    HalfPlaneRegion,
    IndicatorFn,
    PointRegion,
    PolynomialFn,
    RegionComplement,
    RegionIntersection,
    RegionUnion,
    triangle_under_diagonal,
)
from famkit.integrate import (
    INTEGRABLE,
    JordanReport,
    MeasureBracket,
    inner_measure,
    integrate,
    integrate_over,
    integrate_simple,
    is_jordan,
    measure_bracket,
    outer_measure,
)
from famkit.lattice import DyadicLattice, lattice_classifier

from genutil import random_jordan_region

# the package rebinds the name ``famkit.integrate`` to the function
integrate_module = importlib.import_module("famkit.integrate")

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SQUARE = VolumeFam([[0, 1], [0, 1]])


def heap_bracket(region, fam, eps, budget):
    """The Fraction-box heap that ``measure_bracket`` replaced: split the
    largest straddling cell (oldest first among equals) at its widest axis."""
    inner = out = F(0)
    inner_cells, heap = [], []
    seq = 0

    def push(box, vol, widths):
        nonlocal inner, out, seq
        verdict = region.classify(box)
        if verdict == IN:
            inner += vol
            inner_cells.append(box)
        elif verdict == OUT:
            out += vol
        else:
            heapq.heappush(heap, (-float(vol), seq, box, vol, widths))
            seq += 1

    total = fam.total
    push(fam.bounding, total, tuple(float(hi - lo) for lo, hi in fam.bounding))
    processed = 0
    while heap and total - inner - out >= eps and processed < budget:
        _, _, box, vol, widths = heapq.heappop(heap)
        axis = max(range(len(widths)), key=lambda d: (widths[d], -d))
        lo, hi = box[axis]
        mid = (lo + hi) / 2
        halved = widths[:axis] + (widths[axis] * 0.5,) + widths[axis + 1:]
        push(box[:axis] + ((lo, mid),) + box[axis + 1:], vol / 2, halved)
        push(box[:axis] + ((mid, hi),) + box[axis + 1:], vol / 2, halved)
        processed += 1
    return MeasureBracket(
        inner=inner,
        outer=total - out,
        inner_cells=tuple(inner_cells),
        straddle_cells=tuple(entry[2] for entry in sorted(heap, key=lambda t: t[1])),
        converged=total - inner - out < eps,
    )


# -- random regions on boxes with non-dyadic corners -------------------

def rationals():
    return st.builds(F, st.integers(-42, 63), st.just(21))


@st.composite
def bounding_boxes(draw, dim=None):
    # four axes take the generic verdicts, fewer the unrolled ones
    if dim is None:
        dim = draw(st.integers(1, 4))
    widths = st.builds(F, st.integers(1, 12), st.sampled_from([3, 5, 7, 1]))
    # widths a power of two apart tie at some depth: the lower axis splits first
    base = draw(widths)
    out = []
    for _ in range(dim):
        lo = draw(st.builds(F, st.integers(-6, 6), st.sampled_from([3, 5, 7])))
        width = draw(st.one_of(st.sampled_from([base, 2 * base, base / 4]), widths))
        out.append([lo, lo + width])
    return out


def lattice_points(bounds, draw):
    """A coordinate per axis, often on a dyadic point of the lattice."""
    point = []
    for lo, hi in bounds:
        if draw(st.booleans()):
            level = draw(st.integers(0, 5))
            k = draw(st.integers(-1, 2 ** level + 1))
            point.append(lo + (hi - lo) * F(k, 2 ** level))
        else:
            point.append(draw(rationals()))
    return point


@st.composite
def regions(draw, bounds, depth=2):
    kinds = ["halfplane", "boxes", "point"] + (["union", "intersection", "complement"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    dim = len(bounds)
    if kind == "halfplane":
        normal = [draw(st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))) for _ in range(dim)]
        # an offset through a lattice point puts cell corners on the boundary
        point = lattice_points(bounds, draw)
        offset = sum((c * x for c, x in zip(normal, point)), F(0))
        return HalfPlaneRegion(normal, offset + draw(st.sampled_from([0, 0, F(1, 5)])))
    if kind == "boxes":
        boxes = []
        for _ in range(draw(st.integers(1, 3))):
            a, b = lattice_points(bounds, draw), lattice_points(bounds, draw)
            boxes.append(make_box([sorted(pair) for pair in zip(a, b)]))
        return BoxElem(boxes)
    if kind == "point":
        return PointRegion(lattice_points(bounds, draw))
    if kind == "complement":
        return RegionComplement(draw(regions(bounds, depth - 1)))
    parts = [draw(regions(bounds, depth - 1)) for _ in range(draw(st.integers(0, 3)))]
    return (RegionUnion if kind == "union" else RegionIntersection)(*parts)


@st.composite
def problems(draw, dim=None):
    bounds = draw(bounding_boxes(dim))
    return bounds, draw(regions(bounds))


class TestLatticeVerdicts:
    # each dimension gets its own draws: half-planes of one to three axes
    # and box unions of one and two take the unrolled verdicts, the rest
    # the generic ones
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @SETTINGS
    @given(data=st.data())
    def test_verdict_equals_classify_on_the_box(self, dim, data):
        bounds, region = data.draw(problems(dim))
        other = data.draw(regions(bounds, depth=1))
        fam = VolumeFam(bounds)
        lattice = DyadicLattice(fam.bounding)
        # a union and an intersection of two parts take the two-part folds
        cases = [region, RegionUnion(region, other), RegionIntersection(region, other)]
        classifiers = [lattice_classifier(r, lattice) for r in cases]
        for depth in sorted(data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=4))):
            lattice.axis(depth)
            levels = lattice.levels[depth]
            verdicts = [at(depth) for at in classifiers]
            for _ in range(6):
                cell = tuple(data.draw(st.integers(0, 2 ** level - 1)) for level in levels)
                [box] = lattice.boxes(depth, [cell])
                expected = tuple(
                    (lo + (hi - lo) * F(i, 2 ** level), lo + (hi - lo) * F(i + 1, 2 ** level))
                    for (lo, hi), level, i in zip(fam.bounding, levels, cell)
                )
                assert box == expected
                for r, verdict in zip(cases, verdicts):
                    assert verdict(cell) == r.classify(box)

    @SETTINGS
    @given(problems(), st.sampled_from([F(1, 8), F(1, 40)]), st.integers(1, 60))
    def test_bracket_equals_the_heap(self, problem, eps, budget):
        bounds, region = problem
        fam = VolumeFam(bounds)
        scaled = eps * fam.total
        bracket = measure_bracket(region, fam, scaled, budget)
        assert bracket == heap_bracket(region, fam, scaled, budget)

    @SETTINGS
    @given(problems())
    def test_cells_tile_the_outer_bracket(self, problem):
        bounds, region = problem
        fam = VolumeFam(bounds)
        bracket = measure_bracket(region, fam, fam.total / 32, 200)
        cells = bracket.inner_cells + bracket.straddle_cells
        assert sum(map(box_volume, bracket.inner_cells), F(0)) == bracket.inner
        assert sum(map(box_volume, cells), F(0)) == bracket.outer
        # pairwise disjoint: resolving overlaps loses no volume
        assert BoxElem(cells).volume == bracket.outer
        assert all(region.classify(b) == IN for b in bracket.inner_cells)
        assert all(region.classify(b) == STRADDLE for b in bracket.straddle_cells)

    def test_foreign_regions_go_through_classify(self):
        class Disc:
            def classify(self, box):
                # the unit disc: in the positive quadrant the corners decide
                corners = [(x, y) for x in box[0] for y in box[1]]
                inside = [x * x + y * y <= 1 for x, y in corners]
                return IN if all(inside) else STRADDLE if any(inside) else OUT

        region = Disc()
        fam = VolumeFam([[0, F(4, 3)], [0, F(4, 3)]])
        assert measure_bracket(region, fam, F(1, 50)) == heap_bracket(region, fam, F(1, 50), 10**6)

    @pytest.mark.parametrize("region", [HalfPlaneRegion((1, 1, 5), 1), HalfPlaneRegion((1,), F(1, 2)),
                                        BoxElem([make_box([[0, F(1, 2)]])]),
                                        RegionUnion(triangle_under_diagonal(), BoxElem([make_box([[0, 1]] * 3)])),
                                        PointRegion((F(1, 2),)),
                                        RegionUnion(PointRegion((0, 0, 0)), triangle_under_diagonal())],
                             ids=["halfplane-3d", "halfplane-1d", "box-1d", "union-with-box-3d", "point-1d",
                                  "union-with-point-3d"])
    @pytest.mark.parametrize("call", [
        lambda r: measure_bracket(r, SQUARE, F(1, 64)),
        lambda r: is_jordan(r, SQUARE, F(1, 64)),
        lambda r: integrate(IndicatorFn(r), SQUARE, 1e-3),
        lambda r: integrate(IndicatorFn(r), SQUARE, 1e-3, budget=1),
        lambda r: integrate(IndicatorFn(r), SQUARE, 1e-3, strategy="grid"),
        lambda r: integrate_over(PolynomialFn({(0, 0): 1.0}), r, SQUARE, 1e-2),
    ], ids=["measure_bracket", "is_jordan", "indicator", "indicator-root", "indicator-grid", "integrate_over"])
    def test_regions_of_another_dimension_rejected(self, call, region):
        # classify zipped the region's axes with the cell's: the 3-D
        # half-plane had the bracket [127/256, 8383/16384] on the square;
        # the grid and the root-only integral build no lattice of their own,
        # and integrate_over and the points were never checked: is_jordan
        # answered jordan True on both points
        with pytest.raises(InputError, match="region dimension mismatch"):
            call(region)

    def test_flat_box_has_no_volume(self):
        fam = VolumeFam([[0, 1], [F(1, 3), F(1, 3)]])
        for region in (BoxElem([make_box([[0, 1], [0, 1]])]), PointRegion([F(1, 2), F(1, 3)]),
                       DenseCodenseRegion(), HalfPlaneRegion((0, 1), F(1, 2))):
            verdicts = lattice_classifier(region, DyadicLattice(fam.bounding))
            assert verdicts(0)((0, 0)) == region.classify(fam.bounding)


# -- indicator integrals: the lattice descent against the float heap --------

@st.composite
def float_exact_problems(draw):
    """Regions on boxes of small dyadic corners: every float cell that the
    heap splits down to a few dozen levels is exactly a lattice cell."""
    bounds = []
    for _ in range(draw(st.integers(1, 3))):
        lo = F(draw(st.integers(-8, 8)), 4)
        width = F(draw(st.integers(1, 12)), draw(st.sampled_from([1, 4, 16])))
        bounds.append([lo, lo + width])
    return bounds, draw(regions(bounds))


def heap_integral(fn, fam, eps, budget):
    lo0 = [float(lo) for lo, _ in fam.bounding]
    hi0 = [float(hi) for _, hi in fam.bounding]
    return refine_generic(lambda lo, hi: fn.range_on(tuple(zip(lo, hi))), lo0, hi0, eps, budget)


def assert_certified(fn, fam, eps, budget):
    """The integral contains ``v * [inner, outer]`` of the bracket after
    ``budget - 1`` splits at ``eps / |v|``, an integrable verdict is an
    exact width below ``eps`` and agrees with the bracket's convergence,
    and the cells split and the verdict are the float heap's.  Returns
    the report and the heap's result."""
    report = integrate(fn, fam, eps, budget)
    lower, upper = F(report.lower), F(report.upper)
    integrable = report.status == INTEGRABLE
    exact_eps = F(repr(eps))
    if fn.value and budget > 1:
        bracket = measure_bracket(fn.region, fam, exact_eps / abs(F(fn.value)), budget - 1)
        ends = sorted((F(fn.value) * bracket.inner, F(fn.value) * bracket.outer))
        assert lower <= ends[0] and ends[1] <= upper
        assert integrable == bracket.converged
    if integrable:
        assert upper - lower < exact_eps
    heap = heap_integral(fn, fam, eps, budget)
    assert (report.trace[-1][0], integrable) == heap[2:4]
    return report, heap


class TestLatticeIndicatorIntegral:
    @SETTINGS
    @given(float_exact_problems(), st.sampled_from([1.0, -2.5, 0.1, -3e-3, 0.0, -0.0]),
           st.sampled_from([F(1, 8), F(1, 40), F(1, 200)]), st.integers(1, 2000))
    def test_equals_the_heap(self, problem, value, tolerance, budget):
        bounds, region = problem
        fam = VolumeFam(bounds)
        eps = float(fam.total * tolerance) * max(abs(value), 1.0)
        report, _ = assert_certified(IndicatorFn(region, value), fam, eps, budget)
        if not value:  # signed zeros included
            assert repr((report.lower, report.upper, report.trace)) == repr((0.0, 0.0, ((1, 0.0), (1, 0.0))))

    @pytest.mark.parametrize("name", ["triangle-xy", "halfspace-3d", "halfplane-fine"])
    # a budget of 1 answers at the root, without a bracket
    @pytest.mark.parametrize("budget", [1, 50, 333, 10**6])
    def test_fixtures_equal_the_heap(self, name, budget):
        region, fam, eps = FIXTURES[name]
        fn = IndicatorFn(region, -1.5)
        report, heap = assert_certified(fn, fam, float(eps), budget)
        # dyadic ends: the heap's sums are exact, and so are the lattice's
        assert (report.lower, report.upper) == heap[:2]

    def test_wider_than_the_float_range(self):
        # the root's volume, 2**1024, and its gap are beyond the float
        # range; its halves are not
        fam = VolumeFam([[-2 ** 1023, 2 ** 1023], [0, 1]])
        fn = IndicatorFn(HalfPlaneRegion((1, 0), 0))
        report, _ = assert_certified(fn, fam, 1e300, 10**4)
        assert report.trace[0] == (1, math.inf)
        assert (report.trace[-1][0], report.status) == (29, INTEGRABLE)
        # halves that are IN and OUT: the gap is +0.0 at two cells
        halves = IndicatorFn(BoxElem([make_box([[-2 ** 1023, 0]])]))
        line = VolumeFam([[-2 ** 1023, 2 ** 1023]])
        report, _ = assert_certified(halves, line, 1e-3, 100)
        assert repr(report.trace) == repr(((1, math.inf), (2, 0.0)))
        assert report.lower == report.upper == 2.0 ** 1023
        # the lattice itself used to raise OverflowError on the float width
        bracket = measure_bracket(HalfPlaneRegion((1, 0), 0), fam, F(10) ** 300)
        assert (bracket.inner, bracket.converged) == (F(2) ** 1023, True)


# -- exact results pinned before the lattice replaced the Fraction-box heap --

FIXTURES = {
    "triangle-xy": (triangle_under_diagonal(), SQUARE, F(1, 1000)),
    "halfspace-3d": (HalfPlaneRegion((1, 2, -1), F(2, 3)), VolumeFam([[0, 1]] * 3), F(1, 34)),
    "halfplane-fine": (HalfPlaneRegion((1, 2), F(2, 3)), SQUARE, F(1, 3000)),
    "triangle-1e-4": (triangle_under_diagonal(), SQUARE, F(1, 10000)),
}

PINNED = {
    # inner, outer, inner cells, straddle cells
    "triangle-xy": (F(1048039, 2097152), F(131267, 262144), 1997, 4045),
    "halfspace-3d": (F(84041, 262144), F(91751, 262144), 2685, 7807),
    "halfplane-fine": (F(1861115, 16777216), F(1866707, 16777216), 2426, 3721),
    "triangle-1e-4": (F(16383, 32768), F(268472759, 536870912), 16383, 44614),
}


# sha256 of repr((inner_cells, straddle_cells)), pinned while every bracket
# still built its boxes eagerly
PINNED_CELLS = {
    "triangle-xy": "dd38b9d126b5b224",
    "halfspace-3d": "6bcc827106fb2fcb",
    "halfplane-fine": "cc7b68d6a31c1f88",
    "triangle-1e-4": "9a33cfa9b3d637a8",
}


# sha256 of repr(is_jordan(...)) and its hash, pinned while JordanReport was
# a frozen dataclass that built its witness eagerly
PINNED_REPORTS = {
    "triangle-xy": ("9e79fde3c64f1181", 8348494000078085531),
    "halfspace-3d": ("9ff578e7592d4a72", -7165032805495021789),
    "halfplane-fine": ("1fee906523ffd22e", -4731182392852850587),
    "triangle-1e-4": ("c5ee7d3602fabe9c", -3203770979701878008),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_brackets(name):
    region, fam, eps = FIXTURES[name]
    bracket = measure_bracket(region, fam, eps)
    inner, outer, n_inner, n_straddle = PINNED[name]
    assert (bracket.inner, bracket.outer) == (inner, outer)
    assert (len(bracket.inner_cells), len(bracket.straddle_cells)) == (n_inner, n_straddle)
    cells = repr((bracket.inner_cells, bracket.straddle_cells)).encode()
    assert hashlib.sha256(cells).hexdigest()[:16] == PINNED_CELLS[name]
    assert bracket.converged
    assert bracket.cell_counts == (n_inner, n_straddle)
    report = is_jordan(region, fam, eps)
    assert report.jordan
    assert report.measure == (inner + outer) / 2
    assert report.witness_sizes == (n_inner, n_inner + n_straddle)
    A, B = report.witness
    assert (len(A.boxes), len(B.boxes)) == (n_inner, n_inner + n_straddle)
    assert (A.volume, B.volume) == (inner, outer)
    assert report.witness is report.witness
    eager = JordanReport(jordan=True, inner=inner, outer=outer, measure=(inner + outer) / 2,
                         witness=(BoxElem.from_disjoint(bracket.inner_cells),
                                  BoxElem.from_disjoint(bracket.inner_cells + bracket.straddle_cells)))
    assert report == eager and hash(report) == hash(eager)
    digest, value = PINNED_REPORTS[name]
    assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == digest
    assert hash(report) == value


def test_measures_build_no_boxes(monkeypatch):
    def no_boxes(*args):
        raise AssertionError("built witness boxes")

    monkeypatch.setattr(DyadicLattice, "boxes", no_boxes)
    region, fam, eps = FIXTURES["halfspace-3d"]
    inner, outer, _, _ = PINNED["halfspace-3d"]
    assert (inner_measure(region, fam, eps), outer_measure(region, fam, eps)) == (inner, outer)
    bracket = measure_bracket(region, fam, eps)
    assert (bracket.gap, bracket.converged) == (outer - inner, True)
    # a Jordan verdict builds its witness only when it is read
    report = is_jordan(region, fam, eps)
    assert report.witness_sizes == (2685, 2685 + 7807)
    simple = integrate_simple([(region, 1)], fam, eps)
    assert (simple.status, simple.lower, simple.upper) == ("integrable", inner, outer)
    with pytest.raises(AssertionError, match="built witness boxes"):
        bracket.inner_cells
    with pytest.raises(AssertionError, match="built witness boxes"):
        report.witness


# -- chunked splitting stops where the one-cell-at-a-time heap stops ---------

STOP_REGIONS = {
    "halfplane": (HalfPlaneRegion((1, 2), F(2, 3)), SQUARE),
    "halfspace-3d": FIXTURES["halfspace-3d"][:2],
    "intersection": (RegionIntersection(HalfPlaneRegion((1, -2), F(1, 5)),
                                        HalfPlaneRegion((-1, -1), F(-3, 7))), SQUARE),
}


def full_depth_straddles(region, fam, depths):
    """Straddling cells of each depth once every shallower cell is split."""
    lattice = DyadicLattice(fam.bounding)
    verdicts = lattice_classifier(region, lattice)
    cells = [(0,) * lattice.dimension]
    counts = []
    for depth in range(depths):
        classify = verdicts(depth)
        cells = [c for c in cells if classify(c) == STRADDLE]
        counts.append(len(cells))
        axis = lattice.axis(depth)
        cells = [c[:axis] + (2 * c[axis] + k,) + c[axis + 1:] for c in cells for k in (0, 1)]
    return counts


# chunks of at most 3 cells end at many more places than chunks of 1024
CHUNKS = (integrate_module.CHUNK, 3)


def assert_chunks_replay_the_heap(region, fam, eps, budget, monkeypatch):
    expected = heap_bracket(region, fam, eps, budget)
    for chunk in CHUNKS:
        monkeypatch.setattr(integrate_module, "CHUNK", chunk)
        bracket = measure_bracket(region, fam, eps, budget)
        assert bracket == expected
        assert bracket.cell_counts == expected.cell_counts


@pytest.mark.parametrize("name", sorted(STOP_REGIONS))
def test_every_budget_stops_where_the_heap_does(name, monkeypatch):
    region, fam = STOP_REGIONS[name]
    for budget in range(1, 257):
        assert_chunks_replay_the_heap(region, fam, fam.total / 10 ** 6, budget, monkeypatch)


@pytest.mark.parametrize("name", sorted(STOP_REGIONS))
def test_stops_around_each_depth_boundary(name, monkeypatch):
    # eps of one straddling cell more or fewer than a whole depth holds:
    # the last stop test of a depth, or the first of the next, decides
    region, fam = STOP_REGIONS[name]
    for depth, straddling in enumerate(full_depth_straddles(region, fam, 11)):
        for cells in (straddling - 1, straddling, straddling + 1):
            if cells > 0:
                eps = fam.total * F(cells, 2 ** depth)
                assert_chunks_replay_the_heap(region, fam, eps, 10 ** 6, monkeypatch)


def assert_sizes_match_witness(report):
    sizes = report.witness_sizes
    A, B = report.witness
    assert sizes == (len(A.boxes), len(B.boxes))


FLAT = VolumeFam([[0, 0], [0, 1]])


@pytest.mark.parametrize("region,fam,counts,sizes", [
    # on a flat box every cell is empty, and the witness drops empty boxes
    (HalfPlaneRegion((1, 1), 5), FLAT, (1, 0), (0, 0)),
    (HalfPlaneRegion((0, 1), F(1, 2)), FLAT, (0, 1), (0, 0)),
    (DenseCodenseRegion(), FLAT, (0, 1), (0, 0)),
    # the dense fixture's early return: one straddling cell, the box itself
    (DenseCodenseRegion(), VolumeFam([[0, F(1, 1000)]]), (0, 1), (0, 1)),
])
def test_witness_sizes_without_lattice_boxes(region, fam, counts, sizes):
    assert measure_bracket(region, fam, F(1, 8)).cell_counts == counts
    report = is_jordan(region, fam, F(1, 8))
    assert report.witness_sizes == sizes
    assert_sizes_match_witness(report)


def test_witness_sizes_on_criterion_7_pairs():
    # the regions of acceptance criterion 7, drawn in the same order
    rng = Random(540)
    for _ in range(200):
        a = random_jordan_region(rng)
        b = random_jordan_region(rng)
        knife = HalfPlaneRegion((1, 0), F(rng.randint(1, 3), 4))
        left = RegionIntersection(a, knife)
        right = RegionIntersection(b, RegionComplement(knife))
        for region in (RegionUnion(a, b), RegionIntersection(a, b), RegionComplement(a),
                       left, right, RegionUnion(left, right)):
            assert_sizes_match_witness(is_jordan(region, SQUARE, F(1, 128)))


def test_unconverged_report_has_no_witness():
    report = is_jordan(triangle_under_diagonal(), SQUARE, F(1, 1000), budget=10)
    assert report.jordan is None
    assert (report.witness, report.witness_sizes) == ((), ())


def test_witness_boxes_drop_empty_ones_and_sort():
    a = make_box([[0, F(1, 2)], [0, 1]])
    b = make_box([[F(1, 2), 1], [0, F(1, 3)]])
    flat = make_box([[F(1, 3), F(1, 3)], [0, 1]])
    elem = BoxElem.from_disjoint([b, flat, a])
    assert elem.boxes == (a, b)
    assert elem == BoxElem([flat, b, a])
