"""Generalized Riemann (Darboux) integration, outer/inner measure, and the
Jordan measure, over two backends.

Finite backend: functions are exact rational tables over the ground set;
the atom partition realizes the sharpest Darboux sums, so values and
integrability are decided exactly.

Box backend: functions carry certified range oracles over half-open boxes;
the adaptive refinement loop (batched over numpy arrays for polynomials)
certifies the Darboux gap below a requested tolerance.  Jordan brackets
split cells of the integer dyadic lattice (``famkit.lattice``) and keep
their exact rational volumes; the integral of an indicator is its value
times such a bracket, rounded outward once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _refine, _refine_py
from .boolalg import Algebra, Partition, SetElem
from .boxes import IN, OUT, STRADDLE, Box, BoxElem, VolumeFam, box_intersect, box_volume
from .errors import InputError
from .fam import Fam, as_fraction, as_table, pushforward
from .functions import IndicatorFn, PolynomialFn, RestrictedFn, _to_float, check_axes, finite, region_of
from .lattice import DyadicLattice, lattice_classifier

DEFAULT_BUDGET = 2_000_000

#: Most cells that :func:`measure_bracket` splits in one chunk; it bounds
#: the halves held beside the straddling cells.
CHUNK = 1024

INTEGRABLE = "integrable"
NOT_INTEGRABLE = "not_integrable"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class IntegralReport:
    """Lower/upper Darboux data plus the verdict at the requested tolerance."""

    status: str
    lower: object
    upper: object
    value: object = None
    epsilon: object = None
    trace: tuple = ()
    backend: str = "finite"

    @property
    def gap(self):
        return self.upper - self.lower


# -- finite backend ----------------------------------------------------


def supsum(f, partition: Partition, fam: Fam) -> Fraction:
    """Sum over cells of (sup of f on the cell) times the cell measure."""
    table = as_table(f, fam.algebra.ground)
    return sum(
        (max(table[x] for x in b.indices()) * fam(b) for b in partition.cells),
        Fraction(0),
    )


def infsum(f, partition: Partition, fam: Fam) -> Fraction:
    table = as_table(f, fam.algebra.ground)
    return sum(
        (min(table[x] for x in b.indices()) * fam(b) for b in partition.cells),
        Fraction(0),
    )


def _integrate_table(f, fam: Fam, epsilon=None) -> IntegralReport:
    # the atom partition is the common refinement of every partition, so it
    # attains the upper and lower integrals exactly
    table = as_table(f, fam.algebra.ground)
    lower = Fraction(0)
    upper = Fraction(0)
    for a, w in zip(fam.algebra.atoms, fam.weights):
        if w == 0:
            continue
        points = a.indices()
        lower += min(table[x] for x in points) * w
        upper += max(table[x] for x in points) * w
    status = INTEGRABLE if lower == upper else NOT_INTEGRABLE
    return IntegralReport(
        status=status,
        lower=lower,
        upper=upper,
        value=lower if status == INTEGRABLE else None,
        epsilon=epsilon,
        trace=((fam.algebra.atom_count, upper - lower),),
        backend="finite",
    )


def oscillation(f, atom: SetElem) -> Fraction:
    """Width of the range of ``f`` on an atom (its principal ultrafilter)."""
    table = as_table(f, atom.ground)
    if atom.is_empty:
        raise InputError("oscillation needs a non-empty atom")
    points = atom.indices()
    return max(table[x] for x in points) - min(table[x] for x in points)


def ultrafilter_integrate(f, atom: SetElem) -> Fraction | None:
    """The ultrafilter limit of ``f`` at a principal ultrafilter, if it exists."""
    if oscillation(f, atom) != 0:
        return None
    table = as_table(f, atom.ground)
    return table[atom.indices()[0]]


def jordan_completion(fam: Fam) -> Fam:
    """The Jordan measure of a finite-backend fam, as a fam.

    Null atoms shatter into singletons (every subset of a null region is
    Jordan measurable with measure zero); positive atoms are unchanged.
    """
    atoms: list[SetElem] = []
    weights: dict[int, Fraction] = {}
    for a, w in zip(fam.algebra.atoms, fam.weights):
        if w > 0:
            atoms.append(a)
            weights[a.bits] = w
        else:
            for x in a.indices():
                s = SetElem.singleton(fam.algebra.ground, x)
                atoms.append(s)
                weights[s.bits] = Fraction(0)
    algebra = Algebra(fam.algebra.ground, atoms)
    return Fam(algebra, tuple(weights[a.bits] for a in algebra.atoms))


class JordanReport:
    """A Jordan verdict, its inner/outer bracket and, when Jordan, a
    sandwich witness ``A <= E <= B``.

    A report from :func:`is_jordan` on boxes builds its witness when
    ``witness`` is first read; ``witness_sizes`` gives the number of boxes
    in ``A`` and ``B`` without building them.
    """

    def __init__(self, jordan: bool | None, inner, outer, measure=None, witness: tuple = ()):
        self.jordan = jordan
        self.inner = inner
        self.outer = outer
        self.measure = measure
        self._witness = witness
        self._sizes = None

    @classmethod
    def _deferred(cls, inner, outer, measure, witness, sizes: tuple[int, int]) -> JordanReport:
        """A Jordan report whose witness the call ``witness()`` returns, on
        first access; ``sizes`` are its box counts."""
        report = cls(True, inner, outer, measure)
        report._witness = witness
        report._sizes = sizes
        return report

    @property
    def witness(self) -> tuple:
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

    @property
    def witness_sizes(self) -> tuple[int, ...]:
        """The number of boxes of each witness set of a box-backend
        report, ``()`` when there is no witness."""
        if self._sizes is None:
            self._sizes = tuple(len(w.boxes) for w in self.witness)
        return self._sizes

    @property
    def bracket(self):
        return (self.inner, self.outer)

    def _key(self):
        return (self.jordan, self.inner, self.outer, self.measure, self.witness)

    def __eq__(self, other):
        if not isinstance(other, JordanReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"JordanReport(jordan={self.jordan!r}, inner={self.inner!r}, outer={self.outer!r}, "
                f"measure={self.measure!r}, witness={self.witness!r})")


def _finite_measure_pair(E: SetElem, fam: Fam) -> tuple[Fraction, Fraction]:
    return fam(fam.algebra.floor(E)), fam(fam.algebra.ceil(E))


def _finite_is_jordan(E: SetElem, fam: Fam) -> JordanReport:
    inner, outer = _finite_measure_pair(E, fam)
    if inner == outer:
        return JordanReport(
            jordan=True,
            inner=inner,
            outer=outer,
            measure=inner,
            witness=(fam.algebra.floor(E), fam.algebra.ceil(E)),
        )
    return JordanReport(jordan=False, inner=inner, outer=outer)


@dataclass(frozen=True)
class PushforwardCheck:
    image: IntegralReport
    source: IntegralReport
    equal: bool
    consistent: bool


def pushforward_integral_check(f_on_y, h, fam: Fam, ground_y) -> PushforwardCheck:
    """Compare the integral of ``f`` against the image fam with the integral
    of ``f o h`` against the source fam; for injective ``h`` integrability
    must agree in both directions."""
    fam_h = pushforward(fam, h, ground_y)
    table_y = as_table(f_on_y, ground_y)
    hmap = [h[i] for i in range(fam.algebra.ground.size)] if isinstance(h, Mapping) else list(h)
    table_x = tuple(table_y[y] for y in hmap)
    image = _integrate_table(table_y, fam_h)
    source = _integrate_table(table_x, fam)
    both = image.status == INTEGRABLE and source.status == INTEGRABLE
    equal = both and image.value == source.value
    consistent = image.status != INTEGRABLE or equal
    if len(set(hmap)) == len(hmap):  # injective: equivalence, not implication
        consistent = consistent and (source.status != INTEGRABLE or equal)
    return PushforwardCheck(image=image, source=source, equal=equal, consistent=consistent)


@dataclass(frozen=True)
class DeviationTrack:
    epsilon: Fraction
    outer_measures: tuple[Fraction, ...]
    vanishes_at_horizon: bool


@dataclass(frozen=True)
class XiStarReport:
    tracks: tuple[DeviationTrack, ...]
    converged: bool


def xi_star_converges(seq, f, fam: Fam, eps_grid) -> XiStarReport:
    """Outer measures of the deviation sets, for each epsilon on the grid."""
    ground = fam.algebra.ground
    target = as_table(f, ground)
    tables = [as_table(fn, ground) for fn in seq]
    tracks = []
    for eps in eps_grid:
        eps = as_fraction(eps)
        if eps <= 0:
            raise InputError("epsilon grid must be positive")
        measures = []
        for table in tables:
            dev = SetElem.from_indices(
                ground, (x for x in range(ground.size) if abs(table[x] - target[x]) >= eps)
            )
            measures.append(fam(fam.algebra.ceil(dev)))
        tracks.append(
            DeviationTrack(
                epsilon=eps,
                outer_measures=tuple(measures),
                vanishes_at_horizon=bool(measures) and measures[-1] == 0,
            )
        )
    return XiStarReport(tracks=tuple(tracks), converged=all(t.vanishes_at_horizon for t in tracks))


# -- box backend -------------------------------------------------------


def _exact_eps(epsilon) -> Fraction:
    """A tolerance as an exact rational, a float read as its repr; it must
    be positive."""
    eps = as_fraction(str(epsilon) if isinstance(epsilon, float) else epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    return eps


def _float_eps(epsilon) -> float:
    eps = finite(_exact_eps(epsilon), "epsilon")
    if eps == 0.0:  # positive, but below the least float
        raise InputError("epsilon must be positive")
    return eps


def _require_oracle(fn):
    if not hasattr(fn, "range_on"):
        raise InputError("box-backend functions need a range oracle (range_on)")
    return fn


def _box_sum(fn, cells, end: int, which: str) -> float:
    _require_oracle(fn)
    # a range end of 0 adds 0 (of its sign), also where the float volume
    # overflows to inf, as in the grid's round sums
    terms = []
    for c in cells:
        r = fn.range_on(c)[end]
        terms.append(r * _to_float(box_volume(c)) if r else r)
    return _refine_py.finite_sum(_refine_py.darboux_sum(terms, which), which)


def box_supsum(fn, cells, fam: VolumeFam) -> float:
    """Oracle-driven upper Darboux sum over a partition into boxes."""
    return _box_sum(fn, cells, 1, "upper")


def box_infsum(fn, cells, fam: VolumeFam) -> float:
    """Oracle-driven lower Darboux sum over a partition into boxes."""
    return _box_sum(fn, cells, 0, "lower")


def _refine_grid(range_fn, lo0, hi0, eps, max_cells, plan=None):
    """Uniform dyadic refinement: split every cell each round.

    ``plan``, a polynomial's enclosure plan (``PolynomialFn.plan``), runs
    the rounds over numpy arrays in ``_refine.refine_grid``, with the same
    results; any other oracle gets one ``range_fn`` call per cell, and
    numpy stays unloaded.
    """
    if plan is not None:
        return _refine.refine_grid(plan, lo0, hi0, eps, max_cells)

    def sums(cells):
        terms = [(range_fn(lo, hi), math.prod(h - l for l, h in zip(lo, hi))) for lo, hi in cells]
        # a range end of 0 adds 0 (of its sign), also where the float volume
        # overflowed to inf: the exact volume of a cell is finite
        return (_refine_py.darboux_sum([r[0] * v if r[0] else r[0] for r, v in terms], "lower"),
                _refine_py.darboux_sum([r[1] * v if r[1] else r[1] for r, v in terms], "upper"))

    def split(cells):
        return [half for lo, hi in cells for half in _refine_py.split_widest(lo, hi)]

    return _refine_py.refine_uniform(sums, split, [(list(lo0), list(hi0))], eps, max_cells)


def _scaled_outward(x: float, total: Fraction, toward: float) -> float:
    """``x * total`` in floats, stepped toward ``toward`` (plus or minus
    infinity) until it is on that side of the exact product or equal to it;
    ``±inf`` where the product leaves the float range on that side."""
    exact = Fraction(x) * total
    scale = _to_float(total)
    # a total that is no normal float rounds coarsely or overflows, though
    # the product may not: round the exact product instead
    value = x * scale if sys.float_info.min <= abs(scale) < math.inf else _to_float(exact)
    # a float compares with a Fraction exactly, and an infinity as one
    while value < exact if toward > 0 else value > exact:
        value = math.nextafter(value, toward)
    return value


def _darboux_report(fn, bounding: Box, total: Fraction, eps: float, refine, backend: str) -> IntegralReport:
    """The verdict on ``fn`` over ``bounding``, of measure ``total``: by its
    oscillation floor when that reaches ``eps``, else by ``refine()``, which
    returns ``(lower, upper, ncells, converged, trace)``.  Raises
    ``InputError`` when a final sum is not finite."""
    floor = float(getattr(fn, "oscillation_floor", 0.0))
    volume = _to_float(total)
    if floor > 0.0 and floor * volume >= eps:
        # no partition can beat the certified oscillation floor
        rlo, rhi = fn.range_on(bounding)
        return IntegralReport(
            status=NOT_INTEGRABLE,
            lower=_refine_py.finite_sum(_scaled_outward(rlo, total, -math.inf), "lower"),
            upper=_refine_py.finite_sum(_scaled_outward(rhi, total, math.inf), "upper"),
            epsilon=eps,
            trace=((1, (rhi - rlo) * volume),),
            backend=backend,
        )
    lower, upper, _, converged, trace = refine()
    lower = _refine_py.finite_sum(lower, "lower")
    upper = _refine_py.finite_sum(upper, "upper")
    value = None
    if converged:
        value = 0.5 * (lower + upper)
        if math.isinf(value):
            # lower + upper overflows, so both are far above the subnormals
            # and halving each is exact
            value = 0.5 * lower + 0.5 * upper
    status = INTEGRABLE if converged else NOT_INTEGRABLE if floor > 0.0 else UNDECIDED
    return IntegralReport(
        status=status,
        lower=lower,
        upper=upper,
        value=value,
        epsilon=eps,
        trace=tuple(trace),
        backend=backend,
    )


def _indicator_sums(fn: IndicatorFn, fam: VolumeFam, epsilon, budget: int):
    """The box integral of ``v * chi_E``, ``fn``, as ``refine_generic``'s
    ``(lower, upper, ncells, converged, trace)``.

    On any partition the Darboux sums of ``v * chi_E`` are ``v`` times the
    inner and outer sums of ``E``, so the sums on the cells of
    :func:`measure_bracket` after ``budget - 1`` splits are ``v * inner``
    and ``v * outer``, ordered by the sign of ``v`` and rounded outward
    once.  The bracket is asked for at ``epsilon / |v|`` less the most
    that the two roundings can add, so that rounding never widens a
    converged bracket to ``epsilon``: the verdict is whether the rounded
    ends are less than the exact ``epsilon`` apart.  The trace is the
    root's gap, then the final one.
    """
    v = fn.value
    if not v:
        return 0.0, 0.0, 1, True, [(1, 0.0), (1, 0.0)]
    eps = _exact_eps(epsilon)
    scale = abs(Fraction(v))
    total = fam.total
    # _scaled_outward moves each end by less than 3 * 2**-53 * |v| * total
    # (it rounds total, then the product, then steps outward) plus 2**-1074
    slack = eps - scale * total / 2 ** 50 - Fraction(1, 2 ** 1070)
    tolerance = (slack if slack > 0 else eps) / scale
    if budget > 1:
        bracket = measure_bracket(fn.region, fam, tolerance, budget - 1)
        inner, outer, splits = bracket.inner, bracket.outer, bracket.splits
    else:  # the root alone
        verdict = fn.region.classify(fam.bounding)
        inner, outer, splits = total if verdict == IN else 0, 0 if verdict == OUT else total, 0
    lo, hi = (inner, outer) if v > 0 else (outer, inner)
    lower = _scaled_outward(v, lo, -math.inf)
    upper = _scaled_outward(v, hi, math.inf)
    converged = math.isfinite(upper - lower) and Fraction(upper) - Fraction(lower) < eps
    ncells = splits + 1
    root = _scaled_outward(abs(v), total if splits else outer - inner, math.inf)
    return lower, upper, ncells, converged, [(1, root), (ncells, upper - lower)]


def _integrate_box(fn, fam: VolumeFam, epsilon, budget: int, strategy: str) -> IntegralReport:
    _require_oracle(fn)
    check_axes(fn, fam.dimension)
    eps = _float_eps(epsilon)
    if budget < 1:
        raise InputError(f"the cell budget must be at least 1, got {budget}")
    # checked here, since an oscillation floor decides without refine()
    if strategy not in ("adaptive", "grid"):
        raise InputError(f"unknown strategy {strategy!r}")

    def range_fn(lo, hi):
        return fn.range_on(tuple(zip(lo, hi)))

    def refine():
        if type(fn) is IndicatorFn and strategy == "adaptive":
            return _indicator_sums(fn, fam, epsilon, budget)
        # the float cells start from the corners; an indicator's exact bracket never reads them
        lo0 = [finite(lo, "box corners") for lo, _ in fam.bounding]
        hi0 = [finite(hi, "box corners") for _, hi in fam.bounding]
        plan = fn.plan if isinstance(fn, PolynomialFn) else None
        if strategy == "grid":
            return _refine_grid(range_fn, lo0, hi0, eps, budget, plan)
        if plan is not None:
            return _refine.refine_poly(plan, lo0, hi0, eps, budget)
        return _refine_py.refine_generic(range_fn, lo0, hi0, eps, budget)

    return _darboux_report(fn, fam.bounding, fam.total, eps, refine, "box")


def integrate(f, fam, epsilon=None, budget: int = DEFAULT_BUDGET, strategy: str = "adaptive") -> IntegralReport:
    """Darboux integral report of ``f`` against ``fam``.

    Finite backend (``fam`` a :class:`Fam`): ``f`` is a rational table and
    the verdict is exact.  Box backend (``fam`` a :class:`VolumeFam`):
    ``f`` is a range-oracle function and the verdict is at tolerance
    ``epsilon``.
    """
    if isinstance(fam, Fam):
        return _integrate_table(f, fam, epsilon=epsilon)
    if isinstance(fam, VolumeFam):
        if epsilon is None:
            raise InputError("box backend needs an epsilon")
        return _integrate_box(f, fam, epsilon, budget, strategy)
    raise InputError("fam must be a Fam or a VolumeFam")


def integrate_over(f, E, fam, epsilon=None, budget: int = DEFAULT_BUDGET) -> IntegralReport:
    """Integral of ``f`` over a subset: the integral of ``f * chi_E``."""
    if isinstance(fam, Fam):
        table = as_table(f, fam.algebra.ground)
        if isinstance(E, SetElem):
            masked = tuple(v if x in E else Fraction(0) for x, v in enumerate(table))
            return _integrate_table(masked, fam, epsilon=epsilon)
        raise InputError("finite backend restricts over a SetElem")
    return _integrate_box(RestrictedFn(f, E), fam, epsilon, budget, "adaptive")


class MeasureBracket:
    """An exact inner/outer bracket and the cells that witness it.

    ``inner_cells`` lie inside the region and ``straddle_cells`` meet its
    boundary, as rational boxes.  A bracket from :func:`measure_bracket`
    keeps its cells as lattice indices and builds the boxes when they are
    first read, so callers that need only the measures never build them.
    """

    def __init__(self, inner: Fraction, outer: Fraction, inner_cells, straddle_cells,
                 converged: bool, certified_diverged: bool = False):
        self.inner = inner
        self.outer = outer
        self.converged = converged
        self.certified_diverged = certified_diverged
        self._cells = (tuple(inner_cells), tuple(straddle_cells))
        #: ``(len(inner_cells), len(straddle_cells))``, known without the boxes
        self.cell_counts = tuple(map(len, self._cells))
        #: the cells split to reach the bracket, 0 for one built from its cells
        self.splits = 0

    @classmethod
    def _deferred(cls, inner: Fraction, outer: Fraction, converged: bool, cells,
                  counts: tuple[int, int], splits: int) -> MeasureBracket:
        """A bracket whose ``(inner_cells, straddle_cells)`` the call
        ``cells()`` returns, on first access; ``counts`` are their lengths,
        and ``splits`` the cells split to reach it."""
        bracket = cls(inner, outer, (), (), converged)
        bracket._cells = cells
        bracket.cell_counts = counts
        bracket.splits = splits
        return bracket

    def _witness(self) -> tuple[tuple[Box, ...], tuple[Box, ...]]:
        if callable(self._cells):
            self._cells = self._cells()
        return self._cells

    @property
    def inner_cells(self) -> tuple[Box, ...]:
        return self._witness()[0]

    @property
    def straddle_cells(self) -> tuple[Box, ...]:
        return self._witness()[1]

    @property
    def gap(self) -> Fraction:
        return self.outer - self.inner

    def _key(self):
        return (self.inner, self.outer, self._witness(), self.converged, self.certified_diverged)

    def __eq__(self, other):
        if not isinstance(other, MeasureBracket):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        inner_cells, straddle_cells = self._witness()
        return (f"MeasureBracket(inner={self.inner!r}, outer={self.outer!r}, "
                f"inner_cells={inner_cells!r}, straddle_cells={straddle_cells!r}, "
                f"converged={self.converged!r}, certified_diverged={self.certified_diverged!r})")


def measure_bracket(E, fam: VolumeFam, epsilon, budget: int = DEFAULT_BUDGET) -> MeasureBracket:
    """Exact rational inner/outer bracket by adaptive straddle splitting.

    Cells live on the integer dyadic lattice of ``fam.bounding``: a cell is
    one index per axis, and every cell at depth ``S`` has volume
    ``total/2**S``.  Straddling cells are split, each bisected along its
    widest axis, while the straddling volume is at least ``epsilon`` and
    fewer than ``budget`` cells have been split.  The box integral of an
    indicator is its value times this bracket.

    Straddling cells wait in a FIFO, which splits them largest first and
    oldest first among equals, since children are one level deeper than
    their parent.  It splits one depth at a time, in chunks: one list of
    halves (``DyadicLattice.halves``), left then right, and one ``map`` of
    their verdicts.  The stop test before a cell reads the straddling
    volume as a count of cells one level deeper; splitting a cell lowers
    that count by at most 2 (the cell goes, its straddling halves come), so
    with ``slack`` the count's excess over the stop threshold, the test
    passes before each of the next ``slack//2 + 1`` cells.  A chunk of at
    most that many cells (and at most the budget left and ``CHUNK``)
    therefore splits the cells that a one-cell-at-a-time FIFO splits, in
    its order: the bracket, the counts, ``converged`` and the witness boxes
    are the FIFO's, bit for bit.
    """
    region = region_of(E)
    check_axes(region, fam.dimension)
    eps = _exact_eps(epsilon)
    if budget < 1:
        raise InputError(f"the cell budget must be at least 1, got {budget}")
    total = fam.total
    if getattr(region, "dense", False) and getattr(region, "codense", False):
        return MeasureBracket(
            inner=Fraction(0),
            outer=total,
            inner_cells=(),
            straddle_cells=(fam.bounding,),
            converged=total < eps,
            certified_diverged=total > 0,
        )
    lattice = DyadicLattice(fam.bounding)
    verdicts = lattice_classifier(region, lattice)
    p, q = (eps / total).as_integer_ratio() if total else (1, 0)

    def need(depth):
        # fewest straddling cells of depth ``depth`` whose volume reaches eps
        return -(-(p << depth) // q) if q else math.inf

    # the straddling cells of ``depth`` not yet split, last first, and those
    # of depth + 1, in order; the halves split last are of depth + 1
    todo: list[tuple[int, ...]] = []
    queue: list[tuple[int, ...]] = []
    inner: list[list[tuple[int, ...]]] = []  # inner[S]: IN cells of depth S, in order
    depth = -1  # the root is the half of depth -1
    halves, classify = [(0,) * lattice.dimension], verdicts(0)
    splits = 0
    while True:
        if len(inner) == depth + 1:
            inner.append([])
        inside = inner[-1]
        for cell, kind in zip(halves, map(classify, halves)):
            if kind == IN:
                inside.append(cell)
            elif kind == STRADDLE:
                queue.append(cell)
        # the straddling volume is units * total/2**(at+1), with ``at`` the
        # depth of the next cells split: queue moves to todo when todo is
        # empty
        units, at = (2 * len(todo) + len(queue), depth) if todo else (2 * len(queue), depth + 1)
        slack = units - need(at + 1)
        if slack < 0 or splits == budget:
            break
        if not todo:
            depth += 1
            todo.extend(reversed(queue))
            queue.clear()
            split, classify = lattice.halves(depth), verdicts(depth + 1)
        n = min(slack // 2 + 1, budget - splits, CHUNK)
        halves = split(todo[:-n - 1:-1])  # the next n cells, oldest first
        del todo[-n:]
        splits += len(halves) // 2
    deepest = len(inner) - 1
    inner_units = sum(len(cells) << (deepest - s) for s, cells in enumerate(inner))
    inner_vol = total * Fraction(inner_units, 1 << deepest)
    gap = total * Fraction(2 * len(todo) + len(queue), 1 << (depth + 1))

    def witness():
        boxes = lattice.boxes
        straddle = boxes(depth, reversed(todo)) + boxes(depth + 1, queue)
        return tuple(box for s, cells in enumerate(inner) for box in boxes(s, cells)), tuple(straddle)

    counts = (sum(map(len, inner)), len(todo) + len(queue))
    return MeasureBracket._deferred(inner_vol, inner_vol + gap, gap < eps, witness, counts, splits)


def outer_measure(E, fam, epsilon=Fraction(1, 1024), budget: int = DEFAULT_BUDGET):
    """Infimum of measures of measurable supersets (bracketed on boxes)."""
    if isinstance(fam, Fam):
        return fam(fam.algebra.ceil(E))
    return measure_bracket(E, fam, epsilon, budget).outer


def inner_measure(E, fam, epsilon=Fraction(1, 1024), budget: int = DEFAULT_BUDGET):
    """Supremum of measures of measurable subsets (bracketed on boxes)."""
    if isinstance(fam, Fam):
        return fam(fam.algebra.floor(E))
    return measure_bracket(E, fam, epsilon, budget).inner


def is_jordan(E, fam, epsilon=Fraction(1, 1024), budget: int = DEFAULT_BUDGET) -> JordanReport:
    """Jordan measurability verdict with a sandwich witness ``A <= E <= B``."""
    if isinstance(fam, Fam):
        return _finite_is_jordan(E, fam)
    bracket = measure_bracket(E, fam, epsilon, budget)
    if bracket.converged:
        def witness():
            A = BoxElem.from_disjoint(bracket.inner_cells)
            B = BoxElem.from_disjoint(bracket.inner_cells + bracket.straddle_cells)
            return A, B

        # from_disjoint keeps every cell of positive volume and drops the
        # rest; the cells have zero volume exactly when the bounding box does
        n_inner, n_straddle = bracket.cell_counts
        sizes = (n_inner, n_inner + n_straddle) if fam.total else (0, 0)
        return JordanReport._deferred(
            bracket.inner, bracket.outer, (bracket.inner + bracket.outer) / 2, witness, sizes
        )
    if bracket.certified_diverged:
        return JordanReport(jordan=False, inner=bracket.inner, outer=bracket.outer)
    return JordanReport(jordan=None, inner=bracket.inner, outer=bracket.outer)


def integrate_simple(cells, fam: VolumeFam, epsilon, budget: int = DEFAULT_BUDGET) -> IntegralReport:
    """Integral of a simple function given as (region, constant) cells.

    Integrable iff every cell is Jordan at the working tolerance; a
    certified non-Jordan cell with pairwise distinct nonzero constants
    certifies non-integrability.
    """
    eps = _exact_eps(epsilon)
    consts = [as_fraction(str(c)) if isinstance(c, float) else as_fraction(c) for _, c in cells]
    regions = [region_of(E) for E, _ in cells]
    boxy = [r for r in regions if isinstance(r, BoxElem)]
    for i in range(len(boxy)):
        for j in range(i + 1, len(boxy)):
            for a in boxy[i].boxes:
                for b in boxy[j].boxes:
                    if box_intersect(a, b) is not None:
                        raise InputError("simple-function cells overlap")
    scale = max(sum(abs(c) for c in consts), Fraction(1))
    per_cell_eps = eps / (scale * max(len(cells), 1))
    reports = [is_jordan(r, fam, per_cell_eps, budget) for r in regions]
    lower = Fraction(0)
    upper = Fraction(0)
    for c, rep in zip(consts, reports):
        lo, hi = rep.inner, rep.outer
        if c >= 0:
            lower += c * lo
            upper += c * hi
        else:
            lower += c * hi
            upper += c * lo
    if all(rep.jordan for rep in reports):
        value = sum((c * rep.measure for c, rep in zip(consts, reports)), Fraction(0))
        return IntegralReport(
            status=INTEGRABLE, lower=lower, upper=upper, value=value,
            epsilon=eps, backend="box",
        )
    distinct = len(set(consts)) == len(consts) and all(c != 0 for c in consts)
    if distinct and any(rep.jordan is False for rep in reports):
        return IntegralReport(
            status=NOT_INTEGRABLE, lower=lower, upper=upper, epsilon=eps, backend="box",
        )
    return IntegralReport(status=UNDECIDED, lower=lower, upper=upper, epsilon=eps, backend="box")
