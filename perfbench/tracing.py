"""Runtime spans and counters around famkit's layers, installed from outside.

Nothing under ``src/`` is edited: ``install`` builds timing wrappers for
the public entry points of each layer, for every module namespace that holds
them (``cli`` and ``extend`` import names directly, so patching the defining
module alone would miss their calls), and returns them as a set that can be
switched on and off between rounds.  Coarse calls become spans
(name, start, end, parent, problem id) kept in memory; hot leaf calls (range
oracles, region classification, simplex pivots) only bump counters and
busy time, because a span per call would cost more memory than the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, problem id]
        self.stack: list[int] = []
        self.problem = None
        self.counts: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1, tracer.problem]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                tracer.stack.pop()
            if on_result is not None:
                on_result(result, args, record)
            return result

        return wrapper

    def leaf(self, group, fn, also=None):
        """Wrap a hot call: count it and time it when no call of the same
        group is already open (so nested calls are not timed twice)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if also is not None:
                tracer.counts[also] += 1
            if tracer.depth[group]:
                return fn(*args, **kwargs)
            tracer.depth[group] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.busy_ns[group] += perf_counter_ns() - start
                tracer.counts[group] += 1
                tracer.depth[group] -= 1

        return wrapper

    def count(self, name, fn, amount=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[name] += amount(result, args) if amount else 1
            return result

        return wrapper


class Patches:
    """Wrapped attributes of famkit's modules and classes, switched as a set."""

    def __init__(self):
        self.items = []  # (owner, name, original, wrapped)

    def add(self, owner, name, wrapped):
        self.items.append((owner, name, vars(owner)[name], wrapped))

    def function(self, modules, name, wrapper_of):
        """Wrap function ``name`` in every module that holds the same object."""
        original = getattr(modules[0], name)
        wrapped = wrapper_of(original)
        for module in modules:
            if getattr(module, name, None) is original:
                self.add(module, name, wrapped)

    def method(self, cls, name, wrapper_of):
        self.add(cls, name, wrapper_of(getattr(cls, name)))

    def apply(self, on: bool):
        for owner, name, original, wrapped in self.items:
            setattr(owner, name, wrapped if on else original)


def install(tracer: Tracer) -> Patches:
    """Build the wrappers for every layer; ``apply(True)`` turns them on."""
    # famkit/__init__ rebinds the name ``famkit.integrate`` to the function,
    # so the modules are taken from importlib, not from the package
    names = ("_refine", "_refine_py", "boolalg", "boxes", "cantor", "cli", "extend",
             "functions", "integrate", "jsonio", "simplex")
    everywhere = [importlib.import_module(f"famkit.{n}") for n in names]
    _refine, _refine_py, boolalg, boxes, cantor, cli, extend, functions, integrate, jsonio, simplex = everywhere
    c = tracer.counts
    patches = Patches()

    def first_of(*defining):
        return [m for m in defining] + [m for m in everywhere if m not in defining]

    # refinement engine: refine_poly (which calls refine_generic in the pure
    # Python backend) and refine_generic for scalar oracles
    def refined(result, args, record):
        if tracer.parent_name() != "refine":
            c["refine.calls"] += 1
            c["refine.cells"] += result[2]
            c["refine.converged"] += bool(result[3])

    patches.function(first_of(_refine, _refine_py), "refine_poly", lambda f: tracer.span("refine", f, refined))
    patches.function(first_of(_refine_py), "refine_generic", lambda f: tracer.span("refine", f, refined))

    def gridded(result, args, record):
        c["grid.cells"] += result[2]

    patches.function(first_of(integrate), "_refine_grid", lambda f: tracer.span("grid", f, gridded))

    # range oracles
    patches.function(first_of(_refine_py, _refine), "poly_range", lambda f: tracer.leaf("oracle.poly_range", f))
    for cls in (functions.PolynomialFn, functions.PiecewiseConstantFn, functions.IndicatorFn,
                functions.RestrictedFn, functions.LipschitzFn):
        patches.method(cls, "range_on", lambda f: tracer.leaf("oracle.range_on", f))

    # region classification (timed at the outermost region only)
    for cls in (functions.DenseCodenseRegion, functions.PointRegion, functions.RegionComplement,
                functions.RegionUnion, functions.RegionIntersection, boxes.BoxElem):
        patches.method(cls, "classify", lambda f: tracer.leaf("classify", f))
    half = functions.HalfPlaneRegion
    patches.method(half, "classify", lambda f: tracer.leaf("classify", f, also="classify.halfplane"))
    patches.method(half, "_classify_exact", lambda f: tracer.count("classify.exact_fallback_calls", f))

    # exact brackets, Jordan verdicts and their witnesses
    def bracketed(result, args, record):
        c["bracket.calls"] += 1

    def bracket_wrapper(f):
        spanned = tracer.span("bracket", f, bracketed)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            before = c["classify"]
            try:
                return spanned(*args, **kwargs)
            finally:
                c["bracket.cells"] += c["classify"] - before

        return wrapper

    patches.function(first_of(integrate), "measure_bracket", bracket_wrapper)
    patches.function(first_of(integrate), "is_jordan", lambda f: tracer.span("jordan", f))
    patches.function(first_of(integrate), "integrate", lambda f: tracer.span("integrate", f))

    def witnessed(result, args, record):
        c["witness.boxes"] += len(result.boxes)

    from_disjoint = boxes.BoxElem.from_disjoint.__func__
    patches.add(boxes.BoxElem, "from_disjoint", classmethod(tracer.span("witness", from_disjoint, witnessed)))

    # Cantor cylinders
    def cylinders(result, args, record):
        c["cantor.cylinders"] += 2 ** args[-1] if isinstance(args[-1], int) else 0

    patches.function(first_of(cantor), "cantor_integrate", lambda f: tracer.span("cantor", f))
    patches.function(first_of(cantor), "lebesgue_vitali_check", lambda f: tracer.span("cantor", f))
    patches.function(first_of(cantor), "oscillation_cover", lambda f: tracer.span("cantor", f, cylinders))
    patches.function(first_of(cantor), "_depth_sums", lambda f: tracer.span("cantor", f, cylinders))
    patches.function(first_of(cantor), "clopen_measure", lambda f: tracer.span("clopen", f))
    patches.method(cantor.CantorClopen, "__init__", lambda f: tracer.span("clopen", f))

    # boolean algebras
    def generated(result, args, record):
        c["algebra.calls"] += 1
        c["algebra.atoms"] += result.atom_count

    patches.function(first_of(boolalg), "generate_algebra", lambda f: tracer.span("algebra", f, generated))

    # exact simplex
    def solved(result, args, record):
        c["simplex.solves"] += 1

    patches.function(first_of(simplex), "solve_feasibility", lambda f: tracer.span("simplex", f, solved))
    patches.function(first_of(simplex), "optimize", lambda f: tracer.span("simplex", f, solved))
    tab = simplex._Tableau
    patches.method(tab, "_pivot", lambda f: tracer.count("simplex.pivots", f))
    patches.method(tab, "phase1", lambda f: tracer.count("simplex.phase1_runs", f))
    patches.method(tab, "__init__", lambda f: tracer.count(
        "simplex.tableau_entries", f, lambda result, args: args[0].m * args[0].width))

    # extension solvers
    for name in ("extend_assignment", "value_range", "compatible", "amalgamate",
                 "fam_with_constraints", "extend_with_filter", "three_way_extend",
                 "fam_with_integral_constraints", "ultrafilter_with_limits"):
        patches.function(first_of(extend), name, lambda f: tracer.span("extend", f))
    patches.function(first_of(extend), "check_separating_vector",
                    lambda f: tracer.count("extend.certificates_checked", f))
    return patches


def _outermost_total(spans, name):
    return sum(s[2] - s[1] for s in spans if s[0] == name and (s[3] < 0 or spans[s[3]][0] != name))


def self_times(spans):
    """Self time per span name: duration minus the time its children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        out[s[0]] += s[2] - s[1] - child[i]
    return dict(out)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, rounds: int, output_bytes: int):
    """The per-layer metrics, as totals per round (every round has the same mix)."""
    spans, c, busy = tracer.spans, tracer.counts, tracer.busy_ns
    own = self_times(spans)
    total = {name: _outermost_total(spans, name)
             for name in ("refine", "grid", "bracket", "witness", "cantor", "clopen", "algebra", "simplex")}
    per = 1 / rounds
    m = {
        "refine.calls": (c["refine.calls"] * per, "count/round"),
        "refine.cells": (c["refine.cells"] * per, "count/round"),
        "refine.busy_s": (total["refine"] * 1e-9 * per, "s/round"),
        "refine.us_per_cell": (_ratio(total["refine"] * 1e-3, c["refine.cells"]), "us"),
        "refine.converged_share": (_ratio(c["refine.converged"], c["refine.calls"]), "ratio"),
        "oracle.poly_range.calls": (c["oracle.poly_range"] * per, "count/round"),
        "oracle.poly_range.ns_per_call": (_ratio(busy["oracle.poly_range"], c["oracle.poly_range"]), "ns"),
        "oracle.range_on.calls": (c["oracle.range_on"] * per, "count/round"),
        "oracle.range_on.ns_per_call": (_ratio(busy["oracle.range_on"], c["oracle.range_on"]), "ns"),
        "grid.cells": (c["grid.cells"] * per, "count/round"),
        "grid.busy_s": (total["grid"] * 1e-9 * per, "s/round"),
        "bracket.calls": (c["bracket.calls"] * per, "count/round"),
        "bracket.cells": (c["bracket.cells"] * per, "count/round"),
        "bracket.busy_s": (total["bracket"] * 1e-9 * per, "s/round"),
        "bracket.us_per_cell": (_ratio(total["bracket"] * 1e-3, c["bracket.cells"]), "us"),
        "classify.calls": (c["classify"] * per, "count/round"),
        "classify.us_per_call": (_ratio(busy["classify"] * 1e-3, c["classify"]), "us"),
        "classify.exact_fallback_calls": (c["classify.exact_fallback_calls"] * per, "count/round"),
        "classify.exact_fallback_share": (
            _ratio(c["classify.exact_fallback_calls"], c["classify.halfplane"]), "ratio"),
        "witness.boxes": (c["witness.boxes"] * per, "count/round"),
        "witness.busy_ms": (total["witness"] * 1e-6 * per, "ms/round"),
        "cantor.cylinders": (c["cantor.cylinders"] * per, "count/round"),
        "cantor.busy_s": (total["cantor"] * 1e-9 * per, "s/round"),
        "cantor.us_per_cylinder": (_ratio(total["cantor"] * 1e-3, c["cantor.cylinders"]), "us"),
        "cantor.clopen_ms": (total["clopen"] * 1e-6 * per, "ms/round"),
        "algebra.calls": (c["algebra.calls"] * per, "count/round"),
        "algebra.atoms": (c["algebra.atoms"] * per, "count/round"),
        "algebra.busy_ms": (total["algebra"] * 1e-6 * per, "ms/round"),
        "simplex.solves": (c["simplex.solves"] * per, "count/round"),
        "simplex.phase1_runs": (c["simplex.phase1_runs"] * per, "count/round"),
        "simplex.pivots": (c["simplex.pivots"] * per, "count/round"),
        "simplex.busy_s": (total["simplex"] * 1e-9 * per, "s/round"),
        "simplex.ms_per_pivot": (_ratio(total["simplex"] * 1e-6, c["simplex.pivots"]), "ms"),
        "simplex.tableau_entries": (c["simplex.tableau_entries"] * per, "count/round"),
        "extend.self_ms": (own.get("extend", 0) * 1e-6 * per, "ms/round"),
        "extend.certificates_checked": (c["extend.certificates_checked"] * per, "count/round"),
        "cli.self_ms": (own.get("cli", 0) * 1e-6 * per, "ms/round"),
        "cli.output_bytes": (output_bytes * per, "B/round"),
    }
    return m, {name: ns * 1e-6 * per for name, ns in own.items()}
