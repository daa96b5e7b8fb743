"""famkit command line: parse problem files, dispatch, emit JSON reports.

Exit codes: 0 success/feasible, 3 infeasible/not-integrable/not-jordan,
4 undecided, 2 input error, 1 stdout closed by its reader.  Reports go to
stdout, diagnostics to stderr; output is deterministic for fixed input and
flags.

``COMMANDS`` gives each subcommand its handler and the flags it reads,
which its parser takes with ``--in`` and ``--format`` and nothing else.  A
flag replaces the problem-file entry of its name (``--eps`` the ``epsilon``
entry); ``--budget`` has none.

Each handler imports the modules its subcommand runs, so a process loads
only the engine it uses: ``extend`` never compiles the box backend, and
``integrate`` never the simplex.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import FamkitError, InputError

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_UNDECIDED = 4

STATUS_EXIT = {
    "feasible": EXIT_OK,
    "integrable": EXIT_OK,
    "infeasible": EXIT_NEGATIVE,
    "not_integrable": EXIT_NEGATIVE,
    "undecided": EXIT_UNDECIDED,
}


def _cell_budget(text: str) -> int:
    """``--budget``: a cell count, so at least 1."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


def _problem(args) -> dict:
    """The problem file, each entry replaced by the flag of its name where
    one is given.  ``--in -`` reads stdin, as no ``--in`` does, except in
    the subcommands that take ``--fn`` or ``--region``: their flags can
    state the whole problem."""
    given = vars(args)
    if args.infile is None and {"fn", "region"} & given.keys():
        text = "{}"
    elif args.infile in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read problem file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON problem file: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must be a JSON object")
    for entry in ("fn", "box", "region", "epsilon", "depth", "op"):
        if given.get(entry) is not None:
            data[entry] = json.loads(given[entry]) if entry in ("fn", "box", "region") else given[entry]
    return data


def _emit(report: dict, args) -> None:
    from .jsonio import jsonable

    if args.format == "table":
        for key, value in report.items():
            print(f"{key}: {json.dumps(jsonable(value), allow_nan=False, sort_keys=True)}")
    else:
        print(json.dumps(jsonable(report), allow_nan=False, indent=2, sort_keys=True))


def _report_integral(rep, args) -> int:
    out = {
        "status": rep.status,
        "lower": rep.lower,
        "upper": rep.upper,
        "value": rep.value,
        "epsilon": rep.epsilon,
        "backend": rep.backend,
        "trace": [list(t) for t in rep.trace],
    }
    _emit(out, args)
    return STATUS_EXIT[rep.status]


# -- subcommand handlers -------------------------------------------------


def _cmd_algebra(data, args) -> int:
    from .jsonio import algebra_json, parse_algebra

    algebra = parse_algebra(data)
    _emit(
        {
            "algebra": algebra_json(algebra),
            "atom_count": algebra.atom_count,
            "size": algebra.size(),
        },
        args,
    )
    return EXIT_OK


def _cmd_fam_check(data, args) -> int:
    from .jsonio import fam_json, parse_fam

    fam = parse_fam(data)
    _emit({"fam": fam_json(fam), "total": fam.total}, args)
    return EXIT_OK


def _cmd_classify(data, args) -> int:
    from .fam import classify, has_uap, uniformly_supported
    from .jsonio import parse_fam, set_json

    fam = parse_fam(data)
    flags = classify(fam)
    witness = uniformly_supported(fam) if fam.total > 0 else None
    _emit(
        {
            "probability": flags.probability,
            "strictly_positive": flags.strictly_positive,
            "free": flags.free,
            "finite_sets_null": flags.finite_sets_null,
            "uap": has_uap(fam),
            "d": witness.d if witness else None,
            "support": [set_json(c) for c in witness.support.cells] if witness else None,
        },
        args,
    )
    return EXIT_OK


def _cmd_approx(data, args) -> int:
    from .approx import approx_uniform, approx_uniform_small
    from .boolalg import Partition
    from .jsonio import parse_fam, parse_partition, parse_rational, parse_set, set_json, set_key

    fam = parse_fam(data["fam"])
    partition = (
        parse_partition(data["partition"], fam.algebra)
        if "partition" in data
        else Partition.of_atoms(fam.algebra)
    )
    epsilon = parse_rational(data.get("epsilon", "1/8"))
    avoid = parse_set(data["avoid"], fam.algebra.ground) if "avoid" in data else None
    if data.get("small"):
        result = approx_uniform_small(fam, partition, epsilon)
    else:
        result = approx_uniform(fam, partition, epsilon, avoid=avoid)
    _emit(
        {
            "u": set_json(result.u),
            "mu": {fam.algebra.ground.labels[i]: m for i, m in sorted(result.mu.items())},
            "uniform": result.uniform,
            "errors_per_cell": {
                set_key(cell): err
                for cell, err in result.errors_per_cell(fam, partition).items()
            },
        },
        args,
    )
    return EXIT_OK


def _cmd_extend(data, args) -> int:
    from .extend import PartialAssignment, extend_assignment, value_range
    from .jsonio import parse_ground, parse_rational, parse_set, set_json

    ground = parse_ground(data["ground"])
    pairs = [(parse_set(s, ground), parse_rational(v)) for s, v in data["pairs"]]
    assignment = PartialAssignment(ground, pairs)
    result = extend_assignment(assignment)
    out = {"result": result}
    if "value_range_of" in data:
        target = parse_set(data["value_range_of"], ground)
        bounds = value_range(assignment, target)
        out["value_range_of"] = set_json(target)
        out["value_range"] = list(bounds) if bounds else None
    _emit(out, args)
    return STATUS_EXIT[result.status]


def _cmd_compatible(data, args) -> int:
    from .extend import compatible
    from .jsonio import parse_fam

    fam0, fam1 = parse_fam(data["fam0"]), parse_fam(data["fam1"])
    ok, certificate = compatible(fam0, fam1)
    _emit({"compatible": ok, "certificate": certificate}, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_amalgamate(data, args) -> int:
    from .extend import amalgamate
    from .jsonio import parse_fam

    result = amalgamate(parse_fam(data["fam0"]), parse_fam(data["fam1"]))
    _emit({"result": result}, args)
    return STATUS_EXIT[result.status]


def _cmd_extend_filter(data, args) -> int:
    from .extend import extend_with_filter
    from .jsonio import parse_fam, parse_set

    fam0 = parse_fam(data["fam0"])
    gens = [parse_set(s, fam0.algebra.ground) for s in data["generators"]]
    result = extend_with_filter(fam0, gens)
    _emit({"result": result}, args)
    return STATUS_EXIT[result.status]


def _cmd_three_way(data, args) -> int:
    from .extend import three_way_extend
    from .jsonio import parse_fam, parse_set

    fam0, fam1 = parse_fam(data["fam0"]), parse_fam(data["fam1"])
    gens = [parse_set(s, fam0.algebra.ground) for s in data["generators"]]
    result = three_way_extend(fam0, fam1, gens)
    _emit({"result": result}, args)
    return STATUS_EXIT[result.status]


def _cmd_constrain(data, args) -> int:
    from .extend import fam_with_constraints, fam_with_integral_constraints, ultrafilter_with_limits
    from .jsonio import parse_fam, parse_ground, parse_rational, parse_set, parse_table, parse_target

    targets = [parse_target(t) for t in data.get("targets", [])]
    if "ultra" in data:
        ultra = parse_fam(data["ultra"])
        tables = [parse_table(fn, ultra.algebra.ground) for fn in data.get("fns", [])]
        result = ultrafilter_with_limits(ultra, tables, targets)
    elif "fam0" in data:
        fam0 = parse_fam(data["fam0"])
        tables = [parse_table(fn, fam0.algebra.ground) for fn in data.get("fns", [])]
        result = fam_with_integral_constraints(fam0, tables, targets)
    else:
        ground = parse_ground(data["ground"])
        sets = [parse_set(s, ground) for s in data["sets"]]
        delta = parse_rational(data.get("delta", 1))
        result = fam_with_constraints(ground, sets, targets, delta)
    _emit({"result": result}, args)
    return STATUS_EXIT[result.status]


def _box_fam(data):
    from .boxes import VolumeFam

    box = data.get("box")
    if box is None:
        raise InputError("box backend needs --box or a box entry")
    return VolumeFam(box)


def _cmd_integrate(data, args) -> int:
    from .integrate import DEFAULT_BUDGET, integrate, integrate_over
    from .jsonio import parse_fam, parse_fn, parse_set, parse_table

    if "fn" in data:
        fam = _box_fam(data)
        fn = parse_fn(data["fn"], fam.dimension)
        report = integrate(fn, fam, data.get("epsilon", "1e-6"), args.budget or DEFAULT_BUDGET,
                           data.get("strategy", "adaptive"))
        return _report_integral(report, args)
    fam = parse_fam(data["fam"])
    table = parse_table(data["table"], fam.algebra.ground)
    if "over" in data:
        report = integrate_over(
            table, parse_set(data["over"], fam.algebra.ground), fam
        )
    else:
        report = integrate(table, fam)
    return _report_integral(report, args)


def _cmd_jordan(data, args) -> int:
    from .integrate import DEFAULT_BUDGET, is_jordan
    from .jsonio import parse_rational, parse_region

    fam = _box_fam(data)
    region = parse_region(data["region"])
    eps = parse_rational(data.get("epsilon", "1/1024"))
    report = is_jordan(region, fam, eps, budget=args.budget or DEFAULT_BUDGET)
    out = {
        "jordan": report.jordan,
        "inner": report.inner,
        "outer": report.outer,
        "measure": report.measure,
    }
    if report.witness_sizes:
        out["witness_inner_boxes"], out["witness_outer_boxes"] = report.witness_sizes
    _emit(out, args)
    if report.jordan is True:
        return EXIT_OK
    return EXIT_NEGATIVE if report.jordan is False else EXIT_UNDECIDED


def _cmd_measure(data, args) -> int:
    from .integrate import DEFAULT_BUDGET, inner_measure, measure_bracket, outer_measure
    from .jsonio import parse_fam, parse_rational, parse_region, parse_set

    if "fam" in data:
        fam = parse_fam(data["fam"])
        target = parse_set(data["set"], fam.algebra.ground)
        inner = inner_measure(target, fam)
        outer = outer_measure(target, fam)
    else:
        fam = _box_fam(data)
        region = parse_region(data["region"])
        eps = parse_rational(data.get("epsilon", "1/1024"))
        bracket = measure_bracket(region, fam, eps, budget=args.budget or DEFAULT_BUDGET)
        inner, outer = bracket.inner, bracket.outer
    _emit({"inner": inner, "outer": outer}, args)
    return EXIT_OK


def _cmd_cantor(data, args) -> int:
    from .cantor import DEFAULT_DEPTH_BUDGET, cantor_integrate, lebesgue_vitali_check, oscillation_cover
    from .jsonio import parse_fn, parse_rational

    fn = parse_fn(data["fn"], 1)
    op = data.get("op", "integrate")
    depth = int(data.get("depth", DEFAULT_DEPTH_BUDGET))
    eps = data.get("epsilon", "1e-4")
    if op == "integrate":
        report = cantor_integrate(fn, depth_budget=depth, epsilon=eps)
        return _report_integral(report, args)
    if op == "vitali":
        report = lebesgue_vitali_check(fn, epsilon=eps, depth_budget=depth)
        _emit(
            {
                "verdict": report.verdict,
                "oscillation_profile": [
                    {"threshold": t, "depth": d, "measure": m}
                    for t, d, m in report.oscillation_profile
                ],
            },
            args,
        )
        return STATUS_EXIT[report.verdict]
    if op == "cover":
        threshold = parse_rational(data.get("threshold", "1/4"))
        cover = oscillation_cover(fn, threshold, depth)
        _emit({"cover": list(cover.cover.words), "measure": cover.measure}, args)
        return EXIT_OK
    raise InputError(f"unknown cantor op {op!r}")


#: Each subcommand's handler and the flags it reads besides ``--in`` and ``--format``.
COMMANDS = {
    "algebra": (_cmd_algebra, ()),
    "fam-check": (_cmd_fam_check, ()),
    "classify": (_cmd_classify, ()),
    "approx": (_cmd_approx, ("--eps",)),
    "extend": (_cmd_extend, ()),
    "compatible": (_cmd_compatible, ()),
    "amalgamate": (_cmd_amalgamate, ()),
    "extend-filter": (_cmd_extend_filter, ()),
    "three-way": (_cmd_three_way, ()),
    "constrain": (_cmd_constrain, ()),
    "integrate": (_cmd_integrate, ("--fn", "--box", "--eps", "--budget")),
    "jordan": (_cmd_jordan, ("--region", "--box", "--eps", "--budget")),
    "measure": (_cmd_measure, ("--region", "--box", "--eps", "--budget")),
    "cantor": (_cmd_cantor, ("--fn", "--eps", "--depth", "--op")),
}

FLAGS = {
    "--eps": dict(dest="epsilon", metavar="EPS", help="tolerance (rational or decimal string)"),
    "--depth": dict(type=int, help="cylinder depth budget"),
    # no default: the handlers fall back on integrate.DEFAULT_BUDGET, which only they import
    "--budget": dict(type=_cell_budget, help="cell budget (at least 1)"),
    "--fn": dict(help="function DSL (JSON)"),
    "--box": dict(help="bounding box (JSON)"),
    "--region": dict(help="region DSL (JSON)"),
    "--op": dict(help="cantor operation: integrate|vitali|cover (default integrate)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing only reads it, and argparse looks up the output streams and the
    terminal width when it prints, so one instance serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="famkit",
        description="finitely additive measures: extension solvers, Darboux integration, Jordan measure",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", default=None, help="problem file (JSON), - for stdin")
        p.add_argument("--format", choices=["json", "table"], default="json")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``famkit ... | head``): send what is still
        # buffered to devnull, since Python flushes stdout again at exit, and
        # leave without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        handler, _ = COMMANDS[args.command]
        return handler(_problem(args), args)
    except FamkitError as exc:
        print(f"famkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (KeyError, TypeError, ValueError) as exc:
        print(f"famkit: bad problem file: {exc!r}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
