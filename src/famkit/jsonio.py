"""JSON codecs for the problem-file formats used by the CLI.

Rationals travel as "p/q" strings (plain integers and decimal strings are
accepted on input), sets as sorted arrays of ground labels, algebras as
{"generators": ...} or {"atoms": ...}, fams as atom-keyed weight maps or
as a list of (set, value) pairs validated through the extension solver.

The extension solver, the function DSL and boxes are imported by the codecs
that use them, so that a subcommand loads only its own engine.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Any

from .boolalg import Algebra, GroundSet, Partition, SetElem, generate_algebra
from .errors import InputError
from .fam import Fam


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, float):
        # decimal strings are the documented form; accept floats via repr
        return Fraction(str(value))
    raise InputError(f"bad rational {value!r}")


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def parse_ground(data) -> GroundSet:
    if isinstance(data, int):
        return GroundSet.of_size(data)
    if isinstance(data, dict):
        if "labels" in data:
            return GroundSet(data["labels"])
        if "n" in data:
            return GroundSet.of_size(int(data["n"]))
    if isinstance(data, list):
        return GroundSet(data)
    raise InputError("ground must be an integer, a list of labels, or {labels|n: ...}")


def ground_json(ground: GroundSet):
    return {"labels": list(ground.labels)}


def parse_set(data, ground: GroundSet) -> SetElem:
    if not isinstance(data, list):
        raise InputError("a set must be an array of labels or indices")
    if all(isinstance(x, int) and not isinstance(x, bool) for x in data):
        return SetElem.from_indices(ground, data)
    return SetElem.from_labels(ground, [str(x) for x in data])


def set_json(elem: SetElem):
    return list(elem.members())


def set_key(elem: SetElem) -> str:
    return ",".join(elem.members())


def parse_algebra(data) -> Algebra:
    if not isinstance(data, dict):
        raise InputError("algebra must be an object")
    ground = parse_ground(data.get("ground"))
    if "atoms" in data:
        return Algebra(ground, [parse_set(s, ground) for s in data["atoms"]])
    if "generators" in data:
        return generate_algebra(ground, [parse_set(s, ground) for s in data["generators"]])
    return Algebra.trivial(ground)


def algebra_json(algebra: Algebra):
    return {
        "ground": ground_json(algebra.ground),
        "atoms": [set_json(a) for a in algebra.atoms],
    }


def parse_fam(data) -> Fam:
    if not isinstance(data, dict):
        raise InputError("fam must be an object")
    if "values" in data:
        from .extend import PartialAssignment, extend_assignment

        ground = parse_ground(data.get("ground"))
        pairs = [(parse_set(s, ground), parse_rational(v)) for s, v in data["values"]]
        if all(s.bits != ground.full_mask for s, _ in pairs):
            raise InputError("the values form must assign the full ground set")
        result = extend_assignment(PartialAssignment(ground, pairs))
        if not result.feasible:
            raise InputError("fam values are not additively consistent")
        return result.witness
    algebra = parse_algebra(data.get("algebra", data))
    weights_in = data.get("weights", {})
    weights = {}
    for key, value in weights_in.items():
        labels = [x for x in key.split(",") if x != ""]
        weights[SetElem.from_labels(algebra.ground, labels)] = parse_rational(value)
    unknown = set(w.bits for w in weights) - set(a.bits for a in algebra.atoms)
    if unknown:
        raise InputError("weights keyed by non-atoms")
    return Fam(algebra, weights)


def fam_json(fam: Fam):
    return {
        "algebra": algebra_json(fam.algebra),
        "weights": {
            set_key(a): rational_str(w) for a, w in zip(fam.algebra.atoms, fam.weights)
        },
        "total": rational_str(fam.total),
    }


def parse_partition(data, algebra: Algebra) -> Partition:
    if isinstance(data, dict):
        cells = data.get("cells", [])
    else:
        cells = data
    return Partition(algebra, [parse_set(c, algebra.ground) for c in cells])


def parse_target(data):
    if isinstance(data, dict):
        if "interval" in data:
            lo, hi = data["interval"]
            return (parse_rational(lo), parse_rational(hi))
        if "set" in data:
            return [parse_rational(v) for v in data["set"]]
        if "point" in data:
            return parse_rational(data["point"])
        raise InputError("target must carry interval, set, or point")
    if isinstance(data, list):
        if len(data) == 2:
            return (parse_rational(data[0]), parse_rational(data[1]))
        return [parse_rational(v) for v in data]
    return parse_rational(data)


def jsonable(value) -> Any:
    """Recursively render famkit values into plain JSON data; a non-finite
    float, which JSON has no number for, becomes the string "Infinity",
    "-Infinity" or "NaN"."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, SetElem):
        return set_json(value)
    if isinstance(value, Fam):
        return fam_json(value)
    if isinstance(value, Algebra):
        return algebra_json(value)
    # no value of these types exists before its module is imported
    extend = sys.modules.get("famkit.extend")
    if extend is not None:
        if isinstance(value, extend.Certificate):
            return {"kind": value.kind, "payload": jsonable(value.payload)}
        if isinstance(value, extend.ExtensionResult):
            out = {"status": value.status}
            if value.witness is not None:
                out["witness"] = fam_json(value.witness)
            if value.certificate is not None:
                out["certificate"] = jsonable(value.certificate)
            return out
    boxes = sys.modules.get("famkit.boxes")
    if boxes is not None and isinstance(value, boxes.BoxElem):
        return [[[rational_str(lo), rational_str(hi)] for lo, hi in b] for b in value.boxes]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


# -- function DSL -------------------------------------------------------


def _form(data: dict, forms: tuple[str, ...], what: str):
    """The form key of a DSL object and its value: the object's one key,
    which must be one of ``forms`` (a second key would go unread)."""
    if len(data) == 1:
        ((key, spec),) = data.items()
        if key in forms:
            return key, spec
    raise InputError(f"{what} object needs exactly one key, one of {', '.join(forms)}; got {list(data)}")


def parse_region(data):
    from .boxes import BoxElem, make_box
    from .functions import (
        DenseCodenseRegion,
        HalfPlaneRegion,
        RegionComplement,
        RegionIntersection,
        RegionUnion,
        triangle_under_diagonal,
    )

    if isinstance(data, str):
        if data == "dirichlet":
            return DenseCodenseRegion()
        if data == "triangle-xy":
            return triangle_under_diagonal()
        raise InputError(f"unknown named region {data!r}")
    if not isinstance(data, dict):
        raise InputError("region must be a name or an object")
    form, spec = _form(data, ("halfplane", "boxes", "union", "intersection", "complement"), "region")
    if form == "halfplane":
        return HalfPlaneRegion([parse_rational(c) for c in spec["normal"]], parse_rational(spec["offset"]))
    if form == "boxes":
        return BoxElem([make_box(b) for b in spec])
    if form == "union":
        return RegionUnion(*(parse_region(r) for r in spec))
    if form == "intersection":
        return RegionIntersection(*(parse_region(r) for r in spec))
    return RegionComplement(parse_region(spec))


def parse_fn(data, dimension: int):
    """The shared function DSL: poly, piecewise, indicator, or table."""
    from .boxes import make_box
    from .functions import IndicatorFn, PiecewiseConstantFn, PolynomialFn, add_term

    if not isinstance(data, dict):
        raise InputError("function must be an object")
    form, spec = _form(data, ("poly", "piecewise", "indicator"), "function")
    if form == "poly":
        if isinstance(spec, dict):
            terms = {}
            for t in spec["terms"]:
                add_term(terms, t["exps"], t["coeff"])
            return PolynomialFn(terms, dimension=dimension)
        return PolynomialFn(spec, dimension=dimension)
    if form == "piecewise":
        pieces = [(make_box(p["box"]), p["value"]) for p in spec.get("pieces", [])]
        return PiecewiseConstantFn(pieces, default=spec.get("default", 0.0))
    return IndicatorFn(parse_region(spec))


def parse_table(data, ground: GroundSet):
    if isinstance(data, dict) and "table" in data:
        data = data["table"]
    if isinstance(data, dict):
        return {k: parse_rational(v) for k, v in data.items()}
    if isinstance(data, list):
        return [parse_rational(v) for v in data]
    raise InputError("table must be an array or a label-keyed object")
