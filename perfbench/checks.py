"""Exact checkers for famkit's answers, written without famkit's code.

Every expected value is recomputed here with ``fractions.Fraction``:
antiderivatives for polynomial integrals, polygon clipping and the
box-simplex volume formula for region measures, and direct sums over
witness atoms and certificate vectors for extension problems.  A checker
returns ``None`` when the answer is correct and a one-line reason when it
is not.  ``corrupt`` makes a deliberately wrong copy of a correct answer,
so each run can confirm that its checker rejects it.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction as F

# -- exact integrals and volumes ---------------------------------------


def poly_terms(spec, dim):
    """(exponents, exact coefficient) pairs of the function DSL's ``poly``.

    famkit reads each coefficient with ``float``, so the exact value is that
    of the float, not of the decimal string.
    """
    if isinstance(spec, dict):
        return [(tuple(t["exps"]), F(float(t["coeff"]))) for t in spec["terms"]]
    return [((k,) + (0,) * (dim - 1), F(float(c))) for k, c in enumerate(spec)]


def poly_integral(terms, box):
    total = F(0)
    for exps, c in terms:
        term = c
        for e, (lo, hi) in zip(exps, box):
            term *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        total += term
    return total


def halfspace_volume(normal, offset, box):
    """Exact volume of ``{x in box : normal . x <= offset}``.

    Maps the box onto the unit cube, folds negative coefficients, and sums
    the inclusion-exclusion formula for a simplex cut by a cube.
    """
    scale = F(1)
    coeffs = []
    c = F(offset)
    for n, (lo, hi) in zip(normal, box):
        n, width = F(n), hi - lo
        scale *= width
        c -= n * lo
        a = n * width
        if a < 0:
            c -= a
            a = -a
        if a:
            coeffs.append(a)
    k = len(coeffs)
    if k == 0:
        return scale if c >= 0 else F(0)
    acc = F(0)
    for size in range(k + 1):
        for subset in itertools.combinations(coeffs, size):
            rest = c - sum(subset, F(0))
            if rest > 0:
                acc += (-1) ** size * rest ** k
    denom = math.factorial(k)
    for a in coeffs:
        denom *= a
    return scale * acc / denom


def _clip(polygon, a, b, c):
    """Clip a convex polygon (list of exact points) to ``a x + b y <= c``."""
    out = []
    for i, p in enumerate(polygon):
        q = polygon[(i + 1) % len(polygon)]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_area(polygon):
    twice = sum(
        (p[0] * q[1] - q[0] * p[1] for p, q in zip(polygon, polygon[1:] + polygon[:1])),
        F(0),
    )
    return abs(twice) / 2


def _atom_halfplanes(atom):
    if atom[0] == "h":
        return [atom[1:]]
    (x0, x1), (y0, y1) = atom[1]
    return [(-1, 0, -x0), (1, 0, x1), (0, -1, -y0), (0, 1, y1)]


def _indicator(spec, atoms):
    """The region's indicator as a multilinear polynomial in atom indicators.

    Keys are frozensets of atom indices (a product of their indicators);
    values are integer coefficients.  Halfplanes and boxes are the atoms.
    """
    def atom(entry):
        atoms.append(entry)
        return {frozenset([len(atoms) - 1]): 1}

    def mul(p, q):
        out = {}
        for ka, va in p.items():
            for kb, vb in q.items():
                key = ka | kb
                out[key] = out.get(key, 0) + va * vb
        return {k: v for k, v in out.items() if v}

    def add(p, q, sign=1):
        out = dict(p)
        for k, v in q.items():
            out[k] = out.get(k, 0) + sign * v
        return {k: v for k, v in out.items() if v}

    def union(p, q):
        return add(add(p, q), mul(p, q), -1)

    if spec == "triangle-xy":
        return atom(("h", F(-1), F(1), F(0)))
    if "halfplane" in spec:
        a, b = (F(v) for v in spec["halfplane"]["normal"])
        return atom(("h", a, b, F(spec["halfplane"]["offset"])))
    if "boxes" in spec:
        out = {}
        for box in spec["boxes"]:
            out = union(out, atom(("b", [(F(lo), F(hi)) for lo, hi in box])))
        return out
    parts = [_indicator(p, atoms) for p in spec.get("union", spec.get("intersection", []))]
    if "union" in spec:
        out = {}
        for p in parts:
            out = union(out, p)
        return out
    if "intersection" in spec:
        out = {frozenset(): 1}
        for p in parts:
            out = mul(out, p)
        return out
    if "complement" in spec:
        return add({frozenset(): 1}, _indicator(spec["complement"], atoms), -1)
    raise ValueError(f"unknown region {spec!r}")


def region_area(spec, box):
    """Exact area of a 2-D region DSL expression inside ``box``."""
    atoms = []
    poly = _indicator(spec, atoms)
    (x0, x1), (y0, y1) = box
    square = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    total = F(0)
    for key, coeff in poly.items():
        polygon = square
        for index in key:
            for a, b, c in _atom_halfplanes(atoms[index]):
                polygon = _clip(polygon, a, b, c)
                if not polygon:
                    break
        if len(polygon) >= 3:
            total += coeff * _polygon_area(polygon)
    return total


def region_measure(spec, box):
    if len(box) == 2:
        return region_area(spec, box)
    if isinstance(spec, dict) and "halfplane" in spec:
        h = spec["halfplane"]
        return halfspace_volume([F(v) for v in h["normal"]], F(h["offset"]), box)
    raise ValueError("only 2-D regions and single halfspaces have known measures")


def fn_integral_01(spec):
    """Exact integral over [0, 1] of a one-dimensional function DSL value."""
    unit = [(F(0), F(1))]
    if "poly" in spec:
        return poly_integral(poly_terms(spec["poly"], 1), unit)
    if "piecewise" in spec:
        pw = spec["piecewise"]
        total, covered = F(0), F(0)
        for piece in pw["pieces"]:
            lo, hi = (max(F(0), min(F(1), F(v))) for v in piece["box"][0])
            total += F(float(piece["value"])) * (hi - lo)
            covered += hi - lo
        return total + F(float(pw.get("default", 0))) * (1 - covered)
    if "indicator" in spec:
        h = spec["indicator"]["halfplane"]
        return halfspace_volume([F(v) for v in h["normal"]], F(h["offset"]), unit)
    raise ValueError(f"no exact integral for {spec!r}")


# -- extension answers --------------------------------------------------


def _label_set(labels, ground):
    index = {lab: i for i, lab in enumerate(ground)}
    return frozenset(index[str(x)] for x in labels)


def _witness(fam_json):
    """Atoms (frozensets of indices) with their exact weights; checks that the
    atoms partition the ground set and every weight is nonnegative."""
    ground = fam_json["algebra"]["ground"]["labels"]
    atoms = [_label_set(a, ground) for a in fam_json["algebra"]["atoms"]]
    weights = {}
    for key, value in fam_json["weights"].items():
        weights[_label_set([x for x in key.split(",") if x], ground)] = F(value)
    if sorted(map(sorted, weights)) != sorted(map(sorted, atoms)):
        return None, "witness weights are not keyed by its atoms"
    seen = set()
    for a in atoms:
        if not a or seen & a:
            return None, "witness atoms overlap or are empty"
        seen |= a
    if seen != set(range(len(ground))):
        return None, "witness atoms do not cover the ground set"
    if any(w < 0 for w in weights.values()):
        return None, "negative witness weight"
    return weights, None


def _value_on(weights, target):
    """Witness value of a set, or None when an atom straddles it."""
    total = F(0)
    for atom, w in weights.items():
        if atom <= target:
            total += w
        elif atom & target:
            return None
    return total


def _floor_ceil(weights, target):
    floor = sum((w for a, w in weights.items() if a <= target), F(0))
    ceil = sum((w for a, w in weights.items() if a & target), F(0))
    return floor, ceil


def _check_witness(fam_json, pairs):
    weights, reason = _witness(fam_json)
    if reason:
        return None, reason
    for s, v in pairs:
        got = _value_on(weights, s)
        if got is None:
            return None, "a witness atom straddles an assigned set"
        if got != v:
            return None, f"witness gives {got} where the assignment says {v}"
    return weights, None


def _check_violating_pair(cert, fams, ground):
    if not cert or cert.get("kind") != "violating_pair":
        return "missing violating-pair certificate"
    payload = cert["payload"]
    a = _label_set(payload["a"], ground)
    a_prime = _label_set(payload["a_prime"], ground)
    value_a, value_a_prime = F(payload["value_a"]), F(payload["value_a_prime"])
    if not a <= a_prime:
        return "certificate pair is not nested (a not inside a')"
    if not value_a > value_a_prime:
        return "certificate values are not violating (value_a <= value_a')"
    for i, j in ((0, 1), (1, 0)):
        if _value_on(fams[i], a) == value_a and _value_on(fams[j], a_prime) == value_a_prime:
            return None
    return "certificate values do not match the input fams"


def check_extend(expect, out):
    pairs = [(frozenset(s), F(v)) for s, v in expect["pairs"]]
    result = out["result"]
    if result["status"] != expect["status"]:
        return f"status {result['status']!r}, expected {expect['status']!r}"
    weights = None
    if expect["status"] == "feasible":
        weights, reason = _check_witness(result["witness"], pairs)
        if reason:
            return reason
    else:
        cert = result.get("certificate") or {}
        if cert.get("kind") != "h_vector":
            return "infeasible answer without an h-vector"
        ground = range(expect["n"])
        sets = [frozenset(int(x) for x in s) for s in cert["payload"]["sets"]]
        if sets != [s for s, _ in pairs]:
            return "h-vector sets differ from the assignment's sets"
        h = [int(x) for x in cert["payload"]["h"]]
        if any(sum(hv for (s, _), hv in zip(pairs, h) if x in s) < 0 for x in ground):
            return "h-vector combination is negative at some point"
        if not sum(hv * v for (_, v), hv in zip(pairs, h)) < 0:
            return "h-vector does not separate (dot product not negative)"
    if "target" in expect:
        rng = out.get("value_range")
        if expect["status"] != "feasible":
            return None if rng is None else "value range reported for an infeasible assignment"
        if rng is None:
            return "missing value range"
        lo, hi = F(rng[0]), F(rng[1])
        target = frozenset(expect["target"])
        hidden = F(expect["target_value"])
        if not F(0) <= lo <= hidden <= hi <= F(expect["total"]):
            return f"value range [{lo}, {hi}] misses the hidden measure's value {hidden}"
        floor, ceil = _floor_ceil(weights, target)
        if lo > ceil or hi < floor:
            return "value range misses every extension of the witness"
    return None


def _fam_atoms(fam_spec):
    return {
        frozenset(int(x) for x in key.split(",")): F(v)
        for key, v in fam_spec["weights"].items()
    }


def check_compatible(expect, out):
    if out["compatible"] != expect["compatible"]:
        return f"compatible={out['compatible']}, expected {expect['compatible']}"
    if expect["compatible"]:
        return None if out["certificate"] is None else "certificate on a compatible pair"
    fams = [_fam_atoms(expect["fam0"]), _fam_atoms(expect["fam1"])]
    return _check_violating_pair(out["certificate"], fams, [str(i) for i in range(expect["n"])])


def check_amalgamate(expect, out):
    result = out["result"]
    want = "feasible" if expect["compatible"] else "infeasible"
    if result["status"] != want:
        return f"status {result['status']!r}, expected {want!r}"
    fams = [_fam_atoms(expect["fam0"]), _fam_atoms(expect["fam1"])]
    if not expect["compatible"]:
        return _check_violating_pair(
            result.get("certificate"), fams, [str(i) for i in range(expect["n"])]
        )
    pairs = [(a, w) for fam in fams for a, w in fam.items()]
    _, reason = _check_witness(result["witness"], pairs)
    return reason


def _in_target(value, target):
    if isinstance(target, dict):
        return any(value == F(v) for v in target["set"])
    return F(target[0]) <= value <= F(target[1])


def check_constrain(expect, out):
    result = out["result"]
    if result["status"] != expect["status"]:
        return f"status {result['status']!r}, expected {expect['status']!r}"
    if expect["status"] != "feasible":
        return None
    weights, reason = _witness(result["witness"])
    if reason:
        return reason
    if sum(weights.values(), F(0)) != F(expect["delta"]):
        return "witness total differs from delta"
    for s, target in zip(expect["sets"], expect["targets"]):
        value = _value_on(weights, frozenset(s))
        if value is None or not _in_target(value, target):
            return f"constrained set value {value} outside its target"
    return None


# -- box, region and Cantor answers --------------------------------------


def check_integral(expect, out):
    if out["status"] != expect["status"]:
        return f"status {out['status']!r}, expected {expect['status']!r}"
    lower, upper = F(out["lower"]), F(out["upper"])
    if expect["status"] == "not_integrable":
        # the true lower and upper Darboux integrals are 0 and the box volume
        if lower > 0 or upper < F(expect["volume"]):
            return "bracket narrower than the certified oscillation floor"
        return None
    exact = F(expect["exact"])
    if not lower <= exact <= upper:
        return f"bracket [{float(lower)}, {float(upper)}] misses the exact {float(exact)}"
    if not upper - lower < F(expect["epsilon"]):
        return "bracket wider than epsilon on a converged answer"
    return None


def check_bracket(expect, out):
    inner, outer = F(out["inner"]), F(out["outer"])
    exact = F(expect["exact"])
    if not inner <= exact <= outer:
        return f"bracket [{inner}, {outer}] misses the exact measure {exact}"
    if not outer - inner < F(expect["epsilon"]):
        return "bracket wider than epsilon"
    if "jordan" in out:
        if out["jordan"] is not True:
            return f"jordan={out['jordan']}, expected true"
        if F(out["measure"]) != (inner + outer) / 2:
            return "reported measure is not the bracket midpoint"
        if not 0 <= out["witness_inner_boxes"] <= out["witness_outer_boxes"]:
            return "witness box counts out of order"
    return None


def check_cantor(expect, out):
    op = expect["op"]
    if op == "integrate":
        if out["status"] != expect["status"]:
            return f"status {out['status']!r}, expected {expect['status']!r}"
        if expect["status"] != "integrable":
            return None
        if abs(F(out["value"]) - F(expect["exact"])) > F(expect["epsilon"]):
            return f"Cantor value {out['value']} is not within epsilon of {float(F(expect['exact']))}"
        return None
    if op == "vitali":
        if out["verdict"] != expect["verdict"]:
            return f"verdict {out['verdict']!r}, expected {expect['verdict']!r}"
        return None
    words = out["cover"]
    measure = sum((F(1, 2 ** len(w)) for w in words), F(0))
    if measure != F(out["measure"]):
        return f"cover measure {out['measure']} differs from the recomputed {measure}"
    for a, b in itertools.permutations(words, 2):
        if b.startswith(a):
            return "cover words are not prefix-free"
    depth = expect["depth"]
    for point in expect["must_cover"]:
        k = math.floor(F(point) * 2 ** depth)
        word = format(k, f"0{depth}b") if depth else ""
        if not any(word.startswith(w) for w in words):
            return f"cover misses the cylinder of the jump at {point}"
    return None


CHECKERS = {
    "integral": check_integral,
    "bracket": check_bracket,
    "cantor": check_cantor,
    "extend": check_extend,
    "compatible": check_compatible,
    "amalgamate": check_amalgamate,
    "constrain": check_constrain,
}


def check(expect, out):
    """None if ``out`` (the parsed report) answers the problem correctly."""
    try:
        return CHECKERS[expect["check"]](expect, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"


# -- corruptions for the checker self-tests -------------------------------


def corrupt(expect, out):
    """A wrong copy of a correct report, or None if this kind has no corruption.

    Returns ``(what, bad_report)``.
    """
    kind = expect["check"]
    bad = copy.deepcopy(out)
    if kind == "extend" and expect["status"] == "feasible":
        weights = bad["result"]["witness"]["weights"]
        key = max(weights, key=lambda k: F(weights[k]))
        weights[key] = str(F(weights[key]) + F(1, 7))
        return "perturbed witness weight", bad
    if kind == "extend":
        h = bad["result"]["certificate"]["payload"]["h"]
        bad["result"]["certificate"]["payload"]["h"] = [-x for x in h]
        return "h-vector with flipped sign", bad
    if kind == "bracket":
        width = F(out["outer"]) - F(out["inner"])
        exact = F(expect["exact"])
        bad["inner"] = str(exact + width + F(1, 2 ** 30))
        bad["outer"] = str(exact + 2 * width + F(1, 2 ** 29))
        if "measure" in bad:
            bad["measure"] = str((F(bad["inner"]) + F(bad["outer"])) / 2)
        return "bracket missing the exact area", bad
    if kind == "cantor" and expect["op"] == "integrate" and expect["status"] == "integrable":
        eps = F(expect["epsilon"])
        sign = 1 if F(out["value"]) >= F(expect["exact"]) else -1
        bad["value"] = float(F(out["value"]) + sign * 2 * eps)
        return "Cantor value off by 2 epsilon", bad
    if kind == "cantor" and expect["op"] == "cover":
        bad["cover"] = out["cover"] + ["1" * (expect["depth"] + 1)]
        return "cover with an extra cylinder", bad
    if kind == "integral" and expect["status"] == "integrable":
        width = float(F(out["upper"]) - F(out["lower"]))
        shift = 2 * width + float(F(expect["epsilon"]))
        bad["lower"] = out["lower"] + shift
        bad["upper"] = out["upper"] + shift
        return "integral bracket shifted off the exact value", bad
    if kind == "compatible" and not expect["compatible"]:
        payload = bad["certificate"]["payload"]
        payload["value_a"], payload["value_a_prime"] = payload["value_a_prime"], payload["value_a"]
        return "violating pair with swapped values", bad
    return None
