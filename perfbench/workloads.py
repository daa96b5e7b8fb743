"""Seeded problem streams for the three workloads, one per famkit engine.

A workload is a list of rounds; every round has the same composition of
problem classes, so any number of whole rounds keeps the mix exact.  The
many cheap problems are drawn from the seed and sized through cost proxies
over fixed strata, so that each seed gives about the same work; the few
heavy problems are fixed fixtures, identical in every round and every seed,
sized to cost about the same as each other so that the latency tail does not
depend on how many rounds fit in a run.

Each problem is a dict with
  ``cmd``     the famkit subcommand (the problem file is its only input),
  ``input``   the JSON problem file,
  ``expect``  what ``checks.check`` needs to verify the answer exactly,
  ``cls``     its class within the round,
  ``props``   input properties recorded in the report.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

from checks import fn_integral_01, poly_integral, poly_terms, region_measure

ROUNDS = 12  # distinct rounds generated; a run that needs more cycles through them
# Each heavy fixture runs twice per round, so that two rounds already hold more
# than the ten samples the latency tail needs beyond it.
HEAVY_COPIES = 2


def _rat(x: F) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _eps(rng: random.Random, lo_exp: float, hi_exp: float) -> str:
    return f"{10 ** rng.uniform(lo_exp, hi_exp):.1e}"


def _is_dyadic(x: F) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _strata(rng, n):
    """n points of [0, 1), one in each of n equal slices, in random order.

    Cheap problems are sized from these, so every round holds the same spread
    of costs and only the numbers inside the problems change with the seed.
    """
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _problem(cmd, data, expect, cls, **props):
    return {"cmd": cmd, "input": data, "expect": expect, "cls": cls, "props": props}


# -- quadrature ----------------------------------------------------------


def _interval(rng):
    a = F(rng.randint(-6, 4), rng.choice([2, 3, 4, 5, 7, 8]))
    return a, a + F(rng.randint(2, 10), rng.choice([3, 4, 5, 8]))


def _slope_bound(coeffs, x):
    # interval arithmetic widens c*x^k by about |c| k |x|^(k-1) per unit width
    return sum(abs(c) * k * abs(x) ** (k - 1) for k, c in enumerate(coeffs) if k)


def _poly1d_problem(rng, strategy, deg, size):
    base = [rng.uniform(-1, 1) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.uniform(0.3, 1)]
    a, b = _interval(rng)
    eps_text = _eps(rng, -5, -3)
    eps = float(eps_text)
    xs = [float(a) + (i + 0.5) * float(b - a) / 256 for i in range(256)]
    h = float(b - a) / 256
    if strategy == "adaptive":
        # largest-first splitting leaves about (int sqrt(g))^2 / eps cells
        proxy = (sum(math.sqrt(_slope_bound(base, x)) for x in xs) * h) ** 2
        cells = 300 * 10 ** size  # 300 to 3000 cells
        scale = cells * eps / proxy
    else:
        # a uniform grid of n cells has gap about (b - a) / n * int g
        proxy = sum(_slope_bound(base, x) for x in xs) * h
        cells = size
        scale = eps / (1.4 * float(b - a) / cells * proxy)
    coeffs = [_num(c * scale) for c in base]
    data = {"fn": {"poly": coeffs}, "box": [[_rat(a), _rat(b)]], "epsilon": eps_text}
    if strategy == "grid":
        data["strategy"] = "grid"
    exact = poly_integral(poly_terms(coeffs, 1), [(a, b)])
    expect = {"check": "integral", "status": "integrable", "exact": _rat(exact), "epsilon": eps_text}
    return _problem(
        "integrate", data, expect, "poly1d-" + strategy,
        dim=1, dyadic=_is_dyadic(a) and _is_dyadic(b),
    )


def _poly2d_problem(rng, size):
    monomials = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    chosen = rng.sample(monomials, rng.randint(2, 4))
    terms = [(e, rng.choice([-1, 1]) * rng.uniform(0.3, 1)) for e in chosen]
    box = [_interval(rng), _interval(rng)]
    box = [(lo, lo + min(hi - lo, F(3, 2))) for lo, hi in box]
    # adaptive 2-D refinement needs about 1.2 * area * (int |grad|)^2 / eps^2 cells
    n = 16
    (x0, x1), (y0, y1) = [(float(lo), float(hi)) for lo, hi in box]
    grad = 0.0
    for i in range(n):
        for j in range(n):
            x = x0 + (i + 0.5) * (x1 - x0) / n
            y = y0 + (j + 0.5) * (y1 - y0) / n
            for (ex, ey), c in terms:
                if ex:
                    grad += abs(c) * ex * abs(x) ** (ex - 1) * abs(y) ** ey
                if ey:
                    grad += abs(c) * ey * abs(x) ** ex * abs(y) ** (ey - 1)
    area = (x1 - x0) * (y1 - y0)
    grad *= area / n ** 2
    eps_text = _eps(rng, -3, -2)
    eps = float(eps_text)
    cells = 1500 * (5000 / 1500) ** size
    scale = eps * math.sqrt(cells / (1.2 * area)) / grad
    spec = {"terms": [{"exps": list(e), "coeff": _num(c * scale)} for e, c in terms]}
    exact = poly_integral(poly_terms(spec, 2), box)
    data = {"fn": {"poly": spec}, "box": [[_rat(lo), _rat(hi)] for lo, hi in box], "epsilon": eps_text}
    expect = {"check": "integral", "status": "integrable", "exact": _rat(exact), "epsilon": eps_text}
    return _problem(
        "integrate", data, expect, "poly2d",
        dim=2, dyadic=all(_is_dyadic(v) for pair in box for v in pair),
    )


def _dirichlet_problem(a, b, rounded=True):
    """The oscillation-floor short circuit.  Its upper sum is famkit's float of
    the box volume, rounded to nearest rather than outward, so the timed stream
    compares it with that float; the rounding probes compare it exactly."""
    volume = F(float(b - a)) if rounded else b - a
    data = {"fn": {"indicator": "dirichlet"}, "box": [[_rat(a), _rat(b)]], "epsilon": "1e-3"}
    expect = {"check": "integral", "status": "not_integrable", "volume": _rat(volume)}
    return _problem("integrate", data, expect, "dirichlet", dim=1, dyadic=False)


def _poly_fixture(cls, terms, dim, eps):
    spec = {"terms": [{"exps": list(e), "coeff": c} for e, c in terms]}
    box = [(F(0), F(1))] * dim
    exact = poly_integral(poly_terms(spec, dim), box)
    data = {"fn": {"poly": spec}, "box": [[0, 1]] * dim, "epsilon": eps}
    expect = {"check": "integral", "status": "integrable", "exact": _rat(exact), "epsilon": eps}
    return _problem("integrate", data, expect, cls, dim=dim, dyadic=True)


def quadrature_round(rng):
    # fixtures from bench_refine.py and the 3-D monomial, each near 0.35 s
    # on a 2 vCPU Xeon with the pure-Python kernel
    heavy = [
        _poly_fixture("fixture-x+y", [((1, 0), 1), ((0, 1), 1)], 2, "1.25e-2"),
        _poly_fixture("fixture-x2y-y3", [((2, 1), 1), ((0, 3), -1)], 2, "1.3e-2"),
        _poly_fixture("fixture-xyz", [((1, 1, 1), 1)], 3, "2.5e-2"),
    ] * HEAVY_COPIES
    return (
        [_poly1d_problem(rng, "adaptive", 1 + i % 4, size) for i, size in enumerate(_strata(rng, 32))]
        + [_poly1d_problem(rng, "grid", 1 + i, cells) for i, cells in enumerate((512, 1024, 2048, 1024))]
        + [_poly2d_problem(rng, size) for size in _strata(rng, 4)]
        + [_dirichlet_problem(*_interval(rng))]
        + heavy
    )


# -- regions -------------------------------------------------------------

UNIT2 = [(F(0), F(1)), (F(0), F(1))]


def _halfplane_on_dyadic_corner(normal, offset, level=10):
    """Whether the line normal . x = offset meets a point of the 2^-level grid
    of the unit square (integer normal, rational offset)."""
    a, b = normal
    if b == 0:
        a, b = b, a
    p, q = offset.numerator, offset.denominator
    scale = 2 ** level
    for k in range(scale + 1):
        # y = (p/q - a k/scale) / b lies on the grid iff its numerator over
        # q*b*scale is a multiple of q*b, and it is inside [0, 1]
        num = p * scale - a * k * q
        if num % (q * b) == 0 and 0 <= num // (q * b) <= scale:
            return True
    return False


def _random_atom(rng, kind, dyadic_flags):
    if kind == 0:
        normal = [rng.randint(-2, 2), rng.randint(-2, 2)]
        if normal == [0, 0]:
            normal[rng.randrange(2)] = 1
        offset = F(rng.randint(-2, 4), rng.randint(1, 3))
        dyadic_flags.append(_halfplane_on_dyadic_corner(normal, offset))
        return {"halfplane": {"normal": normal, "offset": _rat(offset)}}
    if kind == 1:
        boxes = []
        for _ in range(rng.randint(1, 2)):
            x0, x1 = sorted(rng.sample(range(9), 2))
            y0, y1 = sorted(rng.sample(range(9), 2))
            boxes.append([[f"{x0}/8", f"{x1}/8"], [f"{y0}/8", f"{y1}/8"]])
            dyadic_flags.append(True)
        return {"boxes": boxes}
    parts = []
    for normal, offset in (
        ([rng.randint(1, 2), rng.randint(-1, 1)], F(rng.randint(0, 2))),
        ([-1, rng.randint(-1, 1)], F(rng.randint(0, 2), 3)),
    ):
        dyadic_flags.append(_halfplane_on_dyadic_corner(normal, offset))
        parts.append({"halfplane": {"normal": normal, "offset": _rat(offset)}})
    return {"intersection": parts}


def _region2d_problem(rng, form, kinds, cmd):
    """Criterion-7-style halfplanes, box unions, intersections, and their
    unions, intersections and complements."""
    flags = []
    a = _random_atom(rng, kinds[0], flags)
    if form == 0:
        region = a
    elif form == 1:
        region = {"union": [a, _random_atom(rng, kinds[1], flags)]}
    elif form == 2:
        region = {"intersection": [a, _random_atom(rng, kinds[1], flags)]}
    else:
        region = {"complement": a}
    # each slanted boundary adds straddling cells, so regions with more
    # halfplanes get a coarser tolerance (their cost then stays comparable)
    halfplanes = json.dumps(region).count("halfplane")
    eps = {0: "1/256", 1: "1/256", 2: "1/128"}.get(halfplanes, "1/64")
    data = {"region": region, "box": [[0, 1], [0, 1]], "epsilon": eps}
    expect = {"check": "bracket", "exact": _rat(region_measure(region, UNIT2)), "epsilon": eps}
    return _problem(cmd, data, expect, "region2d", dim=2, dyadic=sum(flags) / len(flags))


def _cantor_fn(rng, kind):
    if kind == "poly":
        return {"poly": [_num(rng.uniform(-1, 1)) for _ in range(rng.randint(2, 4))]}, []
    if kind == "step":
        cuts = sorted(F(rng.randint(1, 20), rng.choice([3, 5, 7, 9])) % 1 for _ in range(2))
        if cuts[0] == cuts[1] or 0 in cuts:
            cuts = [F(1, 3), F(5, 7)]
        values = [rng.randint(-3, 3) for _ in range(3)]
        values[1] = values[0] + rng.choice([-2, -1, 1, 2])
        pieces = [
            {"box": [[0, _rat(cuts[0])]], "value": values[0]},
            {"box": [[_rat(cuts[0]), _rat(cuts[1])]], "value": values[1]},
        ]
        jumps = [(cuts[0], abs(values[1] - values[0])), (cuts[1], abs(values[1] - values[2]))]
        return {"piecewise": {"pieces": pieces, "default": values[2]}}, jumps
    if kind == "indicator":
        cut = F(rng.randint(1, 8), 9)
        if _is_dyadic(cut):
            cut = F(1, 3)
        sign = rng.choice([1, -1])
        return {"indicator": {"halfplane": {"normal": [sign], "offset": _rat(sign * cut)}}}, [(cut, 1)]
    return {"indicator": "dirichlet"}, []


def _cantor_problem(rng, op, kind, depth=None):
    if op == "integrate":
        fn, jumps = _cantor_fn(rng, kind)
        # the depth-d Darboux gap is exactly 2^-d times the total variation
        # (monotone terms on [0, 1], jumps strictly inside cylinders), so this
        # tolerance stops the depth loop at the given depth
        if kind == "poly":
            variation = sum(abs(float(c)) for c in fn["poly"][1:]) or 1.0
        else:
            variation = float(sum(jump for _, jump in jumps))
        eps = f"{1.5 * variation * 2.0 ** -depth:.3e}"
        data = {"fn": fn, "op": "integrate", "epsilon": eps}
        expect = {"check": "cantor", "op": "integrate", "status": "integrable",
                  "exact": _rat(fn_integral_01(fn)), "epsilon": eps}
    elif op == "vitali":
        fn, _ = _cantor_fn(rng, kind)
        eps = _eps(rng, -2, -1.5)
        data = {"fn": fn, "op": "vitali", "epsilon": eps}
        verdict = "not_integrable" if kind == "dirichlet" else "integrable"
        expect = {"check": "cantor", "op": "vitali", "verdict": verdict}
    else:
        fn, jumps = _cantor_fn(rng, kind)
        threshold = F(1, rng.choice([2, 4, 8]))
        data = {"fn": fn, "op": "cover", "threshold": _rat(threshold), "depth": depth}
        expect = {"check": "cantor", "op": "cover", "depth": depth,
                  "must_cover": [_rat(x) for x, jump in jumps if jump >= threshold]}
    return _problem("cantor", data, expect, "cantor-" + op, dim=1, dyadic=False)


def _box_indicator_problem(rng, parts, size):
    """Box-backend integral of an indicator: refine_generic with a scalar oracle.

    Offsets have denominators 3, 5 or 7, so no boundary meets a dyadic corner
    (the float classification path is only safe away from them).
    """
    def halfplane():
        normal = [rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])]
        q = rng.choice([3, 5, 7])
        p = rng.choice([p for p in range(-2 * q, 3 * q) if p % q])
        return {"halfplane": {"normal": normal, "offset": _rat(F(p, q))}}

    region = halfplane() if parts == 1 else {"intersection": [halfplane(), halfplane()]}
    eps = f"{10 ** (-2.5 + 0.5 * size):.1e}"
    data = {"fn": {"indicator": region}, "box": [[0, 1], [0, 1]], "epsilon": eps}
    expect = {"check": "integral", "status": "integrable",
              "exact": _rat(region_measure(region, UNIT2)), "epsilon": eps}
    return _problem("integrate", data, expect, "box-indicator", dim=2, dyadic=0.0)


def _region_fixture(cls, cmd, region, box, eps, dyadic):
    exact_box = [(F(lo), F(hi)) for lo, hi in box]
    data = {"region": region, "box": box, "epsilon": eps}
    expect = {"check": "bracket", "exact": _rat(region_measure(region, exact_box)), "epsilon": eps}
    return _problem(cmd, data, expect, cls, dim=len(box), dyadic=dyadic)


def _cantor_fixture():
    fn = {"poly": [0, 0, 1]}
    data = {"fn": fn, "op": "integrate", "epsilon": "1e-4"}
    expect = {"check": "cantor", "op": "integrate", "status": "integrable",
              "exact": _rat(fn_integral_01(fn)), "epsilon": "1e-4"}
    return _problem("cantor", data, expect, "fixture-cantor-x2", dim=1, dyadic=False)


def regions_round(rng):
    heavy = [
        # the diagonal meets every dyadic corner: each straddling cell takes
        # the exact fallback
        _region_fixture("fixture-triangle-xy", "jordan", "triangle-xy",
                        [[0, 1], [0, 1]], "1/1000", 1.0),
        _region_fixture("fixture-halfspace-3d", "measure",
                        {"halfplane": {"normal": [1, 2, -1], "offset": "2/3"}},
                        [[0, 1], [0, 1], [0, 1]], "1/34", 0.0),
        _region_fixture("fixture-halfplane-fine", "jordan",
                        {"halfplane": {"normal": [1, 2], "offset": "2/3"}},
                        [[0, 1], [0, 1]], "1/3000", 0.0),
        _cantor_fixture(),
    ] * HEAVY_COPIES
    return (
        [_region2d_problem(rng, i % 4, [i // 4 % 3, (i + 1) % 3], ("jordan", "measure")[i // 2 % 2])
         for i in range(16)]
        + [_cantor_problem(rng, "integrate", kind, depth)
           for kind, depth in zip(("poly", "step", "indicator"), rng.sample((8, 9, 10), 3))]
        + [_cantor_problem(rng, "vitali", kind) for kind in ("poly", "step", "indicator", "dirichlet")]
        # oscillation covers at depth 8 cost nearly the same each, so they form
        # the dense middle of the latency distribution that fixes the median
        + [_cantor_problem(rng, "cover", "step", 8) for _ in range(16)]
        + [_box_indicator_problem(rng, 1 + i // 2, size) for i, size in enumerate(_strata(rng, 4))]
        + heavy
    )


def known_defect_probes(workload):
    """Problems that show a known defect, run untimed after the measured loop.

    Each expectation names the failure it is known to produce; a probe passes
    when it fails that way or when it answers correctly (the defect is fixed).

    regions: box-backend indicator integrals of the diagonal triangle.  Their
    float cells meet the diagonal at dyadic corners, which sends
    HalfPlaneRegion's exact fallback float coordinates, and famkit raises
    AttributeError.
    quadrature: Dirichlet integrals whose box volume is not a float.  The
    upper sum is the volume rounded to nearest, not outward, so it falls
    below the true upper Darboux integral.
    """
    out = []
    if workload == "regions":
        for eps in ("1e-2", "1e-3", "1e-4"):
            data = {"fn": {"indicator": "triangle-xy"}, "box": [[0, 1], [0, 1]], "epsilon": eps}
            expect = {"check": "integral", "status": "integrable", "exact": "1/2", "epsilon": eps,
                      "known": "AttributeError"}
            out.append(_problem("integrate", data, expect, "crash-triangle-xy", dim=2, dyadic=1.0))
    if workload == "quadrature":
        for b in (F(1, 3), F(2, 3)):
            problem = _dirichlet_problem(F(0), b, rounded=False)
            problem["expect"]["known"] = "narrower than the certified oscillation floor"
            problem["cls"] = "rounding-dirichlet"
            out.append(problem)
    return out


# -- extension -------------------------------------------------------------


def _hidden_measure(rng, n):
    return [F(rng.randint(0, 6), rng.randint(1, 6)) if rng.random() < 0.85 else F(0) for _ in range(n)]


def _random_sets(rng, n, k):
    full = (1 << n) - 1
    sets = []
    seen = set()
    while len(sets) < k:
        bits = rng.getrandbits(n)
        if bits and bits != full and bits not in seen:
            seen.add(bits)
            sets.append(bits)
    return sets


def _members(bits, n):
    return [i for i in range(n) if bits >> i & 1]


def _assignment(rng, n, k, feasible):
    """Pairs valued by a hidden nonnegative point measure.

    An infeasible assignment hides one order violation: a set A inside an
    assigned set B gets a value above B's.  (Perturbing a single value is not
    enough: the system stays feasible once the atoms are singletons.)
    """
    mu = _hidden_measure(rng, n)
    sets = _random_sets(rng, n, k)
    values = {b: sum((mu[i] for i in _members(b, n)), F(0)) for b in sets}
    total = sum(mu, F(0))
    if not feasible:
        outer = max(sets, key=lambda b: bin(b).count("1"))
        if bin(outer).count("1") < 2:
            outer = (1 << n) - 1
            values[outer] = total
        members = _members(outer, n)
        inner = 0
        for i in rng.sample(members, len(members) // 2):
            inner |= 1 << i
        if inner in values:
            sets.remove(inner)
        sets.insert(rng.randrange(len(sets) + 1), inner)
        values[inner] = values[outer] + F(rng.randint(1, 4), rng.randint(1, 4))
    pairs = [[list(range(n)), _rat(total)]] + [[_members(b, n), _rat(values[b])] for b in sets]
    return mu, pairs


def _extend_problem(rng, n, k, feasible, target=False, base=None):
    mu, pairs = base if base is not None else _assignment(rng, n, k, feasible)
    data = {"ground": {"n": n}, "pairs": pairs}
    expect = {"check": "extend", "n": n, "pairs": pairs,
              "status": "feasible" if feasible else "infeasible"}
    if target:
        bits = _random_sets(rng, n, 1)[0]
        data["value_range_of"] = _members(bits, n)
        expect.update(target=_members(bits, n), total=_rat(sum(mu, F(0))),
                      target_value=_rat(sum((mu[i] for i in _members(bits, n)), F(0))))
    return _problem("extend", data, expect, f"extend-{n}", dim=None,
                    feasible=feasible, repeat=base is not None), (mu, pairs)


def _atoms_of(sets, n):
    atoms = [(1 << n) - 1]
    for g in sets:
        atoms = [piece for a in atoms for piece in (a & g, a & ~g) if piece]
    return atoms


def _fam(mu, atoms, n):
    weights = {",".join(map(str, _members(a, n))): sum((mu[i] for i in _members(a, n)), F(0))
               for a in atoms}
    return {"algebra": {"ground": {"n": n}, "atoms": [_members(a, n) for a in atoms]},
            "weights": {k: _rat(v) for k, v in weights.items()}}


def _fam_pair(rng, n, compatible):
    """Two fams on random small algebras; incompatible ones hide a nested
    pair a <= a' whose second fam gives a' less mass than the first gives a."""
    mu = _hidden_measure(rng, n)
    if sum(mu) == 0:
        mu[0] = F(1)
    sets0 = _random_sets(rng, n, rng.randint(1, 3))
    sets1 = _random_sets(rng, n, rng.randint(1, 3))
    atoms0 = _atoms_of(sets0, n)
    if compatible:
        atoms1 = _atoms_of(sets1, n)
        return _fam(mu, atoms0, n), _fam(mu, atoms1, n)
    a = max((b for b in atoms0 if sum(mu[i] for i in _members(b, n)) > 0),
            key=lambda b: bin(b).count("1"))
    outside = [i for i in range(n) if not a >> i & 1]
    a_prime = a | (1 << rng.choice(outside)) if outside else a
    atoms1 = _atoms_of([a_prime] + sets1[:1], n)
    # move mass out of a' while keeping the total: fam1 sees a' lighter than fam0 sees a
    mu1 = list(mu)
    shift = sum((mu[i] for i in _members(a_prime, n)), F(0))
    for i in _members(a_prime, n):
        mu1[i] = F(0)
    rest = [i for i in range(n) if not a_prime >> i & 1]
    if not rest:
        return _fam_pair(rng, n, compatible)
    mu1[rest[0]] += shift
    return _fam(mu, atoms0, n), _fam(mu1, atoms1, n)


def _compat_problem(rng, cmd, ok):
    n = rng.randint(6, 12)
    fam0, fam1 = _fam_pair(rng, n, ok)
    data = {"fam0": fam0, "fam1": fam1}
    expect = {"check": cmd, "n": n, "compatible": ok, "fam0": fam0, "fam1": fam1}
    return _problem(cmd, data, expect, cmd, dim=None, feasible=ok, repeat=False)


def _constrain_problem(rng, feasible):
    n = rng.randint(6, 12)
    mu = _hidden_measure(rng, n)
    if sum(mu) == 0:
        mu[0] = F(1)
    total = sum(mu, F(0))
    if feasible:
        sets = _random_sets(rng, n, rng.randint(2, 4))
        targets = []
        for b in sets:
            v = sum((mu[i] for i in _members(b, n)), F(0))
            if rng.random() < 0.5:
                targets.append([_rat(max(F(0), v - F(1, 4))), _rat(min(total, v + F(1, 4)))])
            else:
                targets.append({"set": [_rat(v), _rat(min(total, v + F(1, 2)))]})
    else:
        # a point inside a set may not outweigh the set
        outer = _random_sets(rng, n, 1)[0] | 3
        inner = 1 << rng.choice(_members(outer, n))
        sets = [outer, inner]
        targets = [["0", _rat(total / 2)], [_rat(total * 3 / 4), _rat(total)]]
    data = {"ground": {"n": n}, "sets": [_members(b, n) for b in sets],
            "targets": targets, "delta": _rat(total)}
    expect = {"check": "constrain", "status": "feasible" if feasible else "infeasible",
              "sets": [_members(b, n) for b in sets], "targets": targets, "delta": _rat(total)}
    return _problem("constrain", data, expect, "constrain", dim=None, feasible=feasible, repeat=False)


def extension_round(rng):
    out = []
    for i in range(20):
        # ground sizes 4..16 and 2..8 sets, 14 feasible of 20, 8 value ranges;
        # every fifth problem asks the previous assignment about another target
        if i % 5 == 4:
            problem, base = _extend_problem(rng, n, 0, feasible, True, base)
        else:
            n, feasible = 4 + 12 * i // 19, i % 10 < 7
            problem, base = _extend_problem(rng, n, 2 + 3 * i % 7, feasible, i % 5 in (1, 3))
        out.append(problem)
    # the many small fam-pair and constrained problems form the dense middle of
    # the latency distribution that fixes the median
    out += [_compat_problem(rng, "compatible", i % 3 != 1) for i in range(8)]
    out += [_compat_problem(rng, "amalgamate", i % 2 == 0) for i in range(4)]
    out += [_constrain_problem(rng, i != 1) for i in range(4)]
    for k, feasible, target in ((8, True, False), (10, False, False), (12, True, True)):
        problem, _ = _extend_problem(rng, 32, k, feasible, target)
        out.append(problem)
    # fixed 64-point fixtures (famkit's default ground-set cap), with 16 sets
    # rather than 48 so that each costs about 0.3 s
    for name, k, target in (("a", 16, False), ("d", 16, False), ("e", 16, False), ("c", 10, True)):
        problem, _ = _extend_problem(random.Random(f"famkit-fixture-{name}"), 64, k, True, target)
        problem["cls"] = f"fixture-64x{k}{name}" + ("-range" if target else "")
        out += [problem] * HEAVY_COPIES
    return out


WORKLOADS = {
    "quadrature": quadrature_round,
    "regions": regions_round,
    "extension": extension_round,
}


def generate(workload, seed, rounds=ROUNDS):
    """The workload's rounds, each a list of problems in run order."""
    rng = random.Random(f"{workload}-{seed}")
    out = []
    for _ in range(rounds):
        problems = WORKLOADS[workload](rng)
        rng.shuffle(problems)
        out.append(problems)
    return out
