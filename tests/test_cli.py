import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from famkit.boxes import BoxElem
from famkit.cli import COMMANDS, build_parser, main
from famkit.lattice import DyadicLattice

SRC = Path(__file__).resolve().parents[1] / "src"

#: An integer beyond the float range.
BIG = 10 ** 400


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def famkit_process(args, **kwargs):
    """Run ``python <args>`` in a fresh interpreter that imports famkit from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    kwargs.setdefault("timeout", 120)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def not_json(constant):
    """A ``parse_constant`` for ``json.loads`` that rejects what JSON lacks:
    NaN, Infinity and -Infinity."""
    raise ValueError(f"{constant} is not JSON")


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


UNIFORM4 = {
    "algebra": {"ground": {"n": 4}, "generators": [[0], [1], [2], [3]]},
    "weights": {"0": "1/4", "1": "1/4", "2": "1/4", "3": "1/4"},
}

CROSS_SECTION = {
    "fam0": {
        "algebra": {"ground": {"labels": ["00", "01", "10", "11"]}, "generators": [["00", "01"]]},
        "weights": {"00,01": "1/3", "10,11": "2/3"},
    },
    "fam1": {
        "algebra": {"ground": {"labels": ["00", "01", "10", "11"]}, "generators": [["00", "10"]]},
        "weights": {"00,10": "1/2", "01,11": "1/2"},
    },
}


class TestClassify:
    def test_uniform_fixture(self, tmp_path, capsys):
        path = write_json(tmp_path, "fam.json", UNIFORM4)
        code, out, _ = run(capsys, ["classify", "--in", path])
        assert code == 0
        report = json.loads(out)
        assert report["probability"] is True
        assert report["uap"] is True
        assert report["d"] == 4

    def test_no_uap_fixture(self, tmp_path, capsys):
        payload = {
            "algebra": {"ground": {"n": 3}, "generators": [[0], [1]]},
            "weights": {"0": "1/3", "1": "2/3"},
        }
        path = write_json(tmp_path, "fam.json", payload)
        code, out, _ = run(capsys, ["classify", "--in", path])
        assert code == 0
        assert json.loads(out)["uap"] is False


class TestAlgebraAndFamCheck:
    def test_algebra(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "alg.json", {"ground": {"n": 4}, "generators": [[0, 1], [1, 2]]}
        )
        code, out, _ = run(capsys, ["algebra", "--in", path])
        assert code == 0
        report = json.loads(out)
        assert report["atom_count"] == 4
        assert report["size"] == 16

    def test_fam_values_form(self, tmp_path, capsys):
        payload = {
            "ground": {"n": 2},
            "values": [[[0, 1], "1"], [[0], "1/3"]],
        }
        path = write_json(tmp_path, "fam.json", payload)
        code, out, _ = run(capsys, ["fam-check", "--in", path])
        assert code == 0
        assert json.loads(out)["total"] == "1"

    def test_inconsistent_values_rejected(self, tmp_path, capsys):
        payload = {
            "ground": {"n": 2},
            "values": [[[0, 1], "1"], [[0], "2/3"], [[1], "2/3"]],
        }
        path = write_json(tmp_path, "fam.json", payload)
        code, _, err = run(capsys, ["fam-check", "--in", path])
        assert code == 2
        assert "error" in err


class TestAmalgamate:
    def test_cross_section_witness(self, tmp_path, capsys):
        path = write_json(tmp_path, "cross.json", CROSS_SECTION)
        code, out, _ = run(capsys, ["amalgamate", "--in", path])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["status"] == "feasible"
        from fractions import Fraction

        w11 = Fraction(report["result"]["witness"]["weights"]["11"])
        assert Fraction(1, 6) <= w11 <= Fraction(1, 2)

    def test_incompatible_exit_code(self, tmp_path, capsys):
        payload = {
            "fam0": {"algebra": {"ground": {"n": 2}, "generators": [[0]]}, "weights": {"0": "1", "1": "0"}},
            "fam1": {"algebra": {"ground": {"n": 2}, "generators": [[0]]}, "weights": {"0": "0", "1": "1"}},
        }
        path = write_json(tmp_path, "bad.json", payload)
        code, out, _ = run(capsys, ["amalgamate", "--in", path])
        assert code == 3
        assert json.loads(out)["result"]["certificate"]["kind"] == "violating_pair"


class TestExtend:
    def test_value_range(self, tmp_path, capsys):
        payload = {
            "ground": {"labels": ["00", "01", "10", "11"]},
            "pairs": [
                [["00", "01", "10", "11"], "1"],
                [["00", "01"], "1/3"],
                [["00", "10"], "1/2"],
            ],
            "value_range_of": ["11"],
        }
        path = write_json(tmp_path, "ext.json", payload)
        code, out, _ = run(capsys, ["extend", "--in", path])
        assert code == 0
        report = json.loads(out)
        assert report["value_range"] == ["1/6", "1/2"]

    def test_infeasible_certificate(self, tmp_path, capsys):
        payload = {
            "ground": {"n": 2},
            "pairs": [[[0, 1], "1"], [[0], "2/3"], [[1], "2/3"]],
        }
        path = write_json(tmp_path, "bad.json", payload)
        code, out, _ = run(capsys, ["extend", "--in", path])
        assert code == 3
        assert json.loads(out)["result"]["certificate"]["kind"] == "h_vector"


def fam_on(n, weights, generators=None):
    """A fam problem entry on ``n`` points: weights keyed by atom, on the
    algebra the generators span (the trivial algebra without them)."""
    algebra = {"ground": {"n": n}}
    if generators is not None:
        algebra["generators"] = generators
    return {"algebra": algebra, "weights": weights}


def report_of(tmp_path, capsys, command, payload):
    code, out, err = run(capsys, [command, "--in", write_json(tmp_path, "p.json", payload)])
    assert err == ""
    return code, json.loads(out)


EVENS = fam_on(6, {"0,2,4": "2/3", "1,3,5": "1/3"}, [[0, 2, 4]])
# half the mass outside the generator {0, 1}, which fails bullet 1 of the
# three-way theorem, and all of it inside, which passes
HALF_OUTSIDE = fam_on(4, {"0,1": "1/2", "2,3": "1/2"}, [[0, 1]])
ALL_INSIDE = fam_on(4, {"0,1": "1", "2,3": "0"}, [[0, 1]])


class TestCompatible:
    def test_compatible_pair(self, tmp_path, capsys):
        assert report_of(tmp_path, capsys, "compatible", CROSS_SECTION) == (
            0, {"compatible": True, "certificate": None})

    @pytest.mark.parametrize("fam0, fam1, payload", [
        # totals differ: the pair (X, X)
        (fam_on(2, {"0": "1", "1": "0"}, [[0]]), fam_on(2, {"0": "1", "1": "1"}, [[0]]),
         {"a": ["0", "1"], "a_prime": ["0", "1"], "value_a": "2", "value_a_prime": "1"}),
        # a shared atom valued differently
        (fam_on(2, {"0": "1", "1": "0"}, [[0]]), fam_on(2, {"0": "0", "1": "1"}, [[0]]),
         {"a": ["0"], "a_prime": ["0"], "value_a": "1", "value_a_prime": "0"}),
        # no common extension: {0} inside {0, 1} and heavier
        (fam_on(3, {"0": "1/2", "1,2": "1/2"}, [[0]]), fam_on(3, {"0,1": "1/4", "2": "3/4"}, [[0, 1]]),
         {"a": ["0"], "a_prime": ["0", "1"], "value_a": "1/2", "value_a_prime": "1/4"}),
    ])
    def test_violating_pair(self, tmp_path, capsys, fam0, fam1, payload):
        code, report = report_of(tmp_path, capsys, "compatible", {"fam0": fam0, "fam1": fam1})
        assert code == 3
        assert report == {"compatible": False, "certificate": {"kind": "violating_pair", "payload": payload}}


class TestExtendFilter:
    def test_feasible(self, tmp_path, capsys):
        code, report = report_of(tmp_path, capsys, "extend-filter", {"fam0": EVENS, "generators": [[0, 1]]})
        assert code == 0
        assert report["result"]["status"] == "feasible"
        assert report["result"]["witness"]["weights"] == {"0": "2/3", "1": "1/3", "2,4": "0", "3,5": "0"}

    def test_filter_hypothesis(self, tmp_path, capsys):
        uniform = fam_on(4, {"0": "1/4", "1": "1/4", "2": "1/4", "3": "1/4"}, [[0], [1], [2], [3]])
        code, report = report_of(tmp_path, capsys, "extend-filter", {"fam0": uniform, "generators": [[0, 1]]})
        assert code == 3
        assert report["result"] == {"status": "infeasible", "certificate": {
            "kind": "filter_hypothesis", "payload": {"b": ["2"], "value": "1/4", "generators": [["0", "1"]]}}}


class TestThreeWayCLI:
    def test_feasible(self, tmp_path, capsys):
        fam1 = fam_on(6, {"0,3": "2/3", "1,2,4,5": "1/3"}, [[0, 3]])
        code, report = report_of(tmp_path, capsys, "three-way", {"fam0": EVENS, "fam1": fam1, "generators": [[0, 1]]})
        assert code == 0
        assert report["result"]["status"] == "feasible"
        assert report["result"]["witness"]["weights"] == {"0": "2/3", "1": "1/3", "3": "0", "2,4": "0", "5": "0"}

    def test_bullet2(self, tmp_path, capsys):
        payload = {
            "fam0": fam_on(4, {"0": "3/4", "1,2,3": "1/4"}, [[0]]),
            "fam1": fam_on(4, {"0": "1/2", "1,2,3": "1/2"}, [[0]]),
            "generators": [[0, 1]],
        }
        code, report = report_of(tmp_path, capsys, "three-way", payload)
        assert code == 3
        assert report["result"] == {"status": "infeasible", "certificate": {"kind": "bullet2", "payload": {
            "a": ["0"], "b": ["0"], "value_a": "3/4", "value_b": "1/2", "generators": [["0", "1"]]}}}

    @pytest.mark.parametrize("fam0, fam1, side", [(HALF_OUTSIDE, ALL_INSIDE, 0), (ALL_INSIDE, HALF_OUTSIDE, 1)])
    def test_bullet1(self, tmp_path, capsys, fam0, fam1, side):
        code, report = report_of(tmp_path, capsys, "three-way", {"fam0": fam0, "fam1": fam1, "generators": [[0, 1]]})
        assert code == 3
        assert report["result"] == {"status": "infeasible", "certificate": {"kind": "bullet1", "payload": {
            "side": side, "b": ["2", "3"], "value": "1/2", "generators": [["0", "1"]]}}}


NO_BRANCH = {"status": "infeasible", "certificate": {"kind": "no_branch_feasible", "payload": {}}}


class TestConstrainCLI:
    @pytest.mark.parametrize("form, weights", [
        (lambda lo, hi: {"interval": [lo, hi]}, {"0": "1/2", "1": "1/4", "2,3": "1/4"}),
        (lambda lo, hi: {"set": [lo, hi]}, {"0": "1/4", "1": "1/4", "2,3": "1/2"}),
        (lambda lo, hi: {"point": lo}, {"0": "1/4", "1": "1/4", "2,3": "1/2"}),
        (lambda lo, hi: [lo, hi], {"0": "1/2", "1": "1/4", "2,3": "1/4"}),
        (lambda lo, hi: lo, {"0": "1/4", "1": "1/4", "2,3": "1/2"}),
    ], ids=["interval", "set", "point", "pair", "scalar"])
    def test_set_targets(self, tmp_path, capsys, form, weights):
        # {0} lies inside {0, 1}: feasible while its target stays below the other's
        problem = {"ground": {"n": 4}, "sets": [[0, 1], [0]], "delta": "1"}
        problem["targets"] = [form("1/2", "3/4"), form("1/4", "1/2")]
        code, report = report_of(tmp_path, capsys, "constrain", problem)
        assert code == 0
        assert report["result"]["status"] == "feasible"
        assert report["result"]["witness"]["weights"] == weights
        problem["targets"] = [form("1/8", "1/4"), form("1/2", "3/4")]
        assert report_of(tmp_path, capsys, "constrain", problem) == (3, {"result": NO_BRANCH})

    def test_integral_targets(self, tmp_path, capsys):
        # mean 1 and mass 1/2 on {0, 2}, the second table keyed by label
        problem = {"fam0": fam_on(3, {"0,1,2": "1"}), "fns": [[0, 1, 2], {"table": {"0": "1", "2": "1"}}],
                   "targets": [["1", "1"], {"point": "1/2"}]}
        code, report = report_of(tmp_path, capsys, "constrain", problem)
        assert code == 0
        assert report["result"]["status"] == "feasible"
        assert report["result"]["witness"]["weights"] == {"0": "1/4", "1": "1/2", "2": "1/4"}
        problem = {"fam0": fam_on(3, {"0,1,2": "1"}), "fns": [[0, 1, 2]], "targets": [["3", "4"]]}
        assert report_of(tmp_path, capsys, "constrain", problem) == (3, {"result": NO_BRANCH})

    def test_ultrafilter_limits(self, tmp_path, capsys):
        problem = {"ultra": fam_on(6, {"2,3": "1", "0,1,4,5": "0"}, [[2, 3]]),
                   "fns": [[0, 1, 2, 3, 4, 5], {"3": "7"}], "targets": [{"set": ["3", "5"]}, "7"]}
        code, report = report_of(tmp_path, capsys, "constrain", problem)
        assert code == 0
        assert report["result"]["status"] == "feasible"
        assert report["result"]["witness"]["weights"] == {"0": "0", "1": "0", "2": "0", "3": "1", "4": "0", "5": "0"}
        problem = {"ultra": ALL_INSIDE, "fns": [[0, 1, 2, 3]], "targets": [["2", "3"]]}
        assert report_of(tmp_path, capsys, "constrain", problem) == (3, {"result": {
            "status": "infeasible", "certificate": {"kind": "no_point", "payload": {"core": ["0", "1"]}}}})


class TestIntegrateCLI:
    def test_poly_flag_form(self, capsys):
        code, out, _ = run(
            capsys,
            ["integrate", "--fn", '{"poly": [0, 0, 1]}', "--box", "[[0, 1]]", "--eps", "1e-6"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "integrable"
        assert abs(report["value"] - 1 / 3) <= 1e-6

    def test_table_form(self, tmp_path, capsys):
        payload = {"fam": UNIFORM4, "table": ["1", "2", "3", "4"]}
        path = write_json(tmp_path, "int.json", payload)
        code, out, _ = run(capsys, ["integrate", "--in", path])
        assert code == 0
        assert json.loads(out)["value"] == "5/2"

    def test_triangle_indicator_on_float_cells(self, capsys):
        # the box backend hands float cells to the half-plane's exact
        # tie-break on the diagonal
        code, out, _ = run(
            capsys,
            ["integrate", "--fn", '{"indicator": "triangle-xy"}', "--box", "[[0, 1], [0, 1]]",
             "--eps", "1e-3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "integrable"
        assert report["lower"] <= 0.5 <= report["upper"]
        assert report["upper"] - report["lower"] <= 1e-3

    def test_dirichlet_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            ["integrate", "--fn", '{"indicator": "dirichlet"}', "--box", "[[0, 1]]", "--eps", "1e-6"],
        )
        assert code == 3
        assert json.loads(out)["status"] == "not_integrable"

    @pytest.mark.parametrize("fn", [{"indicator": "dirichlet"}, {"poly": [0, 1]}])
    def test_unknown_strategy_exits_2(self, tmp_path, capsys, fn):
        path = write_json(tmp_path, "s.json", {"fn": fn, "box": [[0, 1]], "epsilon": "1e-3", "strategy": "bogus"})
        code, out, err = run(capsys, ["integrate", "--in", path])
        assert (code, out) == (2, "")
        assert "unknown strategy 'bogus'" in err

    def test_repeated_terms_sum(self, capsys):
        # x + 2x on [0, 1]: the integral of 3x is 3/2
        fn = '{"poly": {"terms": [{"exps": [1], "coeff": 1}, {"exps": [1], "coeff": 2}]}}'
        code, out, _ = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 1]]", "--eps", "1e-3"])
        assert code == 0
        report = json.loads(out)
        assert report["lower"] <= 1.5 <= report["upper"]

    @pytest.mark.parametrize("exps", [[-1], [1.5], [1, -2], ["2"], [True]])
    def test_bad_exponents_rejected(self, capsys, exps):
        fn = json.dumps({"poly": {"terms": [{"exps": exps, "coeff": 1}]}})
        box = json.dumps([[1, 2]] * len(exps))
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", box, "--eps", "1e-3"])
        assert code == 2
        assert out == ""
        assert "exponents must be non-negative integers" in err

    @pytest.mark.parametrize("box,pieces", [
        # a 2-D piece in a 1-D integral used to answer 0.5 from its first side
        ("[[0,1]]", [[0, "1/2"], [5, 6]]),
        # a 1-D piece in a 2-D integral used to be taken as a slab
        ("[[0,1],[0,1]]", [[0, "1/2"]]),
    ])
    def test_piecewise_box_of_another_dimension_rejected(self, capsys, box, pieces):
        fn = json.dumps({"piecewise": {"pieces": [{"box": pieces, "value": 1}], "default": 0}})
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", box])
        assert code == 2
        assert out == ""
        assert "piecewise box has" in err

    def test_piecewise_overlap_converges(self, capsys):
        # the second piece's value used to count where the first piece's
        # holds: undecided at [1.0, 1.25] after the whole budget
        fn = ('{"piecewise": {"pieces": [{"box": [[0, "1/2"]], "value": 1}, '
              '{"box": [["1/4", "3/4"]], "value": 2}], "default": 0}}')
        code, out, _ = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 1]]", "--eps", "1e-3",
                                    "--budget", "5000"])
        report = json.loads(out)
        assert code == 0
        assert (report["status"], report["lower"], report["upper"]) == ("integrable", 1.0, 1.0)
        assert report["trace"][-1][0] == 3

    @pytest.mark.parametrize("argv", [
        # json.loads reads NaN, Infinity and 1e400: the first never returned,
        # the next two printed NaN and exited 4
        ["integrate", "--fn", '{"poly": [1, NaN]}', "--box", "[[0,1]]"],
        ["cantor", "--fn", '{"poly": [1, Infinity]}', "--eps", "1e-2"],
        ["integrate", "--fn", '{"piecewise": {"pieces": [{"box": [[0, "1/2"]], "value": NaN}], "default": 0}}',
         "--box", "[[0,1]]"],
        ["cantor", "--fn", '{"poly": {"terms": [{"exps": [2], "coeff": 1e400}]}}'],
        # tolerances and thresholds beyond the float range ended in an
        # OverflowError traceback with exit 1; a dict is a problem file
        ["integrate", "--fn", '{"poly": [0, 1]}', "--box", "[[0, 1]]", "--eps", "1e400"],
        ["cantor", "--fn", '{"poly": [0, 1]}', "--eps", "1e400"],
        ["cantor", "--in", {"fn": {"poly": [0, 1]}, "op": "cover", "depth": 3, "threshold": "1e400"}],
        # a corner, a bare JSON integer and a piece value or default beyond
        # the float range ended in an OverflowError traceback with exit 1;
        # so did such a corner under the grid strategy, whose float cells
        # need it where the adaptive indicator integral does not
        ["integrate", "--fn", '{"poly": [0, 1]}', "--box", f'[[0, "{BIG}"]]', "--eps", "1e-3"],
        ["integrate", "--fn", f'{{"poly": [0, {BIG}]}}', "--box", "[[0, 1]]", "--eps", "1e-3"],
        ["integrate", "--fn", f'{{"piecewise": {{"pieces": [{{"box": [[0, "1/2"]], "value": {BIG}}}]}}}}',
         "--box", "[[0, 1]]", "--eps", "1e-3"],
        ["integrate", "--fn", f'{{"piecewise": {{"pieces": [], "default": {BIG}}}}}', "--box", "[[0, 1]]",
         "--eps", "1e-3"],
        ["integrate", "--in", {"fn": {"indicator": {"halfplane": {"normal": [1], "offset": "1/3"}}},
                               "box": [[0, str(BIG)]], "epsilon": "1e-3", "strategy": "grid"}],
    ])
    def test_nonfinite_numbers_rejected(self, tmp_path, argv):
        argv = [write_json(tmp_path, "problem.json", a) if isinstance(a, dict) else a for a in argv]
        proc = famkit_process(["-m", "famkit", *argv], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "must be finite" in proc.stderr

    @pytest.mark.parametrize("argv", [
        # these used to split one cell per round for 114 s, run the whole
        # budget and print Infinity and NaN with exit 4, and do the same at
        # every Cantor depth
        ["integrate", "--fn", '{"poly": [0, 1e308, 1e308]}', "--box", "[[1, 1]]", "--eps", "1e-3",
         "--budget", "100000"],
        ["integrate", "--fn", '{"poly": [0, 1e308, 1e308]}', "--box", "[[0, 10]]", "--eps", "1e-3"],
        ["cantor", "--fn", '{"poly": [1e308, 1e308]}', "--eps", "1e-6"],
    ])
    def test_nan_gap_exits_2_at_once(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "Darboux gap is NaN" in err

    def test_infinite_gap_converges(self):
        # a fresh interpreter, since pytest would catch numpy's warnings: the
        # overflow is part of the enclosure arithmetic and prints nothing
        proc = famkit_process(["-m", "famkit", "integrate", "--fn", '{"poly": [0, 1e308, -1e308]}',
                               "--box", "[[0, 1]]", "--eps", "1e306"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "integrable"
        assert proc.stderr == ""

    @pytest.mark.parametrize("fn, box, eps", [
        # the batch engine: the cubic's two end cells give -inf and +inf terms
        ('{"poly": [0, 0, 0, -3]}', "[[-1e100, 7e99]]", "1e148"),
        # the scalar heap: each half is a constant cell with an infinite term
        ('{"piecewise": {"pieces": [{"box": [[0, 2]], "value": -1e308}, {"box": [[2, 4]], "value": 1e308}]}}',
         "[[0, 4]]", "1e-3"),
        # four end cells of lower term 1e308: this used to print "lower":
        # Infinity with status integrable and exit 0
        ('{"poly": [1e308, 1e292]}', "[[0, 4]]", "1e293"),
    ], ids=["batch", "scalar", "infinite"])
    def test_overflowing_sum_exits_2(self, capsys, fn, box, eps):
        # the first two used to be reported as ValueError('-inf + inf in fsum')
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", box, "--eps", eps, "--budget", "3000"])
        assert (code, out) == (2, "")
        assert err == "famkit: error: the lower Darboux sum overflows the float range\n"

    def test_indicator_on_a_box_wider_than_the_float_range(self, capsys):
        # the exact bracket needs no float corner: this printed an
        # OverflowError traceback and exited 1
        code, out, err = run(capsys, ["integrate", "--fn", '{"indicator": {"halfplane": {"normal": [1], '
                                      '"offset": "1/3"}}}', "--box", f'[[0, "{BIG}"]]', "--eps", "1e-3"])
        report = json.loads(out)
        assert (code, err, report["status"]) == (0, "", "integrable")
        assert report["lower"] <= F(1, 3) <= report["upper"]

    def test_oscillation_floor_beyond_the_float_range_exits_2(self, capsys):
        # the box's measure, 4e616, is no float: this printed an
        # OverflowError traceback and exited 1
        code, out, err = run(capsys, ["integrate", "--fn", '{"indicator": "dirichlet"}',
                                      "--box", "[[-1e308, 1e308], [-1e308, 1e308]]", "--eps", "1e-3"])
        assert (code, out) == (2, "")
        assert err == "famkit: error: the upper Darboux sum overflows the float range\n"

    def test_partial_sums_that_overflow_answer(self, capsys, monkeypatch):
        # fsum's partial sums of the 20,000 lower terms overflow, though
        # their sum does not: this exited 2 with "the lower Darboux sum
        # overflows the float range"
        from famkit import _refine_py

        terms = {}
        darboux_sum = _refine_py.darboux_sum

        def recording(summands, which):
            summands = terms[which] = list(summands)
            return darboux_sum(summands, which)

        monkeypatch.setattr(_refine_py, "darboux_sum", recording)
        fn = '{"piecewise": {"pieces": [{"box": [[0, "1/3"]], "value": -0.5e308}], "default": 0.5e308}}'
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 4]]", "--eps", "1e-3",
                                      "--budget", "20000"])
        assert (code, err) == (4, "")
        with pytest.raises(OverflowError):
            math.fsum(terms["lower"])
        assert json.loads(out)["lower"] == float(sum(map(F, terms["lower"])))

    def test_infinite_batch_rounds_exit_2_at_once(self):
        # every cell of infinite contribution splits in one round: with one
        # per round, the whole budget ran for more than a minute
        proc = famkit_process(["-m", "famkit", "integrate", "--fn", '{"poly": [0, 0, 0, -3]}',
                               "--box", "[[-1e100, 7e99]]", "--eps", "1e148", "--budget", "100000"],
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "famkit: error: the lower Darboux sum overflows the float range\n"

    @pytest.mark.parametrize("flags,status,code", [
        (["--eps", "1e305"], "integrable", 0),
        (["--eps", "1e-3", "--budget", "2000"], "undecided", 4),
    ])
    def test_cells_at_the_edge_of_the_float_range(self, flags, status, code):
        # the midpoint of [-1e308, -8.75e307] overflowed to -inf, and
        # classifying the cell [-1e308, -inf] ended in an OverflowError
        # traceback (exit 1)
        fn = '{"piecewise": {"pieces": [{"box": [[-1e308, 0]], "value": 1}]}}'
        proc = famkit_process(["-m", "famkit", "integrate", "--fn", fn, "--box", "[[-1e308, 1e308]]", *flags],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (code, "")
        report = json.loads(proc.stdout, parse_constant=not_json)
        assert report["status"] == status
        assert F(report["lower"]) <= 10**308 <= F(report["upper"])

    def test_grid_on_a_box_wider_than_the_float_range(self, tmp_path, capsys):
        # the grid's root cell has a float volume of inf, and its lower term
        # 0 * inf made it exit 2 with "the Darboux gap is NaN at 1 cells"
        problem = {"fn": {"piecewise": {"pieces": [{"box": [[-1e308, 0]], "value": 1}]}},
                   "box": [[-1e308, 1e308]], "epsilon": "1e305"}
        reports = {}
        for strategy in ("grid", "adaptive"):
            path = write_json(tmp_path, f"{strategy}.json", dict(problem, strategy=strategy))
            code, out, err = run(capsys, ["integrate", "--in", path])
            assert (code, err) == (0, "")
            reports[strategy] = json.loads(out, parse_constant=not_json)
        grid, adaptive = reports["grid"], reports["adaptive"]
        assert (grid["status"], adaptive["status"]) == ("integrable", "integrable")
        assert grid["lower"] <= adaptive["upper"] and adaptive["lower"] <= grid["upper"]

    @pytest.mark.parametrize("fn", [
        # the value key was ignored: the plain indicator integrated to 0.5
        '{"indicator": {"halfplane": {"normal": [1], "offset": "1/2"}}, "value": 2}',
        # the piecewise form was ignored beside the polynomial
        '{"poly": [0, 1], "piecewise": {"pieces": [], "default": 5}}',
        '{"indicator": {"complement": {"boxes": [[[0, 1]]]}, "union": []}}',
        '{}',
    ])
    def test_fn_object_has_one_form_key(self, capsys, fn):
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 1]]", "--eps", "1e-3"])
        assert code == 2
        assert out == ""
        assert "needs exactly one key" in err

    @pytest.mark.parametrize("fn,value", [
        ('{"poly": [0, "1/3"]}', 1 / 6),
        ('{"poly": {"terms": [{"exps": [1], "coeff": "-2/3"}]}}', -1 / 3),
        ('{"piecewise": {"pieces": [{"box": [[0, "1/2"]], "value": "2/3"}], "default": "-1/3"}}', 1 / 6),
    ])
    def test_rational_strings_accepted(self, capsys, fn, value):
        code, out, _ = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 1]]", "--eps", "1e-3"])
        assert code == 0
        assert abs(json.loads(out)["value"] - value) <= 1e-3

    @pytest.mark.parametrize("coeff,message", [
        ('"1/0"', "numbers or"), ('"one"', "numbers or"), ('"1%s/3"' % ("0" * 400), "must be finite"),
    ])
    def test_bad_rational_strings_rejected(self, capsys, coeff, message):
        fn = '{"poly": [0, %s]}' % coeff
        code, out, err = run(capsys, ["integrate", "--fn", fn, "--box", "[[0, 1]]", "--eps", "1e-3"])
        assert code == 2
        assert out == ""
        assert message in err

    def test_undecided_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "integrate", "--fn", '{"poly": [0, 0, 1]}', "--box", "[[0, 1]]",
                "--eps", "1e-9", "--budget", "32",
            ],
        )
        assert code == 4


class TestJordanMeasureCLI:
    def test_triangle(self, capsys):
        code, out, _ = run(
            capsys,
            ["jordan", "--region", '"triangle-xy"', "--box", "[[0, 1], [0, 1]]", "--eps", "1/1000"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["jordan"] is True

    def test_dense_not_jordan(self, capsys):
        code, out, _ = run(
            capsys, ["jordan", "--region", '"dirichlet"', "--box", "[[0, 1]]"]
        )
        assert code == 3
        report = json.loads(out)
        assert report["inner"] == "0" and report["outer"] == "1"

    @pytest.mark.parametrize("command,region", [
        # the third coefficient used to be dropped: jordan true, 525311/4194304
        ("jordan", {"halfplane": {"normal": [1, 1, 5], "offset": "1/2"}}),
        # a 1-D box used to be taken as a slab: measure 1/2
        ("measure", {"boxes": [[[0, "1/2"]]]}),
        ("measure", {"complement": {"union": ["triangle-xy", {"halfplane": {"normal": [1], "offset": 0}}]}}),
        ("jordan", {"intersection": [{"boxes": [[[0, 1], [0, 1], [0, 1]]]}]}),
    ])
    def test_region_of_another_dimension_rejected(self, capsys, command, region):
        code, out, err = run(capsys, [command, "--region", json.dumps(region), "--box", "[[0,1],[0,1]]"])
        assert code == 2
        assert out == ""
        assert "the problem has 2" in err

    @pytest.mark.parametrize("argv", [
        ["jordan", "--region", '"triangle-xy"', "--box", "[[0, 1]]"],
        ["cantor", "--fn", '{"indicator": "triangle-xy"}'],
    ])
    def test_triangle_fixture_of_another_dimension_rejected(self, capsys, argv):
        # the fixture raised its own error; the engines now check it as any half-plane
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "region dimension mismatch: a region has 2 axes, the problem has 1" in err

    @pytest.mark.parametrize("region", [
        {"halfplane": {"normal": [1, 0], "offset": "1/2"}, "boxes": [[[0, 1], [0, 1]]]},
        {"union": ["triangle-xy"], "extra": 1},
        {"complement": {"intersection": [], "offset": 0}},
        {},
    ])
    def test_region_object_has_one_form_key(self, capsys, region):
        code, out, err = run(capsys, ["measure", "--region", json.dumps(region), "--box", "[[0,1],[0,1]]"])
        assert code == 2
        assert out == ""
        assert "needs exactly one key" in err

    def test_measure_finite(self, tmp_path, capsys):
        payload = {"fam": UNIFORM4, "set": [0, 2]}
        path = write_json(tmp_path, "m.json", payload)
        code, out, _ = run(capsys, ["measure", "--in", path])
        assert code == 0
        report = json.loads(out)
        assert report["inner"] == "1/2" and report["outer"] == "1/2"


    def test_measure_builds_no_witness_boxes(self, capsys, monkeypatch):
        # measure prints only inner and outer, so no cell becomes a box
        def no_boxes(*args):
            raise AssertionError("measure built witness boxes")

        monkeypatch.setattr(DyadicLattice, "boxes", no_boxes)
        region = '{"halfplane": {"normal": [1, 2, -1], "offset": "2/3"}}'
        code, out, _ = run(
            capsys,
            ["measure", "--region", region, "--box", "[[0, 1], [0, 1], [0, 1]]", "--eps", "1/34"],
        )
        assert code == 0
        assert json.loads(out) == {"inner": "84041/262144", "outer": "91751/262144"}

    @pytest.mark.parametrize("region,box,eps,counts", [
        ('"triangle-xy"', "[[0, 1], [0, 1]]", "1/1000", (1997, 6042)),
        ('{"halfplane": {"normal": [1, 2], "offset": "2/3"}}', "[[0, 1], [0, 1]]", "1/3000", (2426, 6147)),
        # the dense fixture returns before any lattice cell: one straddling box
        ('"dirichlet"', '[[0, "1/1000"]]', "1/8", (0, 1)),
    ])
    def test_jordan_builds_no_witness_boxes(self, capsys, monkeypatch, region, box, eps, counts):
        # jordan prints only the witness box counts, so no cell becomes a box
        def no_boxes(*args):
            raise AssertionError("jordan built witness boxes")

        monkeypatch.setattr(DyadicLattice, "boxes", no_boxes)
        monkeypatch.setattr(BoxElem, "from_disjoint", no_boxes)
        code, out, _ = run(capsys, ["jordan", "--region", region, "--box", box, "--eps", eps])
        assert code == 0
        report = json.loads(out)
        assert (report["witness_inner_boxes"], report["witness_outer_boxes"]) == counts

    def test_unconverged_jordan_prints_no_counts(self, capsys):
        code, out, _ = run(
            capsys,
            ["jordan", "--region", '"triangle-xy"', "--box", "[[0, 1], [0, 1]]", "--eps", "1/1000",
             "--budget", "10"],
        )
        assert code == 4
        assert json.loads(out) == {"inner": "5/16", "jordan": None, "measure": None, "outer": "13/16"}


class TestCantorCLI:
    def test_integrate(self, capsys):
        code, out, _ = run(
            capsys, ["cantor", "--fn", '{"poly": [0, 1]}', "--eps", "1e-4"]
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.5) <= 1e-4

    def test_vitali(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json", {"fn": {"indicator": "dirichlet"}, "op": "vitali"})
        code, out, _ = run(capsys, ["cantor", "--in", path, "--eps", "1/100"])
        assert code == 3
        assert json.loads(out)["verdict"] == "not_integrable"

    @pytest.mark.parametrize("op", ["integrate", "vitali", "cover"])
    @pytest.mark.parametrize("depth", ["-1", "40"])
    def test_bad_depth_rejected(self, capsys, op, depth):
        # a negative depth is malformed; 40 would sweep 2^40 cylinders
        code, out, err = run(capsys, ["cantor", "--fn", '{"poly": [0, 1]}', "--op", op, "--depth", depth])
        assert code == 2
        assert out == ""
        assert "cylinder depth" in err

    def test_op_flag_overrides_the_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json", {"fn": {"poly": [0, 1]}, "op": "integrate"})
        code, out, _ = run(capsys, ["cantor", "--in", path, "--op", "cover", "--depth", "3"])
        assert code == 0
        assert json.loads(out) == {"cover": [], "measure": "0"}
        code, out, _ = run(capsys, ["cantor", "--in", path, "--depth", "3"])
        assert "value" in json.loads(out)


class TestErrorPaths:
    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command, payload", [
        ("measure", {"region": "triangle-xy", "box": [[0, 1], [0, 1]], "epsilon": "1/64"}),
        ("integrate", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"}),
        ("jordan", {"region": "triangle-xy", "box": [[0, 1], [0, 1]], "epsilon": "1/64"}),
    ])
    @pytest.mark.parametrize("budget", ["-5", "0", "two"])
    def test_budget_below_one_is_a_usage_error(self, tmp_path, capsys, command, payload, budget):
        path = write_json(tmp_path, "p.json", payload)
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", path, "--budget", budget])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--budget" in err
        code, _, _ = run(capsys, [command, "--in", path, "--budget", "1"])
        assert code in (0, 4)

    @pytest.mark.parametrize("command", ["measure", "jordan"])
    @pytest.mark.parametrize("eps", ["0", "-1"])
    def test_tolerance_must_be_positive(self, capsys, command, eps):
        code, out, err = run(capsys, [command, "--region", '{"halfplane": {"normal": [1, 2], "offset": "2/3"}}',
                                      "--box", "[[0, 1], [0, 1]]", "--eps", eps, "--budget", "200"])
        assert (code, out) == (2, "")
        assert "epsilon must be positive" in err

    def test_missing_file(self, capsys):
        code = main(["classify", "--in", "/nonexistent/really.json"])
        assert code == 2

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_empty_file_name_is_unreadable(self, capsys, command):
        # an empty name once meant "no file" where --fn or --region is taken,
        # even with the flags stating the whole problem
        argv = [command, "--in", ""]
        for flag, value in (("--fn", '{"poly": [0, 1]}'), ("--region", '"triangle-xy"'), ("--box", "[[0, 1]]")):
            if flag in _FLAGS_OF.get(command, ()):
                argv += [flag, value]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "cannot read problem file" in err

    def test_table_format(self, tmp_path, capsys):
        path = write_json(tmp_path, "fam.json", UNIFORM4)
        code, out, _ = run(capsys, ["classify", "--in", path, "--format", "table"])
        assert code == 0
        assert "probability: true" in out


class TestParserReuse:
    # main() builds its parser once per process; no call may see another's flags
    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["jordan", "--region", '"triangle-xy"', "--box", "[[0, 1], [0, 1]]",
             "--eps", "1/4", "--format", "table"],
        )
        assert code == 0 and "jordan: true" in out
        path = write_json(tmp_path, "m.json", {"box": [[0, 1], [0, 1]], "region": "triangle-xy"})
        code, out, _ = run(capsys, ["measure", "--in", path])
        assert code == 0
        assert json.loads(out)["inner"] == "2047/4096"  # the default 1/1024, not 1/4
        fresh = famkit_process(["-m", "famkit", "measure", "--in", path], capture_output=True, text=True)
        assert fresh.returncode == 0
        assert out == fresh.stdout
        assert build_parser() is build_parser()

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        path = write_json(tmp_path, "fam.json", UNIFORM4)
        code, out, _ = run(capsys, ["classify", "--in", path])
        assert code == 0
        assert json.loads(out)["d"] == 4


# the flags each subcommand takes besides --in and --format
_FLAGS_OF = {
    "approx": {"--eps"},
    "integrate": {"--fn", "--box", "--eps", "--budget"},
    "jordan": {"--region", "--box", "--eps", "--budget"},
    "measure": {"--region", "--box", "--eps", "--budget"},
    "cantor": {"--fn", "--eps", "--depth", "--op"},
}
_APPROX = {"fam": {"algebra": {"ground": {"n": 10}, "generators": [[0, 1, 2, 3, 4]]},
                   "weights": {"0,1,2,3,4": "1/2", "5,6,7,8,9": "1/2"}}, "epsilon": "1/2"}
_SQUARE_BRACKET = {"region": "triangle-xy", "box": [[0, 1], [0, 1]], "epsilon": "1/64"}
_HALFPLANE = {"halfplane": {"normal": [1, 2], "offset": "2/3"}}


class TestFlagTable:
    def test_each_subcommand_takes_only_its_flags(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        slots = 0
        for name, sub in subparsers.items():
            flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == {"--in", "--format"} | _FLAGS_OF.get(name, set()), name
            slots += len(flags)
        assert len(subparsers) == 14
        assert slots == 45

    @pytest.mark.parametrize("argv", [
        ["cantor", "--fn", '{"poly": [0, 1]}', "--box", "[[0, 2]]"],
        ["extend", "--eps", "1/4"],
        ["integrate", "--fn", '{"poly": [0, 1]}', "--box", "[[0, 1]]", "--depth", "3"],
        ["measure", "--region", '"triangle-xy"', "--box", "[[0, 1], [0, 1]]", "--fn", '{"poly": [0, 1]}'],
    ], ids=["cantor-box", "extend-eps", "integrate-depth", "measure-fn"])
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: " + argv[-2] in err

    @pytest.mark.parametrize("command, problem, flag, value", [
        ("approx", _APPROX, "--eps", "1/4"),
        ("integrate", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"}, "--fn", '{"poly": [0, 1]}'),
        ("integrate", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"}, "--box", "[[0, 2]]"),
        ("integrate", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"}, "--eps", "1e-2"),
        ("jordan", _SQUARE_BRACKET, "--region", json.dumps(_HALFPLANE)),
        ("jordan", _SQUARE_BRACKET, "--box", "[[0, 2], [0, 1]]"),
        ("jordan", _SQUARE_BRACKET, "--eps", "1/4"),
        ("measure", _SQUARE_BRACKET, "--region", json.dumps(_HALFPLANE)),
        ("measure", _SQUARE_BRACKET, "--box", "[[0, 2], [0, 1]]"),
        ("measure", _SQUARE_BRACKET, "--eps", "1/4"),
        ("cantor", {"fn": {"poly": [0, 1]}, "epsilon": "1e-3", "depth": 3}, "--fn", '{"poly": [1, 1]}'),
        ("cantor", {"fn": {"poly": [0, 1]}, "epsilon": "1e-3", "depth": 3}, "--eps", "1/2"),
        ("cantor", {"fn": {"poly": [0, 1]}, "epsilon": "1e-3", "depth": 3}, "--depth", "12"),
        ("cantor", {"fn": {"poly": [0, 1]}, "epsilon": "1e-3", "op": "integrate"}, "--op", "vitali"),
    ])
    def test_a_flag_replaces_its_file_entry(self, tmp_path, capsys, command, problem, flag, value):
        entry = {"--eps": "epsilon"}.get(flag, flag[2:])
        given = value if flag in ("--eps", "--op") else json.loads(value)
        path = write_json(tmp_path, "file.json", problem)
        flagged = run(capsys, [command, "--in", path, flag, value])
        # the flag's value in the file instead gives the same report
        assert flagged == run(capsys, [command, "--in", write_json(tmp_path, "same.json", {**problem, entry: given})])
        assert flagged[0] in (0, 3, 4) and json.loads(flagged[1])
        assert flagged != run(capsys, [command, "--in", path])

    def test_a_flag_given_empty_is_used(self, tmp_path, capsys):
        path = write_json(tmp_path, "c.json", {"fn": {"poly": [0, 1]}, "epsilon": "1e-3"})
        code, out, err = run(capsys, ["cantor", "--in", path, "--eps", ""])
        assert (code, out) == (2, "")

    def test_readme_examples_run(self, capsys):
        # every line of the README's CLI block that reads no problem file
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line) for line in block.splitlines() if "--in" not in line]
        assert len(lines) >= 3
        for argv in lines:
            assert argv[0] == "famkit"
            code, out, _ = run(capsys, argv[1:])
            assert code == 0, argv
            assert isinstance(json.loads(out), dict)


class TestBrokenPipe:
    # the console script runs sys.exit(famkit.cli.main()), as the -c form does;
    # a buffered stdout fails at the final flush, an unbuffered one at print,
    # and argparse's own help output only ever reaches the final flush
    @pytest.mark.parametrize(
        "entry",
        [["-m", "famkit"], ["-c", "import sys; from famkit.cli import main; sys.exit(main())"]],
        ids=["module", "script"],
    )
    @pytest.mark.parametrize(
        "command, unbuffered",
        [("extend", "1"), ("extend", None), ("--help", None)],
        ids=["report-unbuffered", "report-buffered", "help-buffered"],
    )
    def test_closed_stdout_exits_quietly(self, tmp_path, monkeypatch, entry, command, unbuffered):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        path = write_json(tmp_path, "ext.json", {"ground": {"n": 2}, "pairs": [[[0, 1], "1"]]})
        argv = ["extend", "--in", path] if command == "extend" else [command]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before famkit writes anything
        try:
            proc = famkit_process([*entry, *argv], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestLazyNumpy:
    # numpy costs about 0.1 s and 12 MB at import; only polynomial integrals use it
    def test_numpy_loads_only_for_polynomial_integrals(self, tmp_path):
        indicator = write_json(tmp_path, "ind.json", {
            "fn": {"indicator": "triangle-xy"}, "box": [[0, 1], [0, 1]], "epsilon": "1e-2"})
        poly = write_json(tmp_path, "poly.json", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"})
        script = (
            "import contextlib, io, sys\n"
            "import famkit.cli\n"
            "seen = ['numpy' in sys.modules]\n"
            "for path in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert famkit.cli.main(['integrate', '--in', path]) == 0\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = famkit_process(["-c", script, indicator, poly], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, True]"

    def test_grid_leaves_numpy_unloaded_without_a_polynomial(self, tmp_path):
        # the grid strategy runs polynomials on numpy arrays, other oracles
        # one cell at a time
        indicator = write_json(tmp_path, "ind.json", {
            "fn": {"indicator": "triangle-xy"}, "box": [[0, 1], [0, 1]], "epsilon": "1e-1",
            "strategy": "grid"})
        poly = write_json(tmp_path, "poly.json", {
            "fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-2", "strategy": "grid"})
        script = (
            "import contextlib, io, sys\n"
            "import famkit.cli\n"
            "seen = []\n"
            "for path in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert famkit.cli.main(['integrate', '--in', path]) == 0\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = famkit_process(["-c", script, indicator, poly], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, True]"

    def test_brackets_and_cantor_leave_numpy_unloaded(self, tmp_path):
        # the regions benchmark runs only these subcommands; numpy would add
        # about half again to its peak memory
        square = [[0, 1], [0, 1]]
        runs = [
            ("jordan", {"region": "triangle-xy", "box": square, "epsilon": "1/256"}),
            ("measure", {"region": {"halfplane": {"normal": [1, 2], "offset": "2/3"}},
                         "box": square, "epsilon": "1/256"}),
            ("cantor", {"fn": {"poly": [0, 0, 1]}, "op": "integrate", "epsilon": "1e-3"}),
            ("cantor", {"fn": {"poly": [0, 1]}, "op": "cover", "threshold": "1/4", "depth": 4}),
        ]
        argv = []
        for k, (command, payload) in enumerate(runs):
            argv += [command, write_json(tmp_path, f"{k}.json", payload)]
        script = (
            "import contextlib, io, sys\n"
            "import famkit.cli\n"
            "args = sys.argv[1:]\n"
            "for command, path in zip(args[::2], args[1::2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert famkit.cli.main([command, '--in', path]) == 0, command\n"
            "    assert 'numpy' not in sys.modules, command\n"
            "print('ok')\n"
        )
        proc = famkit_process(["-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# the run of one subcommand in a fresh interpreter: its exit code and every
# famkit submodule (and numpy) it left loaded
_LOADED_BY = (
    "import contextlib, io, json, sys\n"
    "import famkit.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = famkit.cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m.removeprefix('famkit.') for m in sys.modules\n"
    "                               if m == 'numpy' or m.startswith('famkit.'))]))\n"
)

_NOT_FOR_EXTENSION = {"integrate", "functions", "cantor", "lattice", "_refine", "boxes", "approx", "numpy"}
_FAM_HALVES = {"algebra": {"ground": {"n": 4}, "generators": [[0, 1]]}, "weights": {"0,1": "1/2", "2,3": "1/2"}}


class TestImportClosure:
    """A subcommand loads only the modules of the engine it runs."""

    def test_import_loads_no_engine(self):
        proc = famkit_process(["-c", "import sys, famkit, famkit.cli\n"
                                     "print(sorted(m for m in sys.modules if m == 'numpy' or 'famkit' in m))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['famkit', 'famkit.cli', 'famkit.errors']"

    @pytest.mark.parametrize("command, payload, never", [
        ("extend", {"ground": {"n": 4}, "pairs": [[[0, 1, 2, 3], "1"], [[0, 1], "1/2"], [[1, 2], "1/4"]],
                    "value_range_of": [1]},
         _NOT_FOR_EXTENSION),
        ("constrain", {"ground": {"n": 4}, "sets": [[0, 1], [1, 2]],
                       "targets": [["1/4", "1/2"], {"set": ["1/3", "1/2"]}], "delta": "1"}, _NOT_FOR_EXTENSION),
        ("constrain", {"fam0": _FAM_HALVES, "fns": [["1", "0", "0", "0"]], "targets": [["0", "1/4"]]},
         _NOT_FOR_EXTENSION),
        ("constrain", {"ultra": {"algebra": {"ground": {"n": 3}, "generators": [[0], [1]]},
                                 "weights": {"0": "1", "1": "0", "2": "0"}},
                       "fns": [["1", "2", "3"]], "targets": [["1", "1"]]}, _NOT_FOR_EXTENSION),
        ("integrate", {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"},
         {"extend", "simplex", "cantor", "approx"}),
        ("integrate", {"fn": {"indicator": {"halfplane": {"normal": [1, 1], "offset": "2/3"}}},
                       "box": [[0, 1], [0, 1]], "epsilon": "1e-2"}, {"extend", "simplex", "cantor", "approx"}),
        ("jordan", {"region": "triangle-xy", "box": [[0, 1], [0, 1]], "epsilon": "1/256"},
         {"extend", "simplex", "numpy"}),
    ], ids=["extend", "constrain-sets", "constrain-fam0", "constrain-ultra", "integrate-poly",
            "integrate-indicator", "jordan"])
    def test_subcommand_loads_only_its_engine(self, tmp_path, command, payload, never):
        path = write_json(tmp_path, "problem.json", payload)
        proc = famkit_process(["-c", _LOADED_BY, command, "--in", path], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        assert not never & set(loaded), loaded


# every public name of famkit when its __init__ imported all its submodules
_PUBLIC = set("""
Algebra BoxElem CantorClopen Certificate Cylinder DenseCodenseRegion ExtensionResult Fam
FamkitError FiniteApprox GroundSet HalfPlaneRegion IndicatorFn InputError IntegralReport
JordanReport LipschitzFn PartialAssignment Partition PiecewiseConstantFn PointRegion
PolynomialFn RegionComplement RegionIntersection RegionUnion SetElem SupportWitness VolumeFam
amalgamate approx approx_uniform approx_uniform_small approx_with_integrals backend_name boolalg
boxes cantor cantor_integrate ceil_in classify clopen_measure compatible contains errors extend
extend_assignment extend_one extend_preserving_range extend_with_filter extension_bounds fam
fam_with_constraints fam_with_integral_constraints filter_fam floor_in functions
generate_algebra has_uap infsum inner_measure integrate integrate_over integrate_simple
iota2_image is_jordan is_refinement jordan_completion lattice lebesgue_vitali_check make_box
measure_bracket meet_partitions oscillation oscillation_cover outer_measure point_mass
pushforward pushforward_integral_check restrict simplex supsum three_way_extend
triangle_under_diagonal uap_witness ultrafilter_integrate ultrafilter_with_limits uniform_fam
uniformly_supported value_range xi_star_converges
""".split())

_API_CHECKS = (
    "import importlib, sys, types\n"
    "import famkit\n"
    "public = set(sys.argv[1].split()) | {'__version__'}\n"
    # the name is the function; its module comes from importlib (perfbench/tracing.py relies on both)
    "assert famkit.integrate is sys.modules['famkit.integrate'].integrate, famkit.integrate\n"
    "assert callable(famkit.integrate)\n"
    "assert isinstance(importlib.import_module('famkit.integrate'), types.ModuleType)\n"
    "star = {}\n"
    "exec('from famkit import *', star)\n"
    "assert public <= set(star), public - set(star)\n"
    "assert public <= set(dir(famkit)), public - set(dir(famkit))\n"
    "assert star['integrate'] is famkit.integrate\n"
    "assert famkit.boolalg is sys.modules['famkit.boolalg']\n"
    "try:\n"
    "    famkit.no_such_name\n"
    "except AttributeError:\n"
    "    pass\n"
    "else:\n"
    "    raise AssertionError('famkit.no_such_name resolved')\n"
    "print('ok')\n"
)


class TestLazyNamespace:
    """``famkit.<name>`` resolves on first access, to what the eager
    ``__init__`` bound, whatever was imported before."""

    @pytest.mark.parametrize("before", [
        "",
        "import famkit.integrate",
        "from famkit.integrate import integrate",
        "import famkit.cantor",
        "from famkit import *",
        "import contextlib, io, famkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    famkit.cli.main(['integrate', '--fn', '{\"poly\": [0, 1]}', '--box', '[[0, 1]]', '--eps', '1e-2'])",
    ], ids=["fresh", "import-module", "from-module", "importing-module", "star", "integrate-subcommand"])
    def test_public_names(self, before):
        proc = famkit_process(["-c", before + "\n" + _API_CHECKS, " ".join(sorted(_PUBLIC))],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
