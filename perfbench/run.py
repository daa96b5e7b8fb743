"""famkit benchmark: one workload per engine, driven through the CLI.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):
  quadrature  polynomial box integrals: the refinement loop and poly_range
  regions     Jordan/measure brackets, Cantor cylinders, indicator integrals:
              the exact dyadic splitter and scalar range oracles
  extension   extend / value ranges / compatible / amalgamate / constrain:
              the exact rational simplex

The problems of a workload are generated from ``--seed`` and written as JSON
problem files; the program receives nothing else.  A fresh interpreter
(``worker.py``, ``PYTHONPATH=src``) imports famkit and then runs them in a
closed loop with one client: one problem at a time through
``famkit.cli.main(["<cmd>", "--in", file])``, each captured and timed.  Every
answer is then checked here, outside the timed region, against values
recomputed exactly with ``fractions.Fraction`` (``checks.py``).  Each run also
feeds its checkers corrupted copies of real answers and requires them to be
rejected.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds a second time with spans and counters around each layer and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the lines before it list every metric with its
unit, the input properties and the environment.  A full report goes to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8  # fresh interpreters timed to "famkit imported", besides the worker itself
WORKER_TIMEOUT_S = 160  # keeps a whole run inside 180 s


def expected_exit(expect):
    kind = expect["check"]
    if kind == "bracket" or (kind == "cantor" and expect["op"] == "cover"):
        return 0
    if kind == "cantor" and expect["op"] == "vitali":
        return 0 if expect["verdict"] == "integrable" else 3
    if kind in ("compatible", "amalgamate"):
        return 0 if expect["compatible"] else 3
    return 0 if expect["status"] in ("integrable", "feasible") else 3


def verdict(record, expect):
    """None for a correct answer, else why the problem failed."""
    if record["failure"]:
        return record["failure"]
    if record["code"] != expected_exit(expect):
        return f"exit code {record['code']}, expected {expected_exit(expect)}: {record['stderr'].strip()}"
    try:
        out = json.loads(record["stdout"])
    except json.JSONDecodeError as exc:
        return f"unparseable report: {exc}"
    return checks.check(expect, out)


def spawn_ready(cmd, env):
    """Start a worker; return (process, seconds until it printed 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("famkit could not be imported by the worker")
    return proc, ready


def finish(proc, timeout):
    """Wait for a worker; kill it if it outlives ``timeout``.  Returns its exit code."""
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def tail_latency(latencies):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n, beyond


def self_tests(pairs):
    """Corrupt one correct answer of each kind; every corruption must be rejected."""
    results = {}
    for expect, out in pairs:
        corrupted = checks.corrupt(expect, out)
        if corrupted is None or corrupted[0] in results:
            continue
        what, bad = corrupted
        results[what] = checks.check(expect, bad) is not None
    return results


def input_properties(problems, latencies_by_class):
    props = defaultdict(list)
    for p in problems:
        for key, value in p["props"].items():
            if value is not None:
                props[key].append(value)
    out = {"dimension_mix": dict(Counter(str(p["props"]["dim"]) for p in problems if p["props"]["dim"]))}
    if props["feasible"]:
        out["feasible_share"] = sum(props["feasible"]) / len(props["feasible"])
    if props["repeat"]:
        extend = [p for p in problems if p["cmd"] == "extend"]
        out["repeated_assignment_share"] = sum(p["props"]["repeat"] for p in extend) / len(extend)
    if props["dyadic"]:
        out["dyadic_boundary_share"] = sum(map(float, props["dyadic"])) / len(props["dyadic"])
    total = sum(sum(v) for v in latencies_by_class.values())
    out["cost_by_class"] = {
        cls: {"count": len(v), "median_ms": 1e3 * statistics.median(v), "time_share": sum(v) / total}
        for cls, v in sorted(latencies_by_class.items())
    }
    every = [x for v in latencies_by_class.values() for x in v]
    q1, q2, q3 = statistics.quantiles(every, n=4)
    out["cost_spread_ms"] = {"min": 1e3 * min(every), "q1": 1e3 * q1, "median": 1e3 * q2,
                             "q3": 1e3 * q3, "max": 1e3 * max(every),
                             "cv": statistics.pstdev(every) / statistics.mean(every)}
    return out


def environment(backend):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"famkit_backend": backend, "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "numpy_importable": importlib.util.find_spec("numpy") is not None}


def run(args, work, out_dir):
    rounds = workloads.generate(args.workload, args.seed)
    probes = workloads.known_defect_probes(args.workload)
    by_id = {}

    def place(pid, problem):
        path = work / f"{pid}.json"
        path.write_text(json.dumps(problem["input"]), encoding="utf-8")
        by_id[pid] = problem
        return [pid, [problem["cmd"], "--in", str(path)]]

    manifest = {
        "rounds": [[place(f"r{i}p{j}", p) for j, p in enumerate(rnd)] for i, rnd in enumerate(rounds)],
        "probes": [place(f"probe{j}", p) for j, p in enumerate(probes)],
    }
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    worker = [sys.executable, str(HERE / "worker.py")]
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = spawn_ready(worker + ["--probe"], env)
        finish(proc, 30)
        setup.append(ready)

    result_path = work / "result.json"
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    proc, ready = spawn_ready(worker + [
        "--manifest", str(manifest_path), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(result_path), "--spans", str(spans_path)], env)
    setup.append(ready)
    code = finish(proc, WORKER_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    records = result["records"]
    failures = []
    checked_pairs = []
    for record in records:
        expect = by_id[record["id"]]["expect"]
        reason = verdict(record, expect)
        if reason:
            failures.append({"id": record["id"], "class": by_id[record["id"]]["cls"], "reason": reason})
        else:
            checked_pairs.append((expect, json.loads(record["stdout"])))
    tests = self_tests(checked_pairs)

    known = []
    for record in result["probes"]:
        expect = by_id[record["id"]]["expect"]
        reason = verdict(record, expect)
        known.append({"id": record["id"], "class": by_id[record["id"]]["cls"], "reason": reason,
                      "as_known": reason is None or expect["known"] in reason})
    probes_ok = all(k["as_known"] for k in known)

    latencies = [r["latency_s"] for r in records]
    by_class = defaultdict(list)
    for r in records:
        by_class[by_id[r["id"]]["cls"]].append(r["latency_s"])
    tail, tail_pct, samples, beyond = tail_latency(latencies)
    ok = len(records) - len(failures)
    end_to_end = {
        "problems_per_s": (ok / result["wall_s"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": result["rounds"], "attempted": len(records), "failed": len(failures),
        "failed_share": len(failures) / len(records),
        "latency_tail": {"percentile": tail_pct, "samples": samples, "beyond": beyond},
        "setup_samples_s": setup,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "failures": failures,
        "known_defects": known,
        "checker_self_tests": tests,
        "inputs": input_properties([by_id[r["id"]] for r in records], by_class),
        "environment": environment(result["backend"]),
    }
    traced_failures = []
    if args.trace:
        traced = result["traced"]
        for record in traced["records"]:
            reason = verdict(record, by_id[record["id"]]["expect"])
            if reason:
                traced_failures.append({"id": record["id"], "reason": reason})
        layers = dict(traced["layers"])
        overhead = traced["wall_s"] - result["wall_s"]
        layers["trace.overhead_s"] = (overhead / result["rounds"], "s/round")
        layers["trace.overhead_share"] = (overhead / result["wall_s"], "ratio")
        report.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                      traced_failures=traced_failures, spans=traced["spans"],
                      self_ms_per_round=traced["self_ms_per_round"], traced_wall_s=traced["wall_s"],
                      untraced_wall_s=result["wall_s"])
    correct = (not failures and not traced_failures and probes_ok
               and bool(tests) and all(tests.values()))
    report["correct"] = correct
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    for name, (value, unit) in end_to_end.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} latency_tail is p{tail_pct:.2f} of {samples} samples "
          f"({result['rounds']} rounds); failed_share {report['failed_share']:.4g}")
    for k in known:
        print(f"{args.workload} known defect {k['class']}: {k['reason'] or 'now answers correctly'}"
              + ("" if k["as_known"] else " (UNEXPECTED)"))
    for f in failures[:10]:
        print(f"{args.workload} FAILED {f['id']} {f['class']}: {f['reason']}")
    print(f"{args.workload} checker self-tests: " + ", ".join(
        f"{what} {'rejected' if rejected else 'ACCEPTED'}" for what, rejected in tests.items()))
    print(f"{args.workload} inputs {json.dumps(report['inputs'], sort_keys=True)}")
    print(f"{args.workload} environment {json.dumps(report['environment'], sort_keys=True)}")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"{args.workload} {name} {value:.6g} {unit}")
        metrics = report["per_layer"]
    else:
        metrics = report["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "famkit" / "__init__.py").is_file():
        print("perfbench: no famkit sources under src/ in this checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run(args, work, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
