"""One workload in a fresh interpreter: import famkit, then run the closed loop.

Started by ``run.py`` with ``PYTHONPATH=src``.  It prints ``ready`` on its
standard output as soon as ``famkit.cli`` is imported (the parent times set-up
up to that line).  With ``--probe`` it stops there.  Otherwise it reads the
manifest (rounds of ``[problem id, argv]``), calls ``famkit.cli.main(argv)``
for one problem at a time, captures each report, and writes every raw answer
with its latency to ``--out``.  Checking happens in the parent, outside the
timed region.

Whole rounds run until the next one would end past ``--seconds``.  With
``--trace 1`` each round runs twice in a row, once plain and once with spans
and counters switched on (see ``tracing.py``), in alternating order, until
twice the time is up; the difference in wall time between the two halves is
the tracing overhead.  Pairing the halves round by round keeps slow drifts in
the machine's speed out of that difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def run_problem(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        failure = None
    except (Exception, SystemExit) as exc:  # a crash is recorded, never fatal to the run
        code, failure = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "failure": failure, "latency_s": latency}


def run_round(main, problems, records, on_problem=None):
    """Run one round; return its wall time."""
    start = time.perf_counter()
    for pid, argv in problems:
        if on_problem is not None:
            on_problem(pid)
        record = run_problem(main, argv)
        record["id"] = pid
        records.append(record)
    return time.perf_counter() - start


def run_rounds(rounds, seconds, *passes):
    """Run whole rounds, cycling through the manifest, each round once per pass.

    A pass is ``(main, on_problem, before)``; ``before`` runs ahead of the
    pass's round and is not timed.  The passes swap order every round, so that
    neither always runs first.  Stops before the round that would end past
    ``seconds`` (at least one round runs).  Returns, per pass, its records and
    summed wall time, and the number of rounds.
    """
    records = [[] for _ in passes]
    walls = [0.0] * len(passes)
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        order = range(len(passes)) if done % 2 == 0 else reversed(range(len(passes)))
        for i in order:
            main, on_problem, before = passes[i]
            before()
            walls[i] += run_round(main, rounds[done % len(rounds)], records[i], on_problem)
        done += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return records, walls, done


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import famkit
    from famkit import cli

    print("ready", flush=True)
    if args.probe:
        return 0

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    rounds = manifest["rounds"]
    if not args.trace:
        (records,), (wall,), done = run_rounds(rounds, args.seconds, (cli.main, None, lambda: None))
    else:
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)

        def enter(pid):
            tracer.problem = pid

        (records, traced), (wall, traced_wall), done = run_rounds(
            rounds, 2 * args.seconds,
            (cli.main, None, lambda: patches.apply(False)),
            (tracer.span("cli", cli.main), enter, lambda: patches.apply(True)),
        )
        patches.apply(False)
        out_bytes = sum(len(r["stdout"]) for r in traced)
        layers, self_ms = tracing.layer_metrics(tracer, done, out_bytes)
        traced_result = {
            "wall_s": traced_wall,
            "records": traced,
            "layers": layers,
            "self_ms_per_round": self_ms,
            "spans": len(tracer.spans),
        }
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {
        "backend": famkit.backend_name(),
        "rounds": done,
        "wall_s": wall,
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probes": [dict(run_problem(cli.main, argv), id=pid) for pid, argv in manifest["probes"]],
    }
    if args.trace:
        result["traced"] = traced_result

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
