"""Benchmark: start-up of the famkit CLI, one fresh interpreter per run.

Times ``python -m famkit <subcommand> --in <file>`` on small fixed problems
of each engine (``extend`` and ``constrain`` on the exact simplex,
``integrate`` on the polynomial refinement loop, ``jordan`` and ``measure``
on the dyadic lattice, ``cantor`` on the cylinder sweeps), and
``import famkit.cli`` alone.  Each fixture solves in a few milliseconds, so
its time is nearly all interpreter start-up and imports.  The floor is
``python -c pass``.

Two modes, both on a copy of ``src/famkit`` in a temporary directory, so
nothing is written into the repository and no bytecode left there is read:

- ``no-cache``: ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles
  famkit from source, as the perfbench worker does in a fresh checkout;
- ``cached``: ``PYTHONPYCACHEPREFIX=<tempdir>``, filled by one untimed run
  of each fixture.

Prints the median wall time of ``--repeat`` runs per fixture and mode; the
runs cycle through the fixtures so that a drift in the machine's speed
spreads over all of them.  Every run must exit 0 and print a report.  Then
prints the in-process time of ``build_parser()``'s first call, the median
over fresh builds after ``build_parser.cache_clear()`` in one interpreter,
with the number of flag slots of the parser it builds (``-h`` aside).

Usage:
    python benchmarks/bench_cli.py [--repeat N]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SQUARE = [[0, 1], [0, 1]]
PROBLEMS = {
    "extend": {"ground": {"n": 4}, "pairs": [[[0, 1, 2, 3], "1"], [[0, 1], "1/2"], [[1, 2], "1/4"]],
               "value_range_of": [1]},
    "constrain": {"ground": {"n": 4}, "sets": [[0, 1], [1, 2]],
                  "targets": [["1/4", "1/2"], {"set": ["1/3", "1/2"]}], "delta": "1"},
    "integrate": {"fn": {"poly": [0, 0, 1]}, "box": [[0, 1]], "epsilon": "1e-3"},
    "jordan": {"region": "triangle-xy", "box": SQUARE, "epsilon": "1/64"},
    "measure": {"region": {"halfplane": {"normal": [1, 2], "offset": "2/3"}}, "box": SQUARE, "epsilon": "1/64"},
    "cantor": {"fn": {"poly": [0, 0, 1]}, "op": "integrate", "epsilon": "1e-3"},
}


def fixtures(tmp: Path) -> dict[str, list[str]]:
    """The argv of each fixture, after the interpreter."""
    out = {"floor": ["-c", "pass"], "import famkit.cli": ["-c", "import famkit.cli"]}
    for command, problem in PROBLEMS.items():
        path = tmp / f"{command}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        out[command] = ["-m", "famkit", command, "--in", str(path)]
    return out


# prints the median seconds of a first build_parser() call, then the flag slots
PARSER_BUILDS = """
import statistics, time
from famkit.cli import build_parser
seconds = []
for _ in range(51):
    build_parser.cache_clear()
    started = time.perf_counter()
    parser = build_parser()
    seconds.append(time.perf_counter() - started)
subparsers = parser._subparsers._group_actions[0].choices.values()
print(statistics.median(seconds), sum(len(p._actions) - 1 for p in subparsers))
"""


def spawn(argv, env) -> float:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - started
    if proc.returncode != 0 or (argv[0] == "-m" and not proc.stdout):
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=3, help="runs per fixture and mode (the median is kept)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="famkit-bench-cli-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(SRC / "famkit", tmp / "src" / "famkit", ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(tmp / "src")
        modes = {
            "no-cache": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "cached": dict(base, PYTHONPYCACHEPREFIX=str(tmp / "pycache")),
        }
        runs = fixtures(tmp)
        for fixture in runs.values():
            spawn(fixture, modes["cached"])
        seconds = {(name, mode): [] for name in runs for mode in modes}
        for _ in range(args.repeat):
            for mode, env in modes.items():
                for name, fixture in runs.items():
                    seconds[name, mode].append(spawn(fixture, env))
        build, slots = subprocess.run([sys.executable, "-c", PARSER_BUILDS], env=modes["cached"], check=True,
                                      capture_output=True, text=True, timeout=60).stdout.split()

    header = f"{'fixture':18} " + " ".join(f"{mode + ' ms':>12}" for mode in modes)
    print(header)
    print("-" * len(header))
    for name in runs:
        print(f"{name:18} " + " ".join(f"{1e3 * statistics.median(seconds[name, mode]):>12.1f}" for mode in modes))
    print(f"\nbuild_parser() first call: {1e3 * float(build):.2f} ms in process, {slots} flag slots")
    return 0


if __name__ == "__main__":
    sys.exit(main())
