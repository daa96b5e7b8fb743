"""Benchmark: one whole round of the extension workload.

Runs round 0 of the ``extension`` workload of ``perfbench/workloads.py``
(seed 1, 47 problems: extend with and without value ranges, compatible,
amalgamate, constrain and the 64-point fixtures) through
``famkit.cli.main``, as the benchmark worker runs them, and prints the
milliseconds per problem of each problem class.

The exit codes and reports the CLI prints must hash to a pinned sha256:
witnesses, certificates and value ranges do not change when the extension
engine is rewritten.  The script exits 1 when they do.

Usage:
    PYTHONPATH=src python benchmarks/bench_extension.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from famkit import cli  # noqa: E402

SEED = 1
# sha256 of the exit codes and reports of round 0, in run order, pinned
# while the extension engine still wrote each atom row in four places
PINNED = "c1dd69f4d2b2d684f8dc8a8727d6c0f82bf954d094eb873458fcde1700c8142e"


def run(path: Path, cmd: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([cmd, "--in", str(path)])
    return code, out.getvalue()


def main():
    (problems,) = workloads.generate("extension", SEED, rounds=1)
    digest = hashlib.sha256()
    seconds = defaultdict(list)
    with tempfile.TemporaryDirectory(prefix="famkit-bench-extension-") as tmp:
        for i, problem in enumerate(problems):
            path = Path(tmp) / f"{i}.json"
            path.write_text(json.dumps(problem["input"]), encoding="utf-8")
            started = time.perf_counter()
            code, report = run(path, problem["cmd"])
            seconds[problem["cls"]].append(time.perf_counter() - started)
            digest.update(f"{code}\n{report}".encode())

    header = f"{'class':22} {'problems':>8} {'ms/problem':>10}"
    print(header)
    print("-" * len(header))
    for cls in sorted(seconds):
        times = seconds[cls]
        print(f"{cls:22} {len(times):>8} {1e3 * sum(times) / len(times):>10.2f}")
    print(f"{'all':22} {len(problems):>8} {1e3 * sum(map(sum, seconds.values())) / len(problems):>10.2f}")

    if digest.hexdigest() != PINNED:
        print(f"reports sha256 {digest.hexdigest()} differs from the pinned {PINNED}")
        return 1
    print(f"reports sha256 {digest.hexdigest()[:16]}... as pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
