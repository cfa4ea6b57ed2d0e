"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perf_ledger/run.py --workload gram_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, half the time each, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run fails
with exit status 2 and no result when the program is not there to
measure.  See ``README.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, in this process and the servers and workers it starts
# (they inherit the environment).  On two cores OpenBLAS's spinning worker
# threads contend with the server and the load generator, and at random
# stretch a 2 ms 110x110 eigendecomposition to over 200 ms.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("gram_cold", "stream_classify", "remote_reuse", "dist_cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.require_program()
    except harness.BenchmarkError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import importlib
    import signal

    # A stop request still runs the cleanup that stops the program's processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = importlib.import_module(args.workload)
    # Write-back of files an earlier run left dirty would otherwise land on
    # this run's fsyncs (the job store, result cache and pair store sync).
    os.sync()
    try:
        report = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        harness.clean_work()
    for line in report.notes:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
