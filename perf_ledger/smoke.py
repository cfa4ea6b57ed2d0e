"""Smoke test of the benchmark itself.

Usage (from the root of a checkout): ``python3 perf_ledger/smoke.py``.

1. Runs every workload at minimum size (``--seconds 1``), untraced and
   traced, and checks that the result line carries every metric
   ``BENCHMARK.json`` names, with its unit, and that nothing failed.
2. Feeds each workload's output check a tampered payload and a wrongly
   served answer, and checks that each counts as a failed operation.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   the benchmark's files, where it must fail without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

FAILURES: List[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf_ledger/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=180,
    )


def check_runs(config: dict) -> None:
    for workload in (entry["name"] for entry in config["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(harness.ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exits 0")
            if done.returncode != 0:
                print(done.stderr[-3000:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} correct with no failed operation")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            wanted = {entry["name"]: entry["unit"] for entry in config[group]}
            expect(units == wanted, f"{label} prints every {group} metric with its unit")


def counts_as_failed(check: Callable[[], object], what: str) -> None:
    """*check* returns a failure reason; an operation carrying it must fail."""
    from workload import Op, Phase

    reason = check() or None
    ledger = Phase(ops=[Op(0.1, 1, reason=reason)]).ledger()
    expect(ledger.failed == 1 and ledger.attempted == 1, f"{what} counts as failed ({reason})")


def check_tampering() -> None:
    harness.require_program()
    import dist_cold
    import gram_cold
    import remote_reuse
    import stream_classify
    from inputs import NovelTraces
    from repro.api import AnalysisSession, kernel_from_spec, make_spec

    spec = harness.spec()

    # gram_cold: a small cold analysis, then a tampered matrix and a wrong count.
    corpus = NovelTraces(1, "smoke").take_balanced({"A": 4, "B": 3, "C": 3, "D": 3}, 1)[0]
    session, result = gram_cold.analyse(corpus)
    evals = session.engine_counters()["kernel_evals"]
    expected = gram_cold.expected_evals(len(corpus))
    reference = kernel_from_spec(make_spec(harness.SPEC_KIND, backend="python", **harness.SPEC_PARAMS))
    spots = [(0, 1), (2, 5)]
    expect(gram_cold.check(session, result, spots, evals, expected, reference) is None,
           "gram_cold check passes an untouched analysis")
    tampered = copy.deepcopy(result)
    tampered.kernel_matrix.values[0, 1] += 1e-9
    counts_as_failed(lambda: gram_cold.check(session, tampered, spots, evals, expected, reference),
                     "gram_cold tampered matrix")
    counts_as_failed(lambda: gram_cold.check(session, result, spots, evals - 1, expected, reference),
                     "gram_cold wrongly served (evaluation count)")

    # stream_classify: a real in-process answer in the wire shape, then tampering.
    strings = [string for _, string in corpus]
    model, _ = session.fit_landmark_model(spec, strings, name="smoke", landmarks=4)
    scorer = AnalysisSession().streaming_scorer(model)
    query = [string for _, string in NovelTraces(2, "smoke").take(3)] + strings[:1]
    labels = {string.name: scorer.classify(string).label for string in query}
    response = {
        "kernel_evals": 3 * model.m,
        "results": [
            {"name": string.name, "label": labels[string.name], "kernel_evals": model.m if index < 3 else 0}
            for index, string in enumerate(query)
        ],
    }
    names = [string.name for string in query]
    expect(stream_classify.check_response(response, names, 3, model.m, labels) == "",
           "stream_classify check passes a right answer")
    wrong_label = copy.deepcopy(response)
    wrong_label["results"][0]["label"] = "not-a-label"
    counts_as_failed(lambda: stream_classify.check_response(wrong_label, names, 3, model.m, labels),
                     "stream_classify tampered label")
    warm = copy.deepcopy(response)
    warm["results"][3]["kernel_evals"] = model.m
    warm["kernel_evals"] += model.m
    counts_as_failed(lambda: stream_classify.check_response(warm, names, 3, model.m, labels),
                     "stream_classify wrongly served (repeat trace evaluated)")

    # remote_reuse: payloads against their byte-identical references.
    engine = session.engine(spec)
    payload = engine.matrix_payload(session.matrix(spec, strings), strings)
    reordered = strings[::-1]
    reorder_payload = engine.matrix_payload(session.matrix(spec, reordered), reordered)
    hit_ref, reuse_ref = harness.dumps_canonical(payload), harness.dumps_canonical(reorder_payload)
    expect(remote_reuse.check_request("hit", payload, "hit", hit_ref) is None
           and remote_reuse.check_request("reuse", reorder_payload, "miss", reuse_ref) is None,
           "remote_reuse check passes right payloads")
    bad = copy.deepcopy(reorder_payload)
    bad["values"][0][1] = bad["values"][0][1] + 1e-12
    counts_as_failed(lambda: remote_reuse.check_request("reuse", bad, "miss", reuse_ref),
                     "remote_reuse tampered payload")
    counts_as_failed(lambda: remote_reuse.check_request("hit", payload, "miss", hit_ref),
                     "remote_reuse wrongly served (resubmit missed the cache)")

    # dist_cold: spot entries and the block/evaluation counts.
    raw = engine.matrix_payload(session.matrix(spec, strings, repair=False), strings)
    kernel = kernel_from_spec(spec)
    expect(dist_cold.check_spots(raw, strings, spots, kernel) == "", "dist_cold check passes a right payload")
    bad_raw = copy.deepcopy(raw)
    bad_raw["values"][2][5] = 0.5
    counts_as_failed(lambda: dist_cold.check_spots(bad_raw, strings, spots, kernel), "dist_cold tampered payload")
    blocks = dist_cold.planned_blocks(dist_cold.SHARDS)
    expect(dist_cold.served_by(2 * blocks, 2 * dist_cold.expected_evals(dist_cold.STRINGS), 2) == "",
           "dist_cold served-by passes the planned counts")
    counts_as_failed(lambda: dist_cold.served_by(2 * blocks - 1, 2 * dist_cold.expected_evals(dist_cold.STRINGS), 2),
                     "dist_cold wrongly served (a block task missing)")


def check_without_program(config: dict) -> None:
    bare = harness.fresh_dir("smoke-bare")
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in config["paths"]:
            shutil.copytree(harness.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, config["workloads"][0]["name"], 0)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the program the benchmark fails and prints no result")
    finally:
        harness.clean_work()


def main() -> int:
    config = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    check_without_program(config)
    check_tampering()
    check_runs(config)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
