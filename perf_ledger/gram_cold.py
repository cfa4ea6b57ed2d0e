"""gram_cold: a cold Gram feeding Kernel PCA and clustering, in process.

Closed loop, one caller.  Each operation builds a fresh
``AnalysisSession()`` (no state dir: no pair store, no result cache) and
runs ``analyze(traces=...)`` on the next of ``POOL`` pre-generated
110-trace paper-shaped corpora: encode, Gram, KPCA, clustering.  About
6.1k kernel evaluations per operation.  Kast and engine changes show
here; service and store changes must not.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

import harness
import layers
from harness import Report
from inputs import CONFIG, Item, NovelTraces
from tracing import SpanLog, in_window, under
from workload import Op, Phase, end_to_end, summarise

#: Label counts of the paper corpus (22 originals x 5 examples).
PAPER_LABELS = {"A": 50, "B": 20, "C": 20, "D": 20}
POOL = 4
SETUPS = 3
SPOT_PAIRS = 3


def expected_evals(count: int) -> int:
    """Kernel evaluations of a cold Gram over *count* distinct strings."""
    return count * (count - 1) // 2 + count


def analyse(corpus: Sequence[Item]):
    from repro.api import AnalysisSession

    session = AnalysisSession()
    result = session.analyze(CONFIG, traces=[trace for trace, _ in corpus])
    return session, result


def check(session, result, spots: Sequence[tuple], evals: int, expected: int,
          reference) -> Optional[str]:
    """Why one analysis is wrong, or ``None``.

    * served-by: the kernel ran exactly once per distinct pair and string;
    * spot pairs: raw values equal the ``backend="python"`` reference bit
      for bit;
    * output: the analysed matrix equals the (repaired) Gram assembled
      from those raw values.
    """
    if evals != expected:
        return f"served-by: {evals} kernel evaluations, expected {expected}"
    engine = session.engine(harness.spec())
    strings = result.strings
    for i, j in spots:
        if engine.pair_value(strings[i], strings[j]) != reference.value(strings[i], strings[j]):
            return f"spot pair ({i}, {j}) differs from the python reference"
    gram = engine.matrix(strings)
    if not gram.is_positive_semidefinite():
        gram = gram.repaired()
    if not np.array_equal(gram.values, result.kernel_matrix.values):
        return "analysed matrix differs from the assembled Gram"
    return None


def run(seed: int, seconds: float, trace: bool) -> Report:
    from repro.api import kernel_from_spec, make_spec

    harness.pin(harness.PROGRAM_CPU)
    report = Report()
    speed = harness.Speed()
    novel = NovelTraces(seed, "gram_cold")
    corpora: List[List[Item]] = []
    generate_s = harness.timed_step(speed, lambda: corpora.extend(novel.take_balanced(PAPER_LABELS, POOL)))
    size = len(corpora[0])
    expected = expected_evals(size)
    reference = kernel_from_spec(make_spec(harness.SPEC_KIND, backend="python", **harness.SPEC_PARAMS))
    rng = random.Random(f"gram_cold-spots:{seed}")

    _, setup_seconds = harness.timed_setup(
        lambda attempt: analyse(corpora[0]), lambda env: None, 1 if trace else SETUPS, speed
    )
    counters: List[Dict[str, int]] = []

    def phase(duration: float, log: Optional[SpanLog]) -> Phase:
        result_phase = Phase()

        def op(index: int) -> None:
            slot = index % POOL
            result_phase.speed.probe()
            began = time.monotonic()
            if log is not None:
                with log.span("op", key=str(index)):
                    session, result = analyse(corpora[slot])
            else:
                session, result = analyse(corpora[slot])
            latency = time.monotonic() - began
            info = session.engine_counters()
            spots = [tuple(rng.sample(range(size), 2)) for _ in range(SPOT_PAIRS)]
            reason = check(session, result, spots, info["kernel_evals"], expected, reference)
            result_phase.ops.append(Op(latency, size, reason=reason, started=began))
            if log is None:
                counters.append(info)
            session.shutdown()

        window_start = time.monotonic()
        harness.run_closed_loop(duration, op)
        result_phase.speed.probe()
        result_phase.window = (window_start, time.monotonic())
        result_phase.rescale()
        return result_phase

    measure = seconds / 2 if trace else seconds
    untraced = phase(measure, None)
    report.note(f"gram_cold: closed loop, 1 caller, analyses of {size} traces "
                f"({POOL} corpora cycled, fresh session each)")
    report.note(f"inputs: {POOL * size} novel strings by fingerprint from "
                f"{novel.corpora_built} corpora ({novel.duplicates_dropped} repeats dropped); "
                f"every analysis sends {size} strings, all novel to its session")
    latencies = summarise(report, untraced)
    if not trace:
        end_to_end(report, untraced, layers.op_p50_ms(latencies), generate_s, setup_seconds,
                   harness.own_peak_rss_mb(), open_loop=False)
        return report

    log = SpanLog()
    log.install()
    try:
        traced = phase(measure, log)
    finally:
        log.uninstall()
    traced_scaled = summarise(report, traced)
    values = layers.per_layer(
        len(traced.ops), [op.wall for op in traced.succeeded()],
        client=under(in_window(log.spans, *traced.window), "op"),
        counts=_counts(counters),
        overhead_ms=layers.op_p50_ms(traced_scaled) - layers.op_p50_ms(latencies),
    )
    for name, value in values.items():
        report.metric(name, value, layers.UNITS[name])
    return report


def _counts(counters: Sequence[Dict[str, int]]) -> Dict[str, float]:
    ops = max(len(counters), 1)
    evals = sum(info["kernel_evals"] for info in counters)
    hits = sum(info["pair_hits"] for info in counters)
    lookups = hits + sum(info["pair_misses"] for info in counters)
    return {
        "engine.kernel_evals": evals / ops,
        "engine.pair_lookups": lookups / ops,
        "engine.pair_hit_ratio": layers.ratio(hits, lookups),
    }
