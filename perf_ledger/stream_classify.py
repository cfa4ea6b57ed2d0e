"""stream_classify: streaming classify requests against a landmark model.

One ``repro serve`` with its default pair store and one closed-loop
caller.  At set-up the benchmark fits a landmark model over HTTP (m=16,
kcenter) on the seed's paper corpus.  Each ``classify`` request carries
16 traces: 12 novel by fingerprint and 4 that earlier requests already
classified.  This runs short Kast rows (16 targets, so per-call overhead
dominates) and pair-store writes and compactions on every novel row; it
touches no job store and no matrix cache.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Dict, List

import harness
from harness import Report
from inputs import NovelTraces, fingerprints, paper_corpus
from workload import Op, Phase, ServiceWorkload, run_service

MODEL = "bench"
LANDMARKS = 16
#: Label counts of a request's novel traces (the paper corpus's
#: proportions); requests are dealt by string length so they cost alike.
REQUEST_LABELS = {"A": 6, "B": 2, "C": 2, "D": 2}
NOVEL = sum(REQUEST_LABELS.values())
REPEATS = 4
#: The latency metrics are taken over this many first requests.  Every
#: request grows the pair store, and a request's latency grows with the
#: store (by about a half over a 20-second run), so metrics over all
#: requests would move with how many requests a run fitted in; the first
#: 36 see the same store sizes in every run.
MEASURED_REQUESTS = 36
#: The novel pool covers requests no faster than this; a run that would
#: need more stops early (and says so) rather than repeat a string.
FASTEST_REQUEST_S = 0.2


def check_response(response: Dict, names: List[str], novel: int, landmarks: int,
                   expected: Dict[str, str]) -> str:
    """Why one classify answer is wrong ("" when right).

    Served-by: each of the first *novel* traces cost exactly *landmarks*
    kernel evaluations and each repeated one none.  Output: every label
    equals the in-process scorer's label for that trace.
    """
    results = response.get("results", [])
    if [entry.get("name") for entry in results] != names:
        return "answer does not cover the request's traces"
    for index, entry in enumerate(results):
        want = landmarks if index < novel else 0
        if entry.get("kernel_evals") != want:
            return f"served-by: trace {index} took {entry.get('kernel_evals')} evaluations, expected {want}"
    if response.get("kernel_evals") != novel * landmarks:
        return f"served-by: {response.get('kernel_evals')} evaluations, expected {novel * landmarks}"
    for entry in results:
        if entry.get("label") != expected.get(entry["name"]):
            return f"label of {entry['name']} differs from the in-process scorer"
    return ""


class StreamClassify(ServiceWorkload):
    name = "stream_classify"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.seconds = seconds

    def prepare(self) -> None:
        self.fit = [string for _, string in paper_corpus(self.seed)]
        self.novel = NovelTraces(self.seed, self.name, exclude=fingerprints(self.fit))
        requests = math.ceil(self.seconds / FASTEST_REQUEST_S)
        self.warmup = [string for _, string in self.novel.take(NOVEL)]
        self.pool = [string for group in self.novel.take_balanced(REQUEST_LABELS, requests)
                     for _, string in group]

    def prime(self, program, client) -> None:
        fitted = client.fit_model(harness.spec(), self.fit, name=MODEL, landmarks=LANDMARKS,
                                  strategy="kcenter", timeout=300)
        self.model_path = fitted["payload"]["path"]
        # Warm-up: 12 novel traces plus 4 training traces (warm from the fit's Gram).
        client.classify(MODEL, self.warmup + self.fit[:REPEATS])
        self.classified = list(self.warmup)
        self.next = 0
        self.rng = random.Random(f"{self.name}-repeats:{self.seed}")

    def phase(self, program, client, seconds: float) -> Phase:
        phase = Phase(measured=MEASURED_REQUESTS)
        started = time.monotonic()
        while time.monotonic() - started < seconds and self.next + NOVEL <= len(self.pool):
            novel = self.pool[self.next:self.next + NOVEL]
            self.next += NOVEL
            strings = novel + self.rng.sample(self.classified, REPEATS)
            phase.speed.probe()
            began = time.monotonic()
            try:
                response = client.classify(MODEL, strings)
            except Exception as exc:  # noqa: BLE001 - a failed request is a failed operation
                phase.ops.append(Op(time.monotonic() - began, len(strings), started=began,
                                    reason=f"error: {type(exc).__name__}"))
                continue
            phase.ops.append(Op(time.monotonic() - began, len(strings), started=began,
                                data=(strings, response)))
            if len(phase.ops) == MEASURED_REQUESTS:
                phase.peak_rss_mb = program.peak_rss_mb()
            self.classified.extend(novel)
        phase.speed.probe()
        phase.window = (started, time.monotonic())
        if self.next + NOVEL > len(self.pool):
            phase.exhausted = True
        return phase

    def verify(self, phase: Phase) -> None:
        from repro.api import AnalysisSession
        from repro.streaming.store import ModelStore

        model = ModelStore(os.path.dirname(self.model_path)).load(MODEL)
        scorer = AnalysisSession().streaming_scorer(model)
        expected: Dict[str, str] = {}
        for op in phase.ops:
            if op.reason is not None:
                continue
            strings, response = op.data
            for string in strings:
                if string.name not in expected:
                    expected[string.name] = scorer.classify(string).label
            op.reason = check_response(response, [s.name for s in strings], NOVEL, model.m, expected) or None
        novel_evals = [entry["kernel_evals"] for op in phase.succeeded()
                       for entry in op.data[1]["results"][:NOVEL]]
        repeat_evals = [entry["kernel_evals"] for op in phase.succeeded()
                        for entry in op.data[1]["results"][NOVEL:]]
        phase.extra["streaming.evals_per_novel_trace"] = harness.mean(novel_evals)
        phase.extra["streaming.evals_per_repeat_trace"] = harness.mean(repeat_evals)
        for op in phase.ops:
            op.data = None

    def describe(self, report: Report, phase: Phase) -> None:
        report.note(f"stream_classify: closed loop, 1 caller, max 1 in flight; model m={LANDMARKS} "
                    f"kcenter on {len(self.fit)} paper traces")
        report.note(f"inputs: each request sends {NOVEL} novel + {REPEATS} repeated strings; "
                    f"{self.next} novel sent of a pool of {len(self.pool)} from "
                    f"{self.novel.corpora_built} corpora ({self.novel.duplicates_dropped} repeats dropped)")



def run(seed: int, seconds: float, trace: bool) -> Report:
    return run_service(StreamClassify(seed, seconds), seconds, trace)
