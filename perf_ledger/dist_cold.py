"""dist_cold: distributed matrix jobs executed by a pull worker.

``repro serve --no-inline-blocks`` plus one ``repro worker`` polling every
``POLL_S`` seconds, and one closed-loop caller.  Each operation is a
``distributed=True, shards=4`` matrix job over ``STRINGS`` strings novel
by fingerprint, about a second of kernel work on a 2-core host: far more
than the worker's poll interval, so polling does not set the job time.
It is the only workload that runs the worker's claim, lease and block
execution.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import harness
from harness import Report, counter_delta, dumps_canonical
from inputs import NovelTraces
from workload import Op, Phase, ServiceWorkload, run_service

#: Label counts of one job (80 strings in the paper corpus's proportions):
#: about a second of kernel work, so a 20-second run times some fifteen jobs.
JOB_LABELS = {"A": 37, "B": 15, "C": 14, "D": 14}
STRINGS = sum(JOB_LABELS.values())
SHARDS = 4
#: The worker's poll interval.  At 0.01 s the idle worker's polling of the
#: job store competed with the server and the speed probes on the
#: program's CPU, and job times spread twice as wide over ten seeds.
POLL_S = 0.05
SPOT_PAIRS = 4
#: Speed probes between jobs (a job takes about as long as 60 probes).
PROBES = 3
#: The latency metrics are taken over this many first jobs.  The worker's
#: pair store grows with every job and a job's time with the store (the
#: thirteenth job of a run took about twice as long as the first), so
#: metrics over all jobs would move with how many jobs a run fitted in.
MEASURED_JOBS = 8
#: The novel pool covers jobs no faster than this; a run that would need
#: more stops early (and says so) rather than repeat a string.
FASTEST_JOB_S = 0.75


def planned_blocks(shards: int) -> int:
    return shards * (shards + 1) // 2


def expected_evals(count: int) -> int:
    return count * (count - 1) // 2 + count


def served_by(tasks: float, evals: float, jobs: int) -> str:
    """Why the phase was served by the wrong layers ("" when right): the
    worker ran exactly the planned block tasks and the kernel ran once per
    distinct pair and string of every (novel) job."""
    if tasks != jobs * planned_blocks(SHARDS):
        return f"served-by: worker ran {tasks:.0f} block tasks for {jobs} jobs of {planned_blocks(SHARDS)}"
    if evals != jobs * expected_evals(STRINGS):
        return f"served-by: {evals:.0f} kernel evaluations for {jobs} cold jobs"
    return ""


def check_spots(payload: Dict, strings: List, spots: List[tuple], reference) -> str:
    """Why one job payload is wrong ("" when right): spot entries must equal
    the normalised in-process kernel value bit for bit."""
    from repro.kernels.base import normalize_kernel_value

    names = payload.get("names")
    if names != [string.name for string in strings]:
        return "payload names differ from the submitted corpus"
    values = payload["values"]
    for i, j in spots:
        want = normalize_kernel_value(
            reference.value(strings[i], strings[j]),
            reference.self_value(strings[i]),
            reference.self_value(strings[j]),
        )
        if values[i][j] != want or values[j][i] != want:
            return f"entry ({i}, {j}) differs from the in-process kernel"
    return ""


class DistCold(ServiceWorkload):
    name = "dist_cold"
    serve_args = ("--no-inline-blocks",)
    worker_args = ("--poll-interval", str(POLL_S))

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.seconds = seconds

    def prepare(self) -> None:
        self.novel = NovelTraces(self.seed, self.name)
        jobs = int(self.seconds / FASTEST_JOB_S) + 2
        groups = self.novel.take_balanced(JOB_LABELS, jobs)
        self.warmup = [string for _, string in groups[0]]
        self.pool = [[string for _, string in group] for group in groups[1:]]

    def _job(self, client, strings) -> Dict:
        return client.matrix_job(harness.spec(), strings, shards=SHARDS, distributed=True,
                                 repair=False, timeout=120)

    def prime(self, program, client) -> None:
        self.warmup_payload = self._job(client, self.warmup)["payload"]
        self.next = 0

    def phase(self, program, client, seconds: float) -> Phase:
        phase = Phase(measured=MEASURED_JOBS)
        started = time.monotonic()
        while time.monotonic() - started < seconds and self.next < len(self.pool):
            strings = self.pool[self.next]
            self.next += 1
            phase.speed.probe(PROBES)
            began = time.monotonic()
            try:
                job = self._job(client, strings)
            except Exception as exc:  # noqa: BLE001 - a failed job is a failed operation
                phase.ops.append(Op(time.monotonic() - began, len(strings), started=began,
                                    reason=f"error: {type(exc).__name__}"))
                continue
            phase.ops.append(Op(time.monotonic() - began, len(strings), started=began,
                                data=(strings, job["payload"])))
            if len(phase.ops) == MEASURED_JOBS:
                phase.peak_rss_mb = program.peak_rss_mb()
        phase.speed.probe(PROBES)
        phase.window = (started, time.monotonic())
        if self.next >= len(self.pool):
            phase.exhausted = True
        return phase

    def verify(self, phase: Phase) -> None:
        from repro.api import AnalysisSession, kernel_from_spec

        reference = kernel_from_spec(harness.spec())
        rng = random.Random(f"{self.name}-spots:{self.seed}")
        wrongly_served = served_by(
            counter_delta(phase.after, phase.before, "repro_worker_tasks_completed_total"),
            counter_delta(phase.after, phase.before, "repro_engine_kernel_evals_total"),
            len(phase.ops),
        )
        for op in phase.ops:
            if op.reason is not None:
                continue
            strings, payload = op.data
            spots = [tuple(rng.sample(range(len(strings)), 2)) for _ in range(SPOT_PAIRS)]
            op.reason = wrongly_served or check_spots(payload, strings, spots, reference) or None
            op.data = None
        # The warm-up job's whole payload against the in-process monolithic matrix.
        session = AnalysisSession()
        engine = session.engine(harness.spec())
        local = engine.matrix_payload(
            session.matrix(harness.spec(), self.warmup, repair=False), self.warmup
        )
        if dumps_canonical(local) != dumps_canonical(self.warmup_payload):
            for op in phase.ops:
                op.reason = op.reason or "warm-up payload differs from the in-process monolithic matrix"
        session.shutdown()

    def describe(self, report: Report, phase: Phase) -> None:
        report.note(f"dist_cold: closed loop, 1 caller; serve --no-inline-blocks + 1 worker "
                    f"polling every {POLL_S} s; jobs of {STRINGS} strings, {SHARDS} shards "
                    f"({planned_blocks(SHARDS)} block tasks)")
        report.note(f"inputs: {self.next} jobs sent {self.next * STRINGS} strings, all novel by "
                    f"fingerprint (pool from {self.novel.corpora_built} corpora, "
                    f"{self.novel.duplicates_dropped} repeats dropped)")



def run(seed: int, seconds: float, trace: bool) -> Report:
    return run_service(DistCold(seed, seconds), seconds, trace)
