"""remote_reuse: a reused remote matrix, served from the warm service.

One ``repro serve``, primed at set-up with the seed's 110-string paper
corpus.  Open loop: a seeded schedule of ``submit-matrix`` + ``result``
requests at a fixed rate well below the single-caller capacity (one at a
random point of the middle half of every 1/rate slot), at most two in
flight, stratified
50/50 over two classes in seeded order:

* ``hit``: an exact resubmit of the primed corpus, answered from the
  ``MatrixCache``;
* ``reuse``: a fresh seeded reordering of the same strings, which misses
  the ``MatrixCache`` and is assembled with zero kernel evaluations.

Each request is timed from when it was due, so a stall also delays the
requests queued behind it.  The two classes have different latencies, so
``p50_ms`` is the mean of the two class medians (each class median is
reported on its own as ``client.hit_p50_ms`` / ``client.reuse_p50_ms``):
a median over the 50/50 mix would depend on where the classes overlap.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
from harness import Report, counter_delta, dumps_canonical
from inputs import paper_corpus
from workload import Op, Phase, ServiceWorkload, run_service, tail_ms

#: Requests per second.  One caller completes about eight a second on a
#: 2-core host, so the server is idle most of the time.
RATE = 3.0
CALLERS = 2
#: A speed probe runs in a gap only when nothing is in flight and the
#: next request is due no sooner than this.
PROBE_GAP_S = 0.1
HIT, REUSE = "hit", "reuse"


def check_request(kind: str, payload: Dict, cache: Optional[str], reference: str) -> Optional[str]:
    """Why one request is wrong, or ``None``.

    Served-by: a resubmit is a ``MatrixCache`` hit, a reordering a miss
    (the phase-wide zero-evaluation check covers the rest).  Output: the
    payload is byte-identical to the in-process ``matrix_payload`` of the
    same corpus in the same order.
    """
    want = "hit" if kind == HIT else "miss"
    if cache != want:
        return f"served-by: {kind} request answered with cache={cache}"
    if dumps_canonical(payload) != reference:
        return f"{kind} payload differs from the in-process payload"
    return None


class RemoteReuse(ServiceWorkload):
    name = "remote_reuse"
    open_loop = True

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.seconds = seconds

    def prepare(self) -> None:
        self.base = [string for _, string in paper_corpus(self.seed)]

    def _send(self, client, order: Optional[List[int]]) -> Dict[str, Any]:
        strings = self.base if order is None else [self.base[index] for index in order]
        return client.matrix_job(harness.spec(), strings, timeout=120)

    def prime(self, program, client) -> None:
        primed = self._send(client, None)
        if primed["cache"] != "miss":
            raise harness.BenchmarkError(f"priming answered with cache={primed['cache']}")
        warm_order = list(range(len(self.base)))
        random.Random(f"{self.name}-warmup:{self.seed}").shuffle(warm_order)
        self._send(client, None)
        self._send(client, warm_order)

    def phase(self, program, client, seconds: float) -> Phase:
        rng = random.Random(f"{self.name}-arrivals:{self.seed}")
        count = max(2, 2 * round(RATE * seconds / 2))
        # One arrival at a random point of the middle half of each 1/RATE
        # slot: open loop at a fixed rate, arrivals at least half a slot
        # apart.  Poisson clumps, and back-to-back arrivals at the edges of
        # two slots, made the tail depend on how often the seed put requests
        # together.
        slot = seconds / count
        dues = [(index + 0.25 + 0.5 * rng.random()) * slot for index in range(count)]
        kinds = [HIT, REUSE] * (count // 2)
        rng.shuffle(kinds)
        orders: List[Optional[List[int]]] = []
        for kind in kinds:
            order = None
            if kind == REUSE:
                order = list(range(len(self.base)))
                rng.shuffle(order)
            orders.append(order)
        pending: "queue.Queue[Optional[int]]" = queue.Queue()
        results: Dict[int, Dict[str, Any]] = {}
        finished = threading.Condition()
        clients = [client] + [program.client() for _ in range(CALLERS - 1)]
        speed = harness.Speed()
        speed.probe()
        start = time.monotonic() + 0.05

        def caller(own) -> None:
            while True:
                index = pending.get()
                if index is None:
                    return
                outcome: Dict[str, Any] = {"sent": time.monotonic()}
                try:
                    outcome["job"] = self._send(own, orders[index])
                except Exception as exc:  # noqa: BLE001 - a failed request is a failed operation
                    outcome["error"] = f"error: {type(exc).__name__}"
                outcome["done"] = time.monotonic()
                with finished:
                    results[index] = outcome
                    finished.notify()

        def wait_until(due_at: float, sent: int) -> None:
            """Sleep until *due_at*; once nothing is in flight, take one
            speed probe in the gap if the next request is not due too soon."""
            probed = False
            while True:
                remaining = due_at - time.monotonic()
                if remaining <= 0:
                    return
                with finished:
                    if not probed and len(results) < sent:
                        finished.wait(remaining)
                        continue
                if probed or remaining <= PROBE_GAP_S:
                    time.sleep(remaining)
                    return
                speed.probe()
                probed = True

        threads = [threading.Thread(target=caller, args=(own,), daemon=True) for own in clients]
        for thread in threads:
            thread.start()
        for index, due in enumerate(dues):
            wait_until(start + due, index)
            pending.put(index)
        for _ in threads:
            pending.put(None)
        for thread in threads:
            thread.join()
        speed.probe()
        phase = Phase(window=(start, time.monotonic()), speed=speed)
        lateness: List[float] = []
        for index, due in enumerate(dues):
            outcome = results[index]
            lateness.append(outcome["sent"] - (start + due))
            op = Op(outcome["done"] - (start + due), len(self.base), started=start + due,
                    data=(kinds[index], orders[index], outcome))
            op.reason = outcome.get("error")
            phase.ops.append(op)
        # Requests still queued behind others when the last one fell due.
        last_due = start + dues[-1]
        backlog = sum(1 for index in range(count - 1) if results[index]["sent"] > last_due)
        phase.extra.update({
            "loadgen.late_p50_ms": 1000.0 * harness.median(lateness),
            "loadgen.late_max_ms": 1000.0 * max(lateness),
            "loadgen.backlog": float(backlog),
        })
        return phase

    def verify(self, phase: Phase) -> None:
        from repro.api import AnalysisSession

        evals = counter_delta(phase.after, phase.before, "repro_engine_kernel_evals_total")
        session = AnalysisSession()
        engine = session.engine(harness.spec())

        def reference(order: Optional[List[int]]) -> str:
            strings = self.base if order is None else [self.base[index] for index in order]
            return dumps_canonical(engine.matrix_payload(session.matrix(harness.spec(), strings), strings))

        hit_reference = reference(None)
        for op in phase.ops:
            kind, order, outcome = op.data
            if op.reason is None:
                job = outcome["job"]
                op.reason = check_request(
                    kind, job["payload"], job["cache"], hit_reference if order is None else reference(order)
                )
            if op.reason is None and evals:
                op.reason = f"served-by: {evals:.0f} kernel evaluations in the phase, expected 0"
            op.data = kind
        session.shutdown()
        for kind in (HIT, REUSE):
            seconds = [op.seconds for op in phase.succeeded() if op.data == kind]
            phase.extra[f"client.{kind}_p50_ms"] = 1000.0 * harness.median(seconds)

    def p50_ms(self, phase: Phase) -> float:
        return (phase.extra["client.hit_p50_ms"] + phase.extra["client.reuse_p50_ms"]) / 2

    def tail(self, phase: Phase) -> Tuple[float, str]:
        """The mean of the two class tails, as ``p50_ms`` is of the class
        medians.  Over the mix, the tail percentile fell now among the
        reorderings and now among the few slowest requests, and over ten
        seeds took one of two values, about 85 and 110 ms."""
        tails = [tail_ms(phase.tail_samples(kind)) for kind in (HIT, REUSE)]
        how = ", ".join(f"{kind} {value:.1f} ms ({how})" for kind, (value, how) in zip((HIT, REUSE), tails))
        return harness.mean([value for value, _ in tails]), f"the mean of the class tails: {how}"

    def describe(self, report: Report, phase: Phase) -> None:
        report.note(f"remote_reuse: open loop, {RATE}/s seeded arrivals, {CALLERS} callers "
                    f"(max {CALLERS} in flight), 50/50 exact resubmits and fresh reorderings")
        report.note(f"inputs: {len(self.base)} strings primed at set-up; every request repeats "
                    f"all {len(self.base)} (0 novel)")
        extra = phase.extra
        report.note(f"classes (from due): hit p50 {extra['client.hit_p50_ms']:.1f} ms, "
                    f"reuse p50 {extra['client.reuse_p50_ms']:.1f} ms; p50_ms is their mean")
        report.note(f"load generator: lateness p50 {extra['loadgen.late_p50_ms']:.1f} ms, "
                    f"max {extra['loadgen.late_max_ms']:.1f} ms, final backlog {extra['loadgen.backlog']:.0f}")


def run(seed: int, seconds: float, trace: bool) -> Report:
    return run_service(RemoteReuse(seed, seconds), seconds, trace)
