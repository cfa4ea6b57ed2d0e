"""The run of a workload that drives ``repro serve`` over HTTP.

:func:`run_service` owns the sequence every service workload follows:

1. generate the inputs (benchmark-side, once);
2. set the program up ``SETUPS`` times on fresh state dirs — start the
   processes, prime them, run one untimed warm-up operation — and keep
   the last (``setup_s`` is input generation plus the median set-up);
3. run the timed phase, reading ``/metrics`` before and after, and scale
   its times to the reference speed (:class:`harness.Speed`);
4. verify every operation's output and how it was served;
5. with tracing, set up once more through ``launch.py``, run a traced
   phase of the same length, and turn spans and counts into the
   per-layer metrics.

A workload supplies the parts as methods of a :class:`ServiceWorkload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import layers
import tracing
from harness import Ledger, Program, Report, counter_delta
from tracing import SpanLog, in_window

SETUPS = 3

#: In the benchmark process only the client round trip is wrapped; the
#: program's own layers are traced inside its processes.
CLIENT_TARGETS = tuple(target for target in tracing.TARGETS if target[0] == "client.request")


@dataclass
class Op:
    """One timed operation: its latency, its size and what to verify."""

    seconds: float
    traces: int
    data: Any = None
    reason: Optional[str] = None
    #: When the operation started (``time.monotonic``); for the open loop,
    #: when it was due.
    started: float = 0.0
    #: ``seconds`` as the clock read it; :meth:`Phase.rescale` sets
    #: ``seconds`` to the reference speed.
    wall: float = 0.0


@dataclass
class Phase:
    ops: List[Op] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    #: Probes taken while the phase ran (between operations).
    speed: harness.Speed = field(default_factory=harness.Speed)
    #: The latency metrics cover only the first this many operations (all
    #: when ``None``): where each operation grows a store that slows the
    #: next, a run that fits in more operations would otherwise report
    #: slower ones.
    measured: Optional[int] = None
    #: The program's peak RSS when the last measured operation ended (set
    #: by workloads with ``measured``; the store, and memory, keep growing).
    peak_rss_mb: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Set when the input pool ran out before the time was up.
    exhausted: bool = False
    #: ``/metrics`` totals read just before and just after the phase.
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)

    def rescale(self) -> None:
        """Scale every operation's time to the reference speed."""
        for op in self.ops:
            op.wall = op.seconds
            op.seconds = self.speed.scale(op.wall, op.started, op.started + op.wall)

    def succeeded(self) -> List[Op]:
        return [op for op in self.ops if op.reason is None]

    def measured_ops(self) -> List[Op]:
        return self.ops[:self.measured]

    def tail_samples(self, kind: Any = None) -> List[float]:
        """Latencies for ``tail_ms`` (of the operations whose ``data`` is
        *kind*, when given); a failed operation misses the tail (it counts
        as taking the whole phase)."""
        missed = self.window[1] - self.window[0]
        return [missed if op.reason is not None else op.seconds for op in self.measured_ops()
                if kind is None or op.data == kind]

    def ledger(self) -> Ledger:
        ledger = Ledger()
        for op in self.ops:
            ledger.count(op.reason)
        return ledger


class ServiceWorkload:
    """The parts of one service workload; see :func:`run_service`."""

    name = ""
    #: Open-loop workloads report throughput over the phase's wall time;
    #: closed-loop ones over their operations' summed time.
    open_loop = False
    serve_args: Sequence[str] = ()
    worker_args: Optional[Sequence[str]] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Generate the inputs from the seed."""

    def prime(self, program: Program, client: Any) -> None:
        """Bring a fresh program to its serving state and run one warm-up operation."""

    def phase(self, program: Program, client: Any, seconds: float) -> Phase:
        raise NotImplementedError

    def verify(self, phase: Phase) -> None:
        """Set ``reason`` on every operation whose output is wrong."""

    def p50_ms(self, phase: Phase) -> float:
        """The typical operation: the median of the succeeded measured ones."""
        return layers.op_p50_ms([op.seconds for op in phase.measured_ops() if op.reason is None])

    def tail(self, phase: Phase) -> Tuple[float, str]:
        """``tail_ms`` and a note on how it was taken."""
        return tail_ms(phase.tail_samples())

    def describe(self, report: Report, phase: Phase) -> None:
        """Notes on the untraced phase: load shape, novel and repeated strings."""


def _start(workload: ServiceWorkload, directory: Path, spans: Optional[Path] = None) -> Tuple[Program, Any]:
    program = Program(directory, workload.serve_args, workload.worker_args, spans=spans)
    try:
        client = program.client()
        workload.prime(program, client)
    except BaseException:
        program.close()
        raise
    return program, client


def summarise(report: Report, phase: Phase) -> List[float]:
    """Merge the phase's ledger into *report*; the succeeded latencies."""
    ledger = phase.ledger()
    report.ledger.merge(ledger)
    report.note(f"ops sent {ledger.attempted} succeeded {ledger.attempted - ledger.failed} "
                f"failed {ledger.failed} {ledger.reasons or ''}")
    return [op.seconds for op in phase.succeeded()]


def tail_ms(samples: Sequence[float]) -> Tuple[float, str]:
    value, percentile, count = harness.tail(samples)
    return 1000.0 * value, f"p{percentile:.0f} of n={count}"


def end_to_end(report: Report, phase: Phase, p50_ms: float, generate_s: float,
               setup_seconds: Sequence[float], peak_rss_mb: float, open_loop: bool,
               tail: Optional[Tuple[float, str]] = None) -> None:
    """The end-to-end metrics every workload reports; times are at the
    reference speed (see :class:`harness.Speed`)."""
    measured = phase.measured_ops()
    good = [op for op in measured if op.reason is None]
    latencies = [op.seconds for op in good]
    if len(measured) < len(phase.ops):
        report.note(f"latency metrics cover the first {len(measured)} of {len(phase.ops)} operations")
    tail_value, how = tail or tail_ms(phase.tail_samples())
    report.metric("p50_ms", p50_ms, "ms")
    report.metric("tail_ms", tail_value, "ms")
    report.note(f"tail_ms is {how}")
    busy = phase.window[1] - phase.window[0] if open_loop else sum(latencies)
    report.metric("traces_per_s", sum(op.traces for op in good) / max(busy, 1e-9), "1/s")
    report.metric("setup_s", generate_s + harness.median(setup_seconds), "s")
    report.note(f"setup: generate {generate_s:.3f} s + median set-up of "
                f"{[round(value, 3) for value in setup_seconds]} s")
    report.metric("peak_rss_mb", peak_rss_mb, "MB")
    wall = [op.wall for op in good]
    report.note(f"host speed: probes ran {phase.speed.slowdown():.2f}x the reference time; "
                f"unscaled p50 {1000.0 * harness.median(wall):.1f} ms")


def _measured_phase(workload: ServiceWorkload, program: Program, client: Any, seconds: float) -> Phase:
    before = program.metrics()
    phase = workload.phase(program, client, seconds)
    phase.before, phase.after = before, program.metrics()
    phase.rescale()
    return phase


def run_service(workload: ServiceWorkload, seconds: float, trace: bool) -> Report:
    harness.pin(harness.LOADGEN_CPU)
    report = Report()
    speed = harness.Speed()
    generate_s = harness.timed_step(speed, workload.prepare)
    measure = seconds / 2 if trace else seconds

    (program, client), setup_seconds = harness.timed_setup(
        lambda attempt: _start(workload, harness.fresh_dir(f"setup{attempt}")),
        lambda env: env[0].close(),
        1 if trace else SETUPS,
        speed,
    )
    try:
        phase = _measured_phase(workload, program, client, measure)
        peak_rss = phase.peak_rss_mb or program.peak_rss_mb()
    finally:
        program.close()
    workload.verify(phase)
    workload.describe(report, phase)
    if phase.exhausted:
        report.note("the novel input pool ran out before the time was up: the run measured fewer operations")
    summarise(report, phase)
    if not trace:
        end_to_end(report, phase, workload.p50_ms(phase), generate_s, setup_seconds, peak_rss,
                   workload.open_loop, workload.tail(phase))
        return report

    counts = service_counts(phase.before, phase.after, len(phase.ops))
    directory = harness.fresh_dir("traced")
    spans_base = directory / "spans"
    log = SpanLog()
    traced_program, traced_client = _start(workload, directory, spans=spans_base)
    try:
        log.install(CLIENT_TARGETS)
        try:
            traced = _measured_phase(workload, traced_program, traced_client, measure)
        finally:
            log.uninstall()
    finally:
        traced_program.close()
    workload.verify(traced)
    summarise(report, traced)
    traced_good = [op.wall for op in traced.succeeded()]
    overhead_ms = workload.p50_ms(traced) - workload.p50_ms(phase)
    window = traced.window
    servers = [in_window(tracing.load_spans(f"{spans_base}.serve.json"), *window)]
    worker: List[tracing.Span] = []
    if workload.worker_args is not None:
        worker = in_window(tracing.load_spans(f"{spans_base}.worker.json"), *window)
    values = layers.per_layer(
        len(traced.ops),
        traced_good,
        client=in_window(log.spans, *window),
        servers=servers,
        worker=worker,
        counts={**phase.extra, **counts},
        overhead_ms=overhead_ms,
    )
    for name, value in values.items():
        report.metric(name, value, layers.UNITS[name])
    return report


def service_counts(before: Dict[str, float], after: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-operation counts every service workload reads from ``/metrics``."""
    ops = max(ops, 1)

    def delta(name: str) -> float:
        return counter_delta(after, before, name)

    hits, misses = delta("repro_engine_pair_hits_total"), delta("repro_engine_pair_misses_total")
    store_hits = delta("repro_pair_store_hits_total")
    store_lookups = store_hits + delta("repro_pair_store_misses_total")
    cache_hits = delta("repro_matrix_cache_hits_total")
    cache_lookups = cache_hits + delta("repro_matrix_cache_prefix_hits_total") + delta("repro_matrix_cache_misses_total")
    writes = sum(
        delta(f"repro_jobstore_{name}_total")
        for name in ("created", "claims", "results", "forgotten", "errors", "releases", "lease_requeues")
    )
    return {
        "engine.kernel_evals": delta("repro_engine_kernel_evals_total") / ops,
        "engine.pair_lookups": (hits + misses) / ops,
        "engine.pair_hit_ratio": layers.ratio(hits, hits + misses),
        "pairstore.hit_ratio": layers.ratio(store_hits, store_lookups),
        "pairstore.compactions": delta("repro_pair_store_compactions_total") / ops,
        "cachestore.hit_ratio": layers.ratio(cache_hits, cache_lookups),
        "service.jobstore_writes": writes / ops,
        "worker.tasks_per_job": delta("repro_worker_tasks_completed_total") / ops,
    }
