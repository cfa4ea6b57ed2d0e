"""Per-layer metrics: self time per operation from spans, counts from counters.

Every workload prints every metric below in its traced run; a layer the
workload bypasses reads 0.  Times are milliseconds of *self* time per
timed operation (a span's duration minus its children's), except where
the README says otherwise.  Counts come from the program's own counters
(``/metrics`` deltas, or the session's engine counters in process) over
the untraced phase, or from span counts, divided by its operations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import tracing
from harness import median
from tracing import Span

#: ``(name, unit, better)`` of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("strings.encode_ms", "ms", "lower"),
    ("learn.analyse_ms", "ms", "lower"),
    ("kast.row_ms", "ms", "lower"),
    ("kast.row_calls", "count", "lower"),
    ("kast.pairs_per_row", "count", "higher"),
    ("kast.us_per_pair", "us", "lower"),
    ("kast.self_value_ms", "ms", "lower"),
    ("engine.kernel_evals", "count", "lower"),
    ("engine.pair_hit_ratio", "ratio", "higher"),
    ("engine.pair_lookups", "count", "lower"),
    ("engine.self_ms", "ms", "lower"),
    ("engine.assemble_ms", "ms", "lower"),
    ("pairstore.get_ms", "ms", "lower"),
    ("pairstore.get_calls", "count", "lower"),
    ("pairstore.hit_ratio", "ratio", "higher"),
    ("pairstore.put_ms", "ms", "lower"),
    ("pairstore.put_calls", "count", "lower"),
    ("pairstore.compactions", "count", "lower"),
    ("cachestore.lookup_ms", "ms", "lower"),
    ("cachestore.store_ms", "ms", "lower"),
    ("cachestore.hit_ratio", "ratio", "higher"),
    ("streaming.classify_ms", "ms", "lower"),
    ("streaming.evals_per_novel_trace", "count", "lower"),
    ("streaming.evals_per_repeat_trace", "count", "lower"),
    ("service.parse_ms", "ms", "lower"),
    ("service.fingerprint_ms", "ms", "lower"),
    ("service.jobstore_ms", "ms", "lower"),
    ("service.jobstore_writes", "count", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.result_wait_ms", "ms", "lower"),
    ("service.encode_ms", "ms", "lower"),
    ("service.handler_ms", "ms", "lower"),
    ("client.transport_ms", "ms", "lower"),
    ("client.round_trips", "count", "lower"),
    ("client.hit_p50_ms", "ms", "lower"),
    ("client.reuse_p50_ms", "ms", "lower"),
    ("worker.tasks_per_job", "count", "lower"),
    ("worker.block_ms", "ms", "lower"),
    ("worker.claim_ms", "ms", "lower"),
    ("worker.idle_wait_ms", "ms", "lower"),
    ("loadgen.late_p50_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.backlog", "count", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Time metrics that are self time on an operation's path; with
#: ``trace.unattributed_ms`` they add up to ``trace.op_ms``.  Waits
#: (queue, result, worker idle) overlap work and are reported apart.
SELF_TIME_METRICS = tuple(sorted(set(tracing.LAYER_OF.values()) | {"client.transport_ms"}))


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _queue_waits(processes: Sequence[Sequence[Span]]) -> List[float]:
    """Seconds from ``JobStore.create`` to the first claim, per created record."""
    created: Dict[str, float] = {}
    claimed: Dict[str, float] = {}
    for spans in processes:
        for _id, _parent, name, _start, end, _trace, key in spans:
            if key is None:
                continue
            if name == "jobstore.create":
                created[key] = end
            elif name in ("jobstore.claim_job", "jobstore.claim"):
                claimed[key] = min(end, claimed.get(key, end))
    return [claimed[key] - made for key, made in created.items() if key in claimed]


def _transport_seconds(client: Sequence[Span], servers: Sequence[Sequence[Span]]) -> float:
    """Client round trips minus the server's time on the same requests.

    The server's time is its ``do_POST`` span (body read, parse, handler,
    response write), matched to the client's request through the key of
    the handler span nested in it, in arrival order.
    """
    served: Dict[str, List[float]] = defaultdict(list)
    for spans in servers:
        keys = {span[1]: span[6] for span in spans if span[2] == "service.handler"}
        for span in sorted(spans, key=lambda span: span[3]):
            key = keys.get(span[0])
            if span[2] == "service.http" and key is not None:
                served[key].append(span[4] - span[3])
    total = 0.0
    for span in sorted(client, key=lambda span: span[3]):
        if span[2] != "client.request":
            continue
        queue = served.get(span[6] or "")
        total += (span[4] - span[3]) - (queue.pop(0) if queue else 0.0)
    return total


def _idle_waits(worker: Sequence[Span]) -> float:
    """Seconds the worker spent between polls (sleeping on its poll interval)."""
    polls = sorted((span for span in worker if span[2] == "worker.poll"), key=lambda span: span[3])
    return sum(max(0.0, later[3] - earlier[4]) for earlier, later in zip(polls, polls[1:]))


def per_layer(
    ops: int,
    op_seconds: Sequence[float],
    client: Sequence[Span] = (),
    servers: Sequence[Sequence[Span]] = (),
    worker: Sequence[Span] = (),
    counts: Optional[Mapping[str, float]] = None,
    overhead_ms: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric for one traced phase of *ops* operations.

    *client* holds the spans of the process that timed the operations
    (for in-process workloads: all spans), *servers* those of the server
    processes, *worker* those of the worker process; all are already cut
    to the timed window.  *counts* holds per-operation counts and any
    workload-specific values (class medians, load-generator figures).
    """
    processes: List[Sequence[Span]] = [client, *servers, worker]
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    per_op = 1000.0 / max(ops, 1)
    for metric, seconds in tracing.layer_times(processes).items():
        values[metric] = seconds * per_op
    if servers:
        values["client.transport_ms"] = _transport_seconds(client, servers) * per_op
    values["client.round_trips"] = tracing.count([client], "client.request") / max(ops, 1)
    values["service.result_wait_ms"] = tracing.total(processes, "service.result_wait") * per_op
    waits = _queue_waits(processes)
    values["service.queue_wait_ms"] = 1000.0 * sum(waits) / len(waits) if waits else 0.0
    values["worker.idle_wait_ms"] = _idle_waits(worker) * per_op
    values["kast.row_calls"] = tracing.count(processes, "kast.row") / max(ops, 1)
    values["pairstore.get_calls"] = tracing.count(processes, "pairstore.get") / max(ops, 1)
    values["pairstore.put_calls"] = tracing.count(processes, "pairstore.put") / max(ops, 1)
    self_calls = tracing.count(processes, "kast.self_value") / max(ops, 1)
    for name, value in (counts or {}).items():
        values[name] = float(value)
    pairs = values["engine.kernel_evals"] - self_calls
    if values["kast.row_calls"] and pairs > 0:
        values["kast.pairs_per_row"] = pairs / values["kast.row_calls"]
        values["kast.us_per_pair"] = values["kast.row_ms"] * 1000.0 / pairs
    op_ms = 1000.0 * sum(op_seconds) / max(len(op_seconds), 1)
    values["trace.op_ms"] = op_ms
    values["trace.unattributed_ms"] = op_ms - sum(values[name] for name in SELF_TIME_METRICS)
    values["trace.overhead_ms"] = overhead_ms
    return values


def op_p50_ms(op_seconds: Sequence[float]) -> float:
    return 1000.0 * median(op_seconds)
