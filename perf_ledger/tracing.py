"""Spans recorded around calls into the program's public functions.

The program itself carries no span timings, so the traced run wraps the
functions each layer exposes — from the benchmark's own files, in the
benchmark process and, through ``launch.py``, in the server and worker
processes.  A span is ``(id, parent, name, start, end, trace, key)``:

* *parent* is the enclosing span of the same thread (0 at the top);
* *trace* is the ambient ``repro.obs.tracing`` trace id, which the server
  and workers bind around job and task execution;
* *key* identifies the request or job record the call served (a request's
  ``trace_id`` or ``job_id``, a created or claimed record's id).

Spans stay in memory; :meth:`SpanLog.dump` writes them when the process
exits.  Times come from ``time.monotonic`` (one clock for every process
on the host), so spans of the server and its workers line up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, Optional[str], Optional[str]]


def _payload_key(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Optional[str]:
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    if isinstance(payload, dict):
        return payload.get("trace_id") or payload.get("job_id")
    return None


def _record_key(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Optional[str]:
    return getattr(result, "job_id", None)


def _job_id_arg(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> Optional[str]:
    return args[1] if len(args) > 1 else kwargs.get("job_id")


#: ``(span name, module, attribute path, key function)``.  Span names are
#: ``<layer>.<function>``; :data:`LAYER_OF` folds them into metric names.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., Optional[str]]]], ...] = (
    ("strings.encode", "repro.pipeline.pipeline", "AnalysisPipeline.encode", None),
    ("learn.analyse", "repro.pipeline.pipeline", "AnalysisPipeline.analyse_matrix", None),
    ("kast.row", "repro.core.kast", "KastSpectrumKernel.value_row", None),
    ("kast.self_value", "repro.core.kast", "KastSpectrumKernel.self_value", None),
    ("engine.evaluate_pairs", "repro.core.engine", "GramEngine.evaluate_pairs", None),
    ("engine.evaluate_row", "repro.core.engine", "GramEngine.evaluate_row", None),
    ("engine.self_values", "repro.core.engine", "GramEngine.self_values", None),
    ("engine.assemble", "repro.core.engine", "GramEngine.assemble_gram", None),
    ("pairstore.get", "repro.core.pairstore", "PairStore.get_many", None),
    ("pairstore.put", "repro.core.pairstore", "PairStore.put_many", None),
    ("cachestore.lookup", "repro.core.cachestore", "MatrixCache.lookup", None),
    ("cachestore.store", "repro.core.cachestore", "MatrixCache.store", None),
    ("streaming.classify", "repro.streaming.scorer", "StreamingScorer.classify", None),
    ("service.parse", "repro.service.protocol", "parse_request", None),
    ("service.decode", "repro.service.protocol", "decode_corpus", None),
    ("service.fingerprint", "repro.core.engine", "string_fingerprint", None),
    ("service.encode", "repro.service.protocol", "dump_message", None),
    ("service.respond", "repro.service.server", "_ServiceHTTPHandler._respond", None),
    ("service.http", "repro.service.server", "_ServiceHTTPHandler.do_POST", None),
    ("service.handler", "repro.service.server", "AnalysisServer.handle", _payload_key),
    ("service.result_wait", "repro.service.server", "AnalysisServer._wait_for_record", None),
    ("jobstore.create", "repro.service.jobstore", "JobStore.create", _record_key),
    ("jobstore.get", "repro.service.jobstore", "JobStore.get", None),
    ("jobstore.mutate", "repro.service.jobstore", "JobStore.mutate", None),
    ("jobstore.store_result", "repro.service.jobstore", "JobStore.store_result", None),
    ("jobstore.load_result", "repro.service.jobstore", "JobStore.load_result", None),
    ("jobstore.forget", "repro.service.jobstore", "JobStore.forget", None),
    ("jobstore.claim_job", "repro.service.jobstore", "JobStore.claim_job", _job_id_arg),
    ("jobstore.claim", "repro.service.jobstore", "JobStore.claim", _record_key),
    ("worker.block", "repro.service.worker", "execute_block_task", None),
    ("worker.claim", "repro.service.worker", "Worker._claim_any", None),
    ("worker.poll", "repro.service.worker", "Worker.run_once", None),
    ("client.request", "repro.service.client", "HTTPTransport.request", _payload_key),
)

#: Span name -> the per-layer time metric its self time is charged to.
#: Spans missing here (waits, polls, client round trips) are handled by
#: :func:`layer_times` separately.
LAYER_OF: Dict[str, str] = {
    "strings.encode": "strings.encode_ms",
    "learn.analyse": "learn.analyse_ms",
    "kast.row": "kast.row_ms",
    "kast.self_value": "kast.self_value_ms",
    "engine.evaluate_pairs": "engine.self_ms",
    "engine.evaluate_row": "engine.self_ms",
    "engine.self_values": "engine.self_ms",
    "engine.assemble": "engine.assemble_ms",
    "pairstore.get": "pairstore.get_ms",
    "pairstore.put": "pairstore.put_ms",
    "cachestore.lookup": "cachestore.lookup_ms",
    "cachestore.store": "cachestore.store_ms",
    "streaming.classify": "streaming.classify_ms",
    "service.parse": "service.parse_ms",
    "service.decode": "service.parse_ms",
    "service.http": "service.parse_ms",
    "service.fingerprint": "service.fingerprint_ms",
    "service.encode": "service.encode_ms",
    "service.respond": "service.encode_ms",
    "service.handler": "service.handler_ms",
    "jobstore.create": "service.jobstore_ms",
    "jobstore.get": "service.jobstore_ms",
    "jobstore.mutate": "service.jobstore_ms",
    "jobstore.store_result": "service.jobstore_ms",
    "jobstore.load_result": "service.jobstore_ms",
    "jobstore.forget": "service.jobstore_ms",
    "jobstore.claim_job": "service.jobstore_ms",
    "jobstore.claim": "service.jobstore_ms",
    "worker.block": "worker.block_ms",
    "worker.claim": "worker.claim_ms",
}


class SpanLog:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable[..., Any],
             key_of: Optional[Callable[..., Optional[str]]] = None) -> Callable[..., Any]:
        from repro.obs.tracing import current_trace_id

        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                key = key_of(args, kwargs, result) if key_of is not None else None
                spans.append((span_id, parent, name, start, end, current_trace_id(), key))

        traced.__wrapped_by_span_log__ = True  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def span(self, name: str, key: Optional[str] = None) -> Iterator[None]:
        """Record one span around the block (the benchmark's own operations)."""
        from repro.obs.tracing import current_trace_id

        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, current_trace_id(), key))

    def install(self, targets: Iterable[Tuple[str, str, str, Any]] = TARGETS) -> None:
        """Wrap every target, including names other modules imported directly."""
        for name, module_name, path, key_of in targets:
            module = importlib.import_module(module_name)
            owner: Any = module
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            traced = self.wrap(name, original, key_of)
            setattr(owner, attribute, traced)
            self._installed.append((owner, attribute, original))
            if owner is module:
                # ``from module import function`` bound the original elsewhere.
                for other in list(sys.modules.values()):
                    namespace = getattr(other, "__dict__", None)
                    if namespace is None or other is module:
                        continue
                    for bound_name, value in list(namespace.items()):
                        if value is original:
                            setattr(other, bound_name, traced)
                            self._installed.append((other, bound_name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]  # type: ignore[misc]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    """Spans that started inside ``[start, end]`` (the timed phase)."""
    return [span for span in spans if start <= span[3] <= end]


def under(spans: Sequence[Span], root: str) -> List[Span]:
    """The spans named *root* and every span nested inside one (one process)."""
    by_id = {span[0]: span for span in spans}
    inside: Dict[int, bool] = {0: False}

    def is_inside(span_id: int) -> bool:
        if span_id not in inside:
            span = by_id.get(span_id)
            inside[span_id] = span is not None and (span[2] == root or is_inside(span[1]))
        return inside[span_id]

    return [span for span in spans if is_inside(span[0])]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    *spans* must come from one process (ids are per process); children
    that started before the window was cut are still subtracted because
    the parent/child link, not the window, decides.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end, _trace, _key in spans:
        if parent:
            child_time[parent] += end - start
    return {span[0]: (span[4] - span[3]) - child_time.get(span[0], 0.0) for span in spans}


def layer_times(processes: Sequence[Sequence[Span]]) -> Dict[str, float]:
    """Total self seconds per layer metric across *processes*."""
    totals: Dict[str, float] = defaultdict(float)
    for spans in processes:
        own = self_times(spans)
        for span in spans:
            metric = LAYER_OF.get(span[2])
            if metric is not None:
                totals[metric] += own[span[0]]
    return dict(totals)


def count(processes: Sequence[Sequence[Span]], name: str) -> int:
    return sum(1 for spans in processes for span in spans if span[2] == name)


def total(processes: Sequence[Sequence[Span]], name: str) -> float:
    return sum(span[4] - span[3] for spans in processes for span in spans if span[2] == name)
