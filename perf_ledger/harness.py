"""Shared plumbing of the benchmark: paths, statistics, program processes, reports.

Nothing here knows about a particular workload.  The workloads drive the
program (``repro``, imported from ``src/`` of the checkout) through its
public API, its CLI subprocesses and its HTTP protocol, and hand a
:class:`Report` back to ``run.py``, which prints it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for state dirs, logs and span files; removed after each run.
WORK = ROOT / ".bench_work"

#: Every workload uses this kernel spec (``make_spec(*SPEC)``).
SPEC_KIND = "kast"
SPEC_PARAMS = {"cut_weight": 2}

#: Seconds a child process gets to start or stop before it counts as failed.
PROCESS_TIMEOUT = 60.0


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program, child died)."""


def require_program() -> None:
    """Put ``src/`` on the import path; refuse to run without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spec():
    from repro.api import make_spec

    return make_spec(SPEC_KIND, **SPEC_PARAMS)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least ten
    samples beyond it.  Below twenty samples that percentile would lie
    under the median; such runs report the median (percentile 50), which
    is as far into the tail as they can resolve."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return median(ordered), 50.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# Operations and reports
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations sent, succeeded and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def count(self, reason: Optional[str]) -> None:
        """Count one operation: failed when it carries a *reason*."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count


@dataclass
class Report:
    """What one run prints: metrics with units, the ledger, and notes."""

    ledger: Ledger = field(default_factory=Ledger)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def result(self) -> Dict[str, Any]:
        return {
            "correct": self.ledger.failed == 0 and self.ledger.attempted > 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# CPUs and host speed
# ----------------------------------------------------------------------
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: The program runs on one CPU (the server and worker processes, or for an
#: in-process workload the whole benchmark), the load generator on another
#: when there is one.  On a shared host each vCPU slows on its own, and the
#: speed probe must run on the program's CPU to track it.
PROGRAM_CPU: Optional[int] = _CPUS[-1] if _CPUS else None
LOADGEN_CPU: Optional[int] = _CPUS[0] if _CPUS else None


def pin(cpu: Optional[int]) -> None:
    """Pin the calling thread, and the threads and processes it starts
    from now on, to *cpu*."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


#: The probe's size, and the seconds it takes on the reference host (2
#: shared vCPUs, CPython 3.11) when its cores run at full speed.
PROBE_LOOPS = 150_000
PROBE_ROWS = [[f"{index:016x}", f"{index * 7919:016x}", index / 7.0] for index in range(5_000)]
PROBE_REFERENCE_S = 0.019
#: Probes within this many seconds of an interval set its speed.
PROBE_WINDOW_S = 2.0


def _probe_work(path: Path) -> float:
    """A fixed mix of the program's kinds of work: a bytecode loop, JSON
    dumped, hashed, written, read back and parsed, a dict keyed by string
    pairs built and probed."""
    total = 0.0
    for index in range(PROBE_LOOPS):
        total += index * index
    text = json.dumps({"pairs": PROBE_ROWS}, separators=(",", ":"))
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    rows = json.loads(path.read_text(encoding="utf-8"))["pairs"]
    path.unlink()
    values = {(first, second): value for first, second, value in rows}
    for first, second, _ in rows:
        total += values[(first, second)]
    return total


class Speed:
    """How fast this host runs the program now, from a fixed probe.

    On a host that shares its cores, the same work takes up to 70% longer
    for tens of seconds at a time while neighbours load the cores (no
    steal time shows).  A fixed piece of work slows with the program: over
    15 s windows the median of one analysis moved from 0.66 to 0.98 s
    while its ratio to a bytecode loop's median stayed within 5.6-6.4.
    The service workloads spend much of their time in JSON, hashing and
    small file reads and writes, which slow more than a bytecode loop
    does, so the probe (:func:`_probe_work`) mixes all of these.  Every
    reported time is scaled to the reference speed:
    ``seconds * PROBE_REFERENCE_S / probe``, where ``probe`` is the median
    of the probes taken within ``PROBE_WINDOW_S`` of the interval.  The
    probes run on the program's CPU while the program is idle (between
    closed-loop operations, in the open loop's gaps), so the program's own
    work does not slow them.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._path = WORK / f"{os.getpid()}-probe.json"

    def probe(self, repeats: int = 1) -> None:
        """Time the probe *repeats* times on the program's CPU."""
        previous = os.sched_getaffinity(0) if PROGRAM_CPU is not None else None
        pin(PROGRAM_CPU)
        try:
            for _ in range(repeats):
                began = time.monotonic()
                _probe_work(self._path)
                ended = time.monotonic()
                self.samples.append(((began + ended) / 2, ended - began))
        finally:
            if previous is not None:
                os.sched_setaffinity(0, previous)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """*seconds*, spent from *start* to *end*, at the reference speed."""
        if not self.samples:
            raise BenchmarkError("no speed probe was taken")
        near = [taken for at, taken in self.samples
                if start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
        if not near:
            middle = (start + end) / 2
            near = [taken for _, taken in sorted(self.samples, key=lambda sample: abs(sample[0] - middle))[:2]]
        return seconds * PROBE_REFERENCE_S / median(near)

    def slowdown(self) -> float:
        """Median probe over the reference: 1.0 at full speed."""
        return median([taken for _, taken in self.samples]) / PROBE_REFERENCE_S


#: Probes taken before and after each set-up step.
SETUP_PROBES = 3


def timed_setup(build: Callable[[int], Any], close: Callable[[Any], None], repeats: int,
                speed: Speed) -> Tuple[Any, List[float]]:
    """Run *build* *repeats* times, keeping only the last environment.

    Returns ``(environment, seconds per set-up)``, each scaled by *speed*
    to the reference speed; the caller reports the median, so one slow
    start does not move ``setup_s``.
    """
    seconds: List[float] = []
    built: List[Any] = []
    try:
        for attempt in range(repeats):
            if built:
                close(built.pop())
            seconds.append(timed_step(speed, lambda: built.append(build(attempt))))
    except BaseException:
        for env in built:
            close(env)
        raise
    return built[0], seconds


def timed_step(speed: Speed, step: Callable[[], Any]) -> float:
    """Seconds *step* takes, scaled to the reference speed by probes
    taken just before and just after it."""
    speed.probe(SETUP_PROBES)
    started = time.monotonic()
    step()
    ended = time.monotonic()
    speed.probe(SETUP_PROBES)
    return speed.scale(ended - started, started, ended)


def run_closed_loop(seconds: float, op: Callable[[int], None]) -> None:
    """Call ``op(i)`` back to back until *seconds* have passed (at least once)."""
    started = time.monotonic()
    count = 0
    while True:
        op(count)
        count += 1
        if time.monotonic() - started >= seconds:
            return


# ----------------------------------------------------------------------
# Work directory and program processes
# ----------------------------------------------------------------------
def fresh_dir(name: str) -> Path:
    path = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    """Remove this run's directories (and the work root once it is empty)."""
    for path in WORK.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SERVICE_TOKEN", None)
    return env


def _child_setup() -> None:
    """Run in each program process before it starts: pin it to the
    program's CPU, and let SIGINT stop the server even when the benchmark
    itself was started with SIGINT ignored (as background jobs of a
    non-interactive shell are); otherwise every stop waits out
    ``close``'s 30-second timeout."""
    pin(PROGRAM_CPU)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _peak_rss_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def own_peak_rss_mb() -> float:
    return (_peak_rss_kb(os.getpid()) or 0) / 1024.0


class Program:
    """A ``repro serve`` process, optionally with one ``repro worker``.

    With *spans* set the processes start through ``launch.py``, which
    records spans around the program's public functions and writes them
    to ``<spans>.<role>.json`` when the process exits.
    """

    def __init__(
        self,
        directory: Path,
        serve_args: Sequence[str] = (),
        worker_args: Optional[Sequence[str]] = None,
        spans: Optional[Path] = None,
    ) -> None:
        self.directory = directory
        self.state_dir = directory / "state"
        self.spans = spans
        self.procs: Dict[str, subprocess.Popen] = {}
        self._logs: List[Any] = []
        port_file = directory / "port.txt"
        try:
            # Maintenance passes (lease requeue, adoption, TTL sweep) run on
            # a timer; keep them out of the measured window.
            self._start(
                "serve",
                ["serve", "--state-dir", str(self.state_dir), "--port", "0",
                 "--port-file", str(port_file), "--gc-interval", "3600", *serve_args],
            )
            deadline = time.monotonic() + PROCESS_TIMEOUT
            while not port_file.exists():
                self._assert_alive()
                if time.monotonic() > deadline:
                    raise BenchmarkError("server did not announce its port")
                time.sleep(0.01)
            self.url = f"http://127.0.0.1:{int(port_file.read_text().strip())}"
            if worker_args is not None:
                self._start("worker", ["worker", "--state-dir", str(self.state_dir), *worker_args])
        except BaseException:
            self.close()
            raise

    def _start(self, role: str, argv: List[str]) -> None:
        if self.spans is not None:
            command = [sys.executable, str(HERE / "launch.py"), f"{self.spans}.{role}.json", *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        log = open(self.directory / f"{role}.log", "wb")
        self._logs.append(log)
        self.procs[role] = subprocess.Popen(
            command, cwd=str(self.directory), env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            preexec_fn=_child_setup,
        )

    def _assert_alive(self) -> None:
        for role, proc in self.procs.items():
            if proc.poll() is not None:
                log = (self.directory / f"{role}.log").read_text(errors="replace")[-2000:]
                raise BenchmarkError(f"{role} exited with {proc.returncode}:\n{log}")

    def client(self, timeout: float = 120.0):
        from repro.service.client import HTTPTransport, ServiceClient

        return ServiceClient(HTTPTransport(self.url, timeout=timeout), retries=0)

    def metrics(self) -> Dict[str, float]:
        """``GET /metrics`` summed per family across labels and processes."""
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=30) as response:
            return parse_prometheus(response.read().decode("utf-8"))

    def peak_rss_mb(self) -> float:
        self._assert_alive()
        return sum((_peak_rss_kb(proc.pid) or 0) for proc in self.procs.values()) / 1024.0

    def close(self) -> None:
        """Stop every process (worker first) and wait until each has ended."""
        stop_signals = {"serve": signal.SIGINT, "worker": signal.SIGTERM}
        for role in sorted(self.procs, key=lambda role: role != "worker"):
            proc = self.procs[role]
            if proc.poll() is None:
                proc.send_signal(stop_signals[role])
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        for log in self._logs:
            log.close()
        self._logs = []


def parse_prometheus(text: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            number = float(value)
        except ValueError:
            continue
        if math.isfinite(number):
            totals[name] = totals.get(name, 0.0) + number
    return totals


def counter_delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def dumps_canonical(payload: Any) -> str:
    """The byte form payloads are compared in (key order fixed)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
