"""Timing loop, speed probe, span tracer, statistics and environment record.

The benchmark is a closed loop with one caller: each operation starts only
after the previous one has returned and been checked.  A *pass* is one
walk over a workload's fixed operation list; a run repeats whole passes
until its time budget is spent, so every pass has the same operation mix.
"""

import bisect
import gc
import json
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One benchmark operation with its reference check.

    ``run`` makes the public library call(s) a user would make; ``traced``
    makes the same stage calls one by one inside spans.  ``check`` receives
    either result and returns ``None`` when it matches the reference known
    by construction, or a one-line reason when it does not.
    """

    kind: str
    label: str
    dims: tuple[int, int]
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    traced: Callable[["Tracer"], Any]
    same: Callable[[Any, Any], bool]


class Tracer:
    """In-memory spans ``(name, start, end, parent, op_id)``, read at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[str, float]:
        """Inclusive seconds per span name, nested same-name spans counted once."""
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            if not self._has_ancestor(parent, name):
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def per_op(self, name: str) -> dict[int, float]:
        """Seconds spent in spans called ``name``, summed per operation id."""
        out: dict[int, float] = {}
        for span_name, start, end, _, op_id in self.spans:
            if span_name == name:
                out[op_id] = out.get(op_id, 0.0) + (end - start)
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": s - t0, "end_s": e - t0,
                 "parent": p, "op": o} for n, s, e, p, o in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class SpeedProbe:
    """A fixed calibration kernel, timed between operations.

    A shared host runs this benchmark 20-50 % slower in phases lasting
    seconds to minutes; CPU time slows as much as wall time, so the cause is
    contention for the core and its caches, not stolen time.  The probe runs
    the same small mix of interpreter work, small-array numpy calls and a
    dense Hermitian eigendecomposition every ``INTERVAL_S`` seconds.  An
    operation's latency *at reference speed* is its measured latency times
    ``REFERENCE_S`` over the median probe time of the ``WINDOW`` probes
    nearest to it.  The kernel does not call ``isopair``, so a change to
    the program moves the scaled latencies exactly as it moves the
    measured ones; only the host's speed is divided out.
    """

    #: Probe time taken as reference speed: about its median on the 2-vCPU
    #: Xeon virtual machine the benchmark was written on.  Scaled latencies
    #: read as if measured there at that speed.
    REFERENCE_S = 0.0035
    INTERVAL_S = 0.25
    WINDOW = 7

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        rng = np.random.default_rng(0)
        m = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self._hermitian = m + m.conj().T
        self._small = [rng.normal(size=(6, 6)) for _ in range(8)]
        self._keys = [f"k{i}" for i in range(512)]
        for _ in range(3):
            self._kernel()
        self._last = float("-inf")

    def _kernel(self) -> None:
        table: dict[str, int] = {}
        for _ in range(4):
            for i, key in enumerate(self._keys):
                table[key] = table.get(key, 0) + i * i
        acc = np.zeros((6, 6))
        for _ in range(25):
            for block in self._small:
                acc = acc + block @ block.T
        np.linalg.norm(acc)
        np.linalg.eigh(self._hermitian)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.seconds.append(end - start)
        self._last = end

    def due(self) -> None:
        """Take a sample when ``INTERVAL_S`` seconds have passed since the last."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """Reference probe time over the local probe time around ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - self.WINDOW // 2, len(self.times) - self.WINDOW))
        local = self.seconds[lo:lo + self.WINDOW]
        return self.REFERENCE_S / float(np.median(local))


@dataclass
class Outcome:
    """Latencies and failures of the passes made so far.

    ``latencies``, ``by_label`` and ``pass_walls`` hold measured seconds;
    ``timed`` keeps ``(kind, label, pass, start, seconds)`` of every
    untraced operation, for scaling to reference speed with ``at_speed``.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    by_label: dict[str, list[float]] = field(default_factory=dict)
    pass_walls: list[float] = field(default_factory=list)
    timed: list[tuple[str, str, int, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record_failure(self, op: Op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {reason}")

    def at_speed(self, probe: SpeedProbe) -> tuple[dict, dict, list[float]]:
        """``latencies``, ``by_label`` and ``pass_walls`` at reference speed."""
        latencies: dict[str, list[float]] = {}
        by_label: dict[str, list[float]] = {}
        walls = [0.0] * len(self.pass_walls)
        for kind, label, pass_no, start, seconds in self.timed:
            scaled = seconds * probe.factor(start)
            latencies.setdefault(kind, []).append(scaled)
            by_label.setdefault(label, []).append(scaled)
            walls[pass_no] += scaled
        return latencies, by_label, walls


def attempt(op: Op, call: Callable[[], Any], outcome: Outcome):
    """Run ``call`` once, check its result; return ``(seconds, result)``.

    An operation that raises counts as failed, never as skipped.
    """
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        outcome.record_failure(op, f"raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        reason = op.check(result)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        outcome.record_failure(op, reason)
        return elapsed, None
    return elapsed, result


def run_pass(ops: list[Op], outcome: Outcome, tracer: Tracer | None = None,
             results: list | None = None, probe: SpeedProbe | None = None) -> float:
    """One pass over ``ops``; returns the summed operation latencies.

    Untraced, each latency is recorded and each result appended to
    ``results`` when given; a ``probe`` samples the host's speed between
    operations.  With a tracer each operation runs its traced decomposition
    instead, and must agree with the untraced result that ``results`` holds
    for it.
    """
    # Collect, then freeze what survives: the inputs and the benchmark's own
    # records.  The collector then scans only objects made by the operations,
    # so a collection costs the same early and late in a run, however many
    # latencies have been recorded.
    gc.collect()
    gc.freeze()
    wall = 0.0
    pass_no = len(outcome.pass_walls)
    for i, op in enumerate(ops):
        if probe is not None:
            probe.due()
        if tracer is None:
            start = time.perf_counter()
            elapsed, result = attempt(op, op.run, outcome)
            outcome.latencies.setdefault(op.kind, []).append(elapsed)
            outcome.by_label.setdefault(op.label, []).append(elapsed)
            outcome.timed.append((op.kind, op.label, pass_no, start, elapsed))
            if results is not None:
                results.append(result)
        else:
            tracer.op_id = i

            def call(op=op):
                with tracer.span("op." + op.kind):
                    return op.traced(tracer)
            elapsed, result = attempt(op, call, outcome)
            if (result is not None and results is not None
                    and results[i] is not None and not op.same(result, results[i])):
                outcome.record_failure(op, "traced result differs from untraced")
        wall += elapsed
    if probe is not None:
        probe.sample()
    if tracer is None:
        outcome.pass_walls.append(wall)
    return wall


def warm_up(ops: list[Op], outcome: Outcome) -> None:
    """Run the first operation of each kind once, checked but not timed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            attempt(op, op.run, outcome)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (pct, value).

    That is the eleventh-largest sample; ``None`` when there are too few
    samples for the tail to sit above the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without starting git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, blas_threads: int, nproc: int, seed: int) -> dict:
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
