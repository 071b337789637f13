"""Op runner, span tracer and statistics for the ordbench benchmark.

An op is one closed-loop request: ``run`` parses the op's text inputs and
makes the library or CLI call under the op's clock; ``check`` verifies the
result afterwards, outside the clock. Spans are recorded only around the
benchmark's own calls into a layer's public functions; the library itself is
never patched, so an untraced run executes exactly the library's code.

Calibration: a shared virtual machine changes speed by tens of percent, at
times twofold, over seconds to minutes, for every program alike. Before each
op, outside its clock, the runner times a fixed kernel of exact rational
arithmetic that never touches ordbench. The machine's speed at an op is the
median kernel time over the CALIBRATION_WINDOW ops on either side of it,
over the nominal kernel time, and the op's calibrated clock is its wall
clock divided by that speed. A slower library moves the calibrated clock; a
slower machine moves both and cancels. The raw wall clocks are kept beside
the calibrated ones.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

# Highest percentile reported as the tail; chosen per workload as the largest
# one that leaves at least TAIL_BEYOND samples above it in MIN_PASSES passes,
# so it is the same for every run of an op list, however long.
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)  # 50 is the fallback
TAIL_BEYOND = 10
MIN_PASSES = 3
# The calibration kernel's time at the reference speed: about its fastest
# time on the 2-vCPU VM (Python 3.11) the benchmark was tuned on. Only a
# scale: it makes calibrated times read as seconds on that machine when calm.
KERNEL_NOMINAL_S = 0.11e-3
CALIBRATION_WINDOW = 8


def kernel() -> Fraction:
    """The calibration kernel: Fraction arithmetic, comparisons and the
    allocation they bring, the instruction mix of ordbench's own kernels."""
    acc = Fraction(0)
    for i in range(1, 41):
        acc += Fraction(i % 7, 12)
        if acc > 3:
            acc -= 3
    return acc


def kernel_s() -> float:
    """The kernel's time on a second run. The first run brings its code and
    data back into the caches the previous op filled, which would otherwise
    make the time depend on what that op was."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def machine_speed(samples: int = 25) -> float:
    """Median kernel time over the nominal one: 1.0 at the reference speed,
    above it on a slower machine."""
    return statistics.median(kernel_s() for _ in range(samples)) / KERNEL_NOMINAL_S


@dataclass
class Op:
    """One request of a workload's fixed op list.

    ``desc`` is the canonical text of the op's inputs (it feeds the op-list
    digest); ``cost`` is a size hint used only to pick cheap warm-up ops;
    ``known_failure`` names the failure the current library is known to give
    for this op class: the type of the exception its run raises.
    """

    cls: str
    desc: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    cost: int = 0
    known_failure: str = ""


def digest(ops: List[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.cls.encode())
        h.update(b"\0")
        h.update(op.desc.encode())
        h.update(b"\1")
    return h.hexdigest()


class NullTracer:
    """The untraced route: calls go straight to the library."""

    enabled = False
    op = None

    def call(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, counter: str, value) -> None:
        pass


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: Any
    error: str = ""


class Tracer(NullTracer):
    """Keeps one span per layer call in memory, plus work counts.

    ``op`` is set by the runner to the id of the op in flight, so every span
    names the op that caused it. A ``cli.main`` call that returns exit code
    2 is marked failed like a call that raised.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self.spans.append(
                Span(layer, fn.__name__, start, time.perf_counter(), self.op, type(exc).__name__)
            )
            raise
        end = time.perf_counter()
        error = "exit2" if layer == "cli.main" and out == 2 else ""
        self.spans.append(Span(layer, fn.__name__, start, end, self.op, error))
        return out

    def add(self, counter: str, value) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


@dataclass
class Outcome:
    """What one measured phase produced."""

    attempted: int = 0
    passed: int = 0
    passes: int = 0
    # per op of the list: its wall clock in every pass, and how often it passed
    clocks: List[List[float]] = field(default_factory=list)
    # per op of the list: the machine speed at it in every pass
    speeds: List[List[float]] = field(default_factory=list)
    # per pass: the machine speed over the whole pass
    pass_speeds: List[float] = field(default_factory=list)
    passed_by_op: List[int] = field(default_factory=list)
    # op class -> failure reason -> count
    failures: Dict[str, Dict[str, int]] = field(default_factory=dict)
    unexpected: List[str] = field(default_factory=list)
    op_spans: List[Span] = field(default_factory=list)

    def latencies(self, raw: bool = False) -> List[List[float]]:
        """Per op of the list, its calibrated clock in every pass (``raw``:
        its wall clock)."""
        if raw:
            return self.clocks
        return [[t / v for t, v in zip(c, speeds)] for c, speeds in zip(self.clocks, self.speeds)]

    def latency_percentile(self, p: float, raw: bool = False) -> float:
        """Percentile ``p`` of the clocks, over the ops that passed in every
        pass: taken within each pass, then the median over the passes. Each
        pass holds every op once, so a pass's percentile falls on the same
        ops whatever the noise; the median drops passes a shared machine
        slowed."""
        passing = [c for c, ok in zip(self.latencies(raw), self.passed_by_op) if ok == len(c)]
        return statistics.median(
            percentile([c[k] for c in passing], p) for k in range(self.passes)
        )

    def op_medians(self, raw: bool = False) -> List[float]:
        """Each op's median clock over the passes. Medians drop the slow
        stretches a shared machine puts into some passes but not most."""
        return [statistics.median(c) for c in self.latencies(raw)]

    def pass_clock_s(self, raw: bool = False) -> float:
        """Timed time of one pass: the sum of the ops' median clocks."""
        return sum(self.op_medians(raw))


def run_op(op: Op, tracer, out: Outcome, slot: int = -1) -> None:
    """Time one op, check it outside the clock, and record the result under
    the op's slot in the list (``-1``: a warm-up op, not kept)."""
    error = ""
    result = None
    start = time.perf_counter()
    try:
        result = op.run(tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = type(exc).__name__
    end = time.perf_counter()
    if not error:
        try:
            problem = op.check(result)
        except Exception as exc:  # a result of the wrong shape fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            error = "mismatch: " + problem
    out.attempted += 1
    if slot >= 0:
        while len(out.clocks) <= slot:
            out.clocks.append([])
            out.speeds.append([])
            out.passed_by_op.append(0)
        out.clocks[slot].append(end - start)
    if tracer.enabled:
        out.op_spans.append(Span("op", op.cls, start, end, tracer.op, error))
    if not error:
        out.passed += 1
        if slot >= 0:
            out.passed_by_op[slot] += 1
        return
    by_reason = out.failures.setdefault(op.cls, {})
    by_reason[error] = by_reason.get(error, 0) + 1
    if error != op.known_failure:
        out.unexpected.append(f"{op.cls}: {error} ({op.desc[:120]!r})")


def run_pass(ops: List[Op], tracer, out: Outcome) -> None:
    """One pass over the op list, with a kernel timing before each op."""
    times = []
    for i, op in enumerate(ops):
        times.append(kernel_s())
        tracer.op = (out.passes, i)
        run_op(op, tracer, out, i)
    w = CALIBRATION_WINDOW
    for i in range(len(ops)):
        out.speeds[i].append(statistics.median(times[max(0, i - w) : i + w + 1]) / KERNEL_NOMINAL_S)
    out.pass_speeds.append(statistics.median(times) / KERNEL_NOMINAL_S)
    out.passes += 1


def run_phase(ops: List[Op], routes, seconds: float) -> None:
    """Run whole passes of the op list for about ``seconds`` of real time,
    at least MIN_PASSES per route. ``routes`` are (tracer, Outcome) pairs;
    with two, their passes alternate in ABBA order, so the machine's drifts
    fall on both alike. Whole passes keep the op mix identical however fast
    the machine is. Passes stop once another round would end more than half
    a round past ``seconds``."""
    begin = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - begin
        if rounds >= MIN_PASSES and elapsed + elapsed / rounds / 2 >= seconds:
            return
        for tracer, out in routes if rounds % 2 == 0 else routes[::-1]:
            run_pass(ops, tracer, out)
        rounds += 1


def rank(p: float, samples: int) -> int:
    """1-based nearest rank of percentile ``p``, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * samples / 100))


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile with at least TAIL_BEYOND samples beyond it in
    MIN_PASSES passes."""
    samples = samples_per_pass * MIN_PASSES
    fits = [p for p in PERCENTILES if samples - rank(p, samples) >= TAIL_BEYOND]
    return max(fits, default=PERCENTILES[0])


def percentile(values: List[float], p: float) -> float:
    return sorted(values)[rank(p, len(values)) - 1]


def layer_metrics(tracer: Tracer, layers: List[str]) -> Dict[str, float]:
    """Busy time, call and failure counts per layer, plus busy-time shares.

    The benchmark's layer spans never nest, so a layer's self time is the
    sum of its span durations.
    """
    busy = {name: 0.0 for name in layers}
    calls = {name: 0 for name in layers}
    failed = {name: 0 for name in layers}
    for s in tracer.spans:
        busy[s.layer] += s.end - s.start
        calls[s.layer] += 1
        if s.error:
            failed[s.layer] += 1
    total = sum(busy.values()) or 1.0
    out: Dict[str, float] = {}
    for name in layers:
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.failed"] = failed[name]
        out[f"{name}.busy_share"] = busy[name] / total
    return out
