"""Bookkeeping shared by the workloads: the clock, the reference loop, and
what one run records.

The reference loop is a fixed piece of interpreter and numpy work that does
not touch fusetrack. On a shared 2-vCPU host, CPU speed changes in phases
lasting from one to tens of seconds (step times switch between about 6 and
10 ms, in CPU time as well as wall time). The loop is timed during and right
after every operation, so an operation's time divided by the loop's time
measured at the same moments cancels the phase; that ratio is the "ref"
unit.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from tracing import Tracer


def reference_loop() -> int:
    """About 1 ms of dict, sort and small-array work; never changes."""
    table: Dict[int, float] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    keys = sorted((i * 7919) % 1000 for i in range(2000))
    a = np.arange(3000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
    return len(keys) + len(table) + int(a[0])


def reference_ms() -> float:
    """Wall time of one reference-loop pass, in ms."""
    start = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - start) * 1e3


class Timed:
    """Times a block of work and its cost in reference-loop units.

    While the block runs, SIGALRM fires every PERIOD_S of wall time and the
    handler times one reference-loop pass; one more pass runs right after
    the block. ms is the block's wall time less the handler's, and ref is
    ms times the mean of 1 / (reference-loop ms) over those samples, i.e.
    the block's work at the speed the CPU had while it ran. Single-threaded:
    handlers run in the main thread between bytecodes."""

    PERIOD_S = 0.1

    def __enter__(self) -> "Timed":
        self._samples: List[float] = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end, spent = time.perf_counter(), self._spent
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ms = (end - self._start - spent) * 1e3
        self._samples.append(reference_ms())
        self.ref = self.ms * statistics.fmean(1.0 / r for r in self._samples)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(reference_ms())
        self._spent += time.perf_counter() - start


@dataclass
class Run:
    """What one benchmark run measured. An operation is one closed-loop
    request of the workload; untraced and traced operations are kept apart
    so that end-to-end figures never include tracing."""

    seconds: float
    tracer: Optional[Tracer]
    op_ms: List[float] = field(default_factory=list)
    op_ref: List[float] = field(default_factory=list)
    traced_op_ms: List[float] = field(default_factory=list)
    traced_op_ref: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Counters of each traced unit of work; they must all be equal.
    unit_counts: List[Dict[str, float]] = field(default_factory=list)
    # Workload figures named after the user-facing quantity they measure.
    info: Dict[str, tuple] = field(default_factory=dict)
    scores: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.deadline = time.perf_counter() + self.seconds

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline

    def record(self, traced: bool, ms: float, ref: float) -> None:
        """One operation's wall time and its time in reference-loop units."""
        (self.traced_op_ms if traced else self.op_ms).append(ms)
        (self.traced_op_ref if traced else self.op_ref).append(ref)

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        print(f"FAILED {what}{': ' + detail if detail else ''}", file=sys.stderr)

    def crash(self, what: str) -> None:
        """An operation raised: count it failed, keep the traceback."""
        self.failed += 1
        print(f"FAILED {what}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
