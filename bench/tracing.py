"""Spans and counters recorded from outside the fusetrack package.

A Tracer wraps public functions at the module attribute that the calling
module looks up (for example ``fusetrack.tracker.greedy_associate``, which
``Tracker.step`` calls), so the package itself is never edited. Wrappers are
installed only for the duration of one traced operation and removed after
it, so code outside traced operations (set-up, output checks) runs
unwrapped.

Each span is (name, start, end, parent, root); ``root`` is the index of the
operation's root span, shared by every span the operation caused. Spans live
in parallel arrays while the run lasts (28 bytes each) and are written out
once, when the run ends. Counters are plain numbers keyed by name.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Layer spans whose time is reported per workload operation, as the
# per-layer metric "<name>.ms". Spans named in SELF_TIME also get
# "<name>.self_ms": the span minus its direct children.
TIMED_SPANS = (
    "association.greedy_associate",
    "fusion.expand_pillars",
    "fusion.associate_boxes",
    "geometry.project_points",
    "simulator.generate",
    "fileio.write_replay",
    "fileio.read_replay",
    "fileio.write_ground_truth",
    "fileio.read_ground_truth",
    "fileio.write_results",
    "fileio.read_results",
    "fileio.results_to_predictions",
    "metrics.amota",
    "metrics.count_sequence_errors",
    "metrics.match_frame",
)
SELF_TIME = ("tracker.step", "metrics.amota", "cli.evaluate")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: an operation's root span
        when no span is open, otherwise a child (one CLI command)."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def _open(self, name_id: int) -> int:
        stack = self._stack
        index = len(self.start)
        parent = stack[-1] if stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else index)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def wrap(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace owner.attr by a wrapper that records a span named name
        and then calls observe(counts, args, result)."""
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        open_span, stack, end, counts = self._open, self._stack, self.end, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Wrap the package for the duration of one traced operation."""
        install(self)
        try:
            yield
        finally:
            self.unwrap_all()

    def take_counts(self) -> Dict[str, float]:
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def layer_times_ms(self) -> Tuple[int, Dict[str, float]]:
        """(number of root spans, {metric: total ms}) over all spans: the
        total time of every span name as "<name>.ms" and, for SELF_TIME
        names, the span time minus its direct children as "<name>.self_ms"."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: Dict[str, float] = Counter()
        roots = 0
        for i in range(n):
            name = self._names[self.name[i]]
            duration = self.end[i] - self.start[i]
            if self.parent[i] < 0:
                roots += 1
            total[name + ".ms"] += duration * 1e3
            if name in SELF_TIME:
                total[name + ".self_ms"] += (duration - child[i]) * 1e3
        return roots, total

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: name, start and end in
        microseconds from the first span, parent index, root index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\troot\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self._names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\t{self.root[i]}\n"
                )
