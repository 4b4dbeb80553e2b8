"""Span-based tracing: nested wall/CPU-timed sections.

A *span* is one named, timed section of work - ``trace.span("vqe.iteration")``
- entered as a context manager.  Spans nest: each records its parent and
depth, so an exported trace reconstructs the call tree
(``vqe.run`` > ``vqe.energy`` > ``mps.sweep``).  Wall time comes from
:func:`time.perf_counter` (monotonic) and CPU time from
:func:`time.process_time`, the two clocks the paper's kernel studies
(Figs. 8-11) distinguish between BLAS-bound and orchestration-bound work.

Like the metrics registry, the tracer is disabled by default and its
``span`` context manager is a no-op that records nothing when off.  Unlike
counters, span *durations* are not deterministic - the regression suite
pins counters only; spans are for human-facing flame-style breakdowns.

The span stack is thread-local, so worker threads build their own subtrees
without interleaving (their spans carry the recording thread's name).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class SpanRecord:
    """One completed span (JSON-ready through :meth:`to_dict`)."""

    span_id: int
    parent_id: int | None
    name: str
    depth: int
    start_s: float          # perf_counter at entry (relative, monotonic)
    wall_s: float
    cpu_s: float
    thread: str
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "thread": self.thread,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects completed spans; enabled/disabled like the registry."""

    def __init__(self):
        self.enabled = False
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: optional callable invoked with each completed SpanRecord -
        #: the flight recorder registers itself here so span edges land
        #: in the crash ring without the tracer importing flight
        self.edge_hook = None

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-recorded spans are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded span and restart span numbering."""
        with self._lock:
            self.spans.clear()
            self._next_id = 0

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[SpanRecord | None]:
        """Timed, nested section; yields the in-flight record (None if
        disabled) so callers may attach attributes mid-span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        rec = SpanRecord(
            span_id=sid,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            depth=len(stack),
            start_s=0.0,
            wall_s=0.0,
            cpu_s=0.0,
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        stack.append(rec)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        rec.start_s = wall0
        try:
            yield rec
        finally:
            rec.wall_s = time.perf_counter() - wall0
            rec.cpu_s = time.process_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(rec)
            hook = self.edge_hook
            if hook is not None:
                hook(rec)

    # -- cross-process merging -------------------------------------------------

    def merge(self, spans: list[dict], *, worker: int | None = None) -> int:
        """Append another tracer's snapshot, re-based into this id space.

        ``spans`` is the list :meth:`snapshot` produces (what a worker
        process ships back with its task result).  Each incoming span id
        (and parent id) is offset by this tracer's current ``_next_id`` so
        merged subtrees keep their internal structure without colliding
        with locally recorded spans, and ``attrs["worker"]`` tags every
        merged span with the worker slot when given.  Works while
        disabled: merging is bookkeeping of already-recorded data.
        Returns the number of spans merged.
        """
        if not spans:
            return 0
        with self._lock:
            offset = self._next_id
            top = 0
            for rec in spans:
                attrs = dict(rec.get("attrs") or {})
                if worker is not None:
                    attrs["worker"] = int(worker)
                parent = rec.get("parent_id")
                self.spans.append(SpanRecord(
                    span_id=rec["span_id"] + offset,
                    parent_id=None if parent is None else parent + offset,
                    name=rec["name"],
                    depth=rec["depth"],
                    start_s=rec.get("start_s", 0.0),
                    wall_s=rec["wall_s"],
                    cpu_s=rec["cpu_s"],
                    thread=rec.get("thread", "worker"),
                    attrs=attrs,
                ))
                if rec["span_id"] >= top:
                    top = rec["span_id"] + 1
            self._next_id = offset + top
        return len(spans)

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Completed spans as JSON-ready dicts, in completion order."""
        with self._lock:
            return [rec.to_dict() for rec in self.spans]


#: the process-wide tracer (paired with :data:`repro.obs.metrics.REGISTRY`)
TRACER = Tracer()


def span(name: str, **attrs):
    """Context manager recording one span on the global tracer."""
    return TRACER.span(name, **attrs)


__all__ = ["SpanRecord", "TRACER", "Tracer", "span"]
