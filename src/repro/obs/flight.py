"""Always-on flight recorder: a bounded ring of recent runtime events.

The paper's Sunway runs were debugged post-hoc: when a 40-million-core
job died, the only usable evidence was whatever each rank had recorded
*before* the failure.  This module is the single-node analogue - a
fixed-capacity ring buffer (``collections.deque(maxlen=N)``) that is
**always on**, even when the rest of :mod:`repro.obs` is disabled, and
whose contents are attached to structured errors and failed ``serve``
jobs as a ``repro.obs.flight/1`` dump.

Design constraints (mirrored by the overhead assertion in
``benchmarks/bench_expectation_batching.py``):

* **O(1) append** - one lock, one tuple, one ``deque.append``; eviction
  is the deque's own ``maxlen`` behaviour, never a scan.
* **Coarse events only** - jobs, batches, dispatches, span edges.
  Per-gate / per-term events stay in the metrics registry; the recorder
  budget is <2% of any workload even with full obs disabled, which only
  holds because instrumented sites fire a handful of times per
  evaluation, not per kernel call.
* **Crash-ordered** - events carry a monotonic sequence number and a
  wall offset from recorder start, so the dump reads as a timeline.

Worker processes keep their own module-global :data:`FLIGHT`; fragment
dispatch ships each worker buffer back through the same obs-directive
path that carries metrics, and the parent folds it in with
:meth:`FlightRecorder.merge` (events re-sequenced locally, tagged with
the worker slot).
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: schema tag on every exported dump
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: default ring capacity ("the last N events"); small enough that a dump
#: attached to an error report stays a few KiB of JSON
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded ring buffer of recent events with O(1) append.

    Unlike the metrics registry and tracer, the recorder defaults to
    **enabled** - it is the thing that is still watching when all other
    observability is off.  ``enabled = False`` exists for the overhead
    harness and for tests that need a quiet recorder.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.enabled = True
        self.capacity = int(capacity)
        self._events: deque = deque(maxlen=self.capacity)
        self._seq = 0
        self._dropped = 0
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------------

    def note(self, kind: str, name: str, *, worker: int | None = None,
             **data) -> None:
        """Append one event: ``(seq, t_s, kind, name, worker, data)``."""
        if not self.enabled:
            return
        t_s = time.perf_counter() - self._t0
        with self._lock:
            if len(self._events) == self.capacity:
                self._dropped += 1          # deque maxlen evicts the oldest
            self._events.append(
                (self._seq, t_s, kind, name, worker, data or None))
            self._seq += 1

    def span_edge(self, rec) -> None:
        """Tracer hook: record one completed span as a ``span`` event."""
        if not self.enabled:
            return
        self.note("span", rec.name, wall_s=rec.wall_s, depth=rec.depth)

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Drop every event, restart numbering and the time base."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._dropped = 0
            self._t0 = time.perf_counter()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        with self._lock:
            return self._dropped

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ring as a JSON-ready ``repro.obs.flight/1`` dump."""
        with self._lock:
            events = []
            for seq, t_s, kind, name, worker, data in self._events:
                ev = {"seq": seq, "t_s": t_s, "kind": kind, "name": name}
                if worker is not None:
                    ev["worker"] = worker
                if data:
                    ev["data"] = data
                events.append(ev)
            return {
                "schema": FLIGHT_SCHEMA,
                "capacity": self.capacity,
                "dropped": self._dropped,
                "events": events,
            }

    # -- cross-process merging -------------------------------------------------

    def merge(self, dump: dict | None, *, worker: int | None = None) -> int:
        """Fold a shipped worker dump into this ring.

        Events are re-sequenced into the local sequence space (their
        worker-relative order is preserved) and tagged with the worker
        slot, exactly like :meth:`Tracer.merge` re-bases span ids.
        Returns the number of events merged.
        """
        if not dump:
            return 0
        events = dump.get("events") or []
        if not events:
            return 0
        with self._lock:
            self._dropped += int(dump.get("dropped", 0))
            for ev in events:
                if len(self._events) == self.capacity:
                    self._dropped += 1
                tag = ev.get("worker")
                if tag is None:
                    tag = worker
                self._events.append(
                    (self._seq, ev.get("t_s", 0.0), ev.get("kind", "event"),
                     ev.get("name", ""), tag, ev.get("data") or None))
                self._seq += 1
        return len(events)


def validate_flight(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed flight dump."""
    if not isinstance(doc, dict) or doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"not a flight dump (expected schema {FLIGHT_SCHEMA!r}): {doc!r}")
    capacity = doc.get("capacity")
    if not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"flight capacity must be a positive int: {capacity!r}")
    dropped = doc.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError(f"flight dropped must be a non-negative int: {dropped!r}")
    events = doc.get("events")
    if not isinstance(events, list):
        raise ValueError("flight events must be a list")
    if len(events) > capacity:
        raise ValueError(
            f"flight dump holds {len(events)} events, above capacity {capacity}")
    prev_seq = -1
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"flight event {i} is not an object: {ev!r}")
        for key in ("seq", "t_s", "kind", "name"):
            if key not in ev:
                raise ValueError(f"flight event {i} missing {key!r}")
        if not isinstance(ev["seq"], int) or ev["seq"] <= prev_seq:
            raise ValueError(
                f"flight event {i} seq {ev['seq']!r} not strictly increasing")
        prev_seq = ev["seq"]
        if not isinstance(ev["t_s"], (int, float)):
            raise ValueError(
                f"flight event {i} t_s must be a number: {ev['t_s']!r}")
        if not isinstance(ev["kind"], str) or not isinstance(ev["name"], str):
            raise ValueError(f"flight event {i} kind/name must be strings")


#: the process-wide recorder (each worker process grows its own copy)
FLIGHT = FlightRecorder()


def attach_flight(exc: BaseException) -> BaseException:
    """Attach the current ring to an exception as ``exc.flight``.

    Used at structured-error raise sites (``raise attach_flight(
    WorkerError(...))``) so the error object carries the last N
    events when it crosses an API or process boundary.  Returns ``exc``
    for inline use.  Never overwrites a dump attached further down the
    stack (the deepest attach wins - it is closest to the failure).
    """
    if getattr(exc, "flight", None) is None:
        exc.flight = FLIGHT.snapshot()
    return exc


__all__ = [
    "DEFAULT_CAPACITY",
    "FLIGHT",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "attach_flight",
    "validate_flight",
]
