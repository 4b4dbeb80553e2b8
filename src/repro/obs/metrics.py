"""The metrics registry: counters and high-water-mark gauges with labels.

Design constraints (in priority order):

1. **Free when disabled.**  Every instrument checks one shared boolean and
   returns before touching any other state, so instrumented hot paths -
   gate applications, batched GEMM sweeps, fragment dispatches - cost a
   single attribute load + branch per event when observability is off
   (the default).
2. **Deterministic when enabled.**  Counters record *algorithmic* event
   counts (gates applied, SVDs taken, tasks dispatched), never wall time,
   so their values are exact integers/floats reproducible across runs,
   machines and worker counts.  The regression suite pins them.
3. **Commutative merges.**  A counter merges by ``+`` and a gauge by
   ``max``, so folding worker snapshots in any order gives one answer.
4. **Zero dependencies.**  Plain dicts and a :mod:`threading` lock; the
   JSON export is stdlib-only (:mod:`repro.obs.export`).

Instruments are created once at import time through the module-level
factories (:func:`counter` / :func:`gauge`) and held in module globals by
the instrumented code, so the per-event path never performs a registry
lookup.  Labels are passed as keyword arguments:

>>> from repro import obs
>>> svds = obs.counter("demo.svd", "SVDs taken")
>>> with obs.collect() as reg:
...     svds.inc()
...     svds.inc(2, site=3)
>>> reg.value("demo.svd")
1
>>> reg.value("demo.svd", site=3)
2
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.common.errors import ValidationError

#: value key for the label-less slot of an instrument
_NO_LABELS: tuple = ()


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set (sorted by label name)."""
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


class Instrument:
    """Base class: one named metric with per-label-set values."""

    kind = "instrument"

    __slots__ = ("name", "description", "unit", "_registry", "_values")

    def __init__(self, name: str, description: str, unit: str,
                 registry: "MetricsRegistry"):
        self.name = name
        self.description = description
        self.unit = unit
        self._registry = registry
        self._values: dict[tuple, object] = {}

    # -- shared plumbing ------------------------------------------------------

    def _reset(self) -> None:
        self._values.clear()

    def items(self) -> Iterator[tuple[dict, object]]:
        """(labels dict, value) pairs in sorted label order."""
        for key in sorted(self._values, key=repr):
            yield dict(key), self._values[key]

    def snapshot(self) -> dict:
        """JSON-ready description of this instrument and its values."""
        return {
            "type": self.kind,
            "description": self.description,
            "unit": self.unit,
            "values": [
                {"labels": labels, "value": value}
                for labels, value in self.items()
            ],
        }


class Counter(Instrument):
    """Monotonically increasing event count (per label set)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, value: float = 1, **labels) -> None:
        """Add ``value`` (default 1) to the labelled slot; no-op when
        the registry is disabled."""
        reg = self._registry
        if not reg.enabled:
            return
        if value < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (got {value})"
            )
        with reg._lock:
            self._fold(_label_key(labels), value)

    def _fold(self, key: tuple, value) -> None:
        self._values[key] = self._values.get(key, 0) + value


class Gauge(Instrument):
    """High-water mark: the largest value seen (per label set)."""

    kind = "gauge"
    __slots__ = ()

    def set_max(self, value: float, **labels) -> None:
        """Keep the running maximum of the labelled slot."""
        reg = self._registry
        if not reg.enabled:
            return
        with reg._lock:
            self._fold(_label_key(labels), value)

    def _fold(self, key: tuple, value) -> None:
        cur = self._values.get(key)
        if cur is None or value > cur:
            self._values[key] = value


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Holds every instrument; one process-wide instance by default.

    ``enabled`` is the single switch every instrument checks first; it
    starts False so importing instrumented modules costs nothing.  The
    lock only guards *enabled* mutations: the serve scheduler thread
    increments counters while the caller's thread may read or merge, and
    without it increments could be lost.
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    # -- instrument creation ---------------------------------------------------

    def _make(self, kind: str, name: str, description: str,
              unit: str) -> Instrument:
        hit = self._instruments.get(name)
        if hit is not None:
            if hit.kind != kind:
                raise ValidationError(
                    f"metric {name!r} already registered as {hit.kind}, "
                    f"cannot re-register as {kind}"
                )
            return hit
        inst = _KINDS[kind](name, description, unit, self)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, description: str = "",
                unit: str = "1") -> Counter:
        """Create (or fetch) the counter called ``name``."""
        return self._make("counter", name, description, unit)

    def gauge(self, name: str, description: str = "",
              unit: str = "1") -> Gauge:
        """Create (or fetch) the gauge called ``name``."""
        return self._make("gauge", name, description, unit)

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        """Start recording (values accumulate from here)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (instruments return immediately again)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument's values (registrations survive)."""
        with self._lock:
            for inst in self._instruments.values():
                inst._reset()

    # -- cross-process merging ---------------------------------------------------

    def merge(self, metrics, *, worker: int | None = None) -> None:
        """Fold another registry's values into this one.

        ``metrics`` is a :class:`MetricsRegistry` or a metrics snapshot
        mapping (``{name: instrument snapshot}``, the shape
        :meth:`snapshot` produces and worker processes ship back with
        their task result).  Both rules commute, so the parent's values do
        not depend on which worker's delta lands first:

        * **counters add** - totals equal the serial run's for any worker
          count;
        * **gauges take the maximum** - a high-water mark over workers is
          the largest any of them (or the parent) saw.

        When ``worker`` is given the merge is also counted in the built-in
        ``obs.merges{worker=w}``, which makes the spread of tasks over
        worker slots visible without disturbing any other metric.

        Values are written directly (bypassing the ``enabled`` flag): a
        merge is bookkeeping of already-recorded data, not a hot-path
        event.
        """
        if isinstance(metrics, MetricsRegistry):
            metrics = metrics.snapshot()
        with self._lock:
            for name in sorted(metrics):
                snap = metrics[name]
                kind = snap.get("type")
                if kind not in _KINDS:
                    raise ValidationError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )
                inst = self._make(kind, name, snap.get("description", ""),
                                  snap.get("unit", "1"))
                for slot in snap.get("values", ()):
                    inst._fold(_label_key(slot.get("labels") or {}),
                               slot["value"])
            if worker is not None:
                self._make(
                    "counter", "obs.merges",
                    "worker metric snapshots merged, labelled by worker "
                    "slot", "1")._fold(_label_key({"worker": int(worker)}), 1)

    # -- reading ---------------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def get(self, name: str) -> Instrument:
        """Instrument by name; raises listing what exists."""
        inst = self._instruments.get(name)
        if inst is None:
            raise ValidationError(
                f"unknown metric {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return inst

    def value(self, name: str, default=0, **labels):
        """Current value of one labelled slot (``default`` if unwritten)."""
        return self.get(name)._values.get(_label_key(labels), default)

    def snapshot(self) -> dict:
        """JSON-ready ``{name: instrument snapshot}`` of non-empty metrics."""
        with self._lock:
            return {
                name: inst.snapshot()
                for name, inst in sorted(self._instruments.items())
                if inst._values
            }


#: the process-wide registry every module-level factory binds to
REGISTRY = MetricsRegistry()


def counter(name: str, description: str = "", unit: str = "1") -> Counter:
    """Create (or fetch) a counter on the global registry."""
    return REGISTRY.counter(name, description, unit)


def gauge(name: str, description: str = "", unit: str = "1") -> Gauge:
    """Create (or fetch) a gauge on the global registry."""
    return REGISTRY.gauge(name, description, unit)


__all__ = [
    "Counter",
    "Gauge",
    "Instrument",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
]
