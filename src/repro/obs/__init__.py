"""``repro.obs`` - zero-dependency observability: metrics, traces, export.

The subsystem the paper's engineering sections imply but never ship: the
MPS engine is steered by quantities (per-bond truncation error, GEMM/SVD
counts, task distributions) that the rest of the stack computes and then
throws away.  This package records them behind a **no-op default**:

* :mod:`repro.obs.metrics` - a registry of counters / gauges / histograms
  with labels; every instrument checks one shared flag and returns
  immediately when disabled, so instrumented hot paths cost one branch.
* :mod:`repro.obs.trace` - ``span("vqe.iteration")`` context managers
  with nesting, wall (``perf_counter``) and CPU (``process_time``) time.
* :mod:`repro.obs.export` - the documented ``repro.obs/2`` JSON / JSONL
  schema behind ``--metrics-out`` and ``VQEResult.metrics``.

Performance is measured outside this package, by
``python3 benchmarks/e2e/run.py`` (``--compare A B`` is the regression
gate).

Worker processes snapshot their local registry/tracer at task completion
and ship the delta back through the executor reduction path; the parent
folds it in with the merge-order-invariant
:meth:`~repro.obs.metrics.MetricsRegistry.merge`, so counter totals are
identical for serial/thread/process executors at any worker count.

Because counters record algorithmic events (never durations), their
values are deterministic: ``tests/regression/`` pins exact SVD/GEMM/task
counts for reference workloads and fails CI on silent algorithmic
regressions where wall-clock benchmarks cannot.

Typical use::

    from repro import obs

    obs.enable()                  # or:  with obs.collect() as reg: ...
    result = job.vqe_energy(simulator="mps")
    print(result.metrics["mps.svd"]["values"])
    obs.write_json("metrics.json")
    obs.disable()
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    SCHEMA_VERSION,
    TS_SCHEMA,
    snapshot,
    validate_document,
    write_json,
    write_jsonl,
)
from repro.obs.flight import (
    FLIGHT,
    FLIGHT_SCHEMA,
    FlightRecorder,
    attach_flight,
    validate_flight,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.obs.trace import TRACER, SpanRecord, Tracer, span

# the flight recorder watches span completions too: every finished span
# lands in the crash ring as a "span" event (tracing must be on for
# spans to exist at all; the hook itself is one None check when off)
TRACER.edge_hook = FLIGHT.span_edge


def enable(trace: bool = False) -> None:
    """Turn metric recording on (and span tracing too if ``trace``)."""
    REGISTRY.enable()
    if trace:
        TRACER.enable()


def disable() -> None:
    """Turn metric recording and tracing off (values are kept)."""
    REGISTRY.disable()
    TRACER.disable()


def enabled() -> bool:
    """True when the global metrics registry is recording."""
    return REGISTRY.enabled


def reset() -> None:
    """Zero every metric and drop every span."""
    REGISTRY.reset()
    TRACER.reset()


def value(name: str, default=0, **labels):
    """Convenience read of one labelled metric slot off the registry."""
    return REGISTRY.value(name, default, **labels)


def merge_snapshot(doc: dict, *, worker: int | None = None) -> float:
    """Fold one exported document into the global registry and tracer.

    ``doc`` is a ``repro.obs/2`` (or ``/1``) document - typically the
    snapshot a worker process ships back with its task result.  Counters
    add, gauges are last-write-by-worker-id, histograms combine aggregate
    fields, and merged spans are re-based into the local id space with
    ``attrs.worker`` set.  Returns the total counter increment merged.
    """
    delta = REGISTRY.merge(doc.get("metrics", {}), worker=worker)
    TRACER.merge(doc.get("spans", []), worker=worker)
    FLIGHT.merge(doc.get("flight"), worker=worker)
    return delta


@contextmanager
def collect(trace: bool = False):
    """Scoped collection: reset, enable, yield the registry, restore.

    The previous enabled/disabled state is restored on exit, so library
    code can observe one call without disturbing ambient configuration::

        with obs.collect() as reg:
            evaluator.energy(theta)
        assert reg.value("vqe.energy_evaluations") == 1
    """
    prev_metrics = REGISTRY.enabled
    prev_trace = TRACER.enabled
    reset()
    REGISTRY.enable()
    if trace:
        TRACER.enable()
    try:
        yield REGISTRY
    finally:
        REGISTRY.enabled = prev_metrics
        TRACER.enabled = prev_trace


__all__ = [
    "Counter",
    "FLIGHT",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SCHEMA_VERSION",
    "SpanRecord",
    "TRACER",
    "TS_SCHEMA",
    "Tracer",
    "attach_flight",
    "collect",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "merge_snapshot",
    "reset",
    "snapshot",
    "span",
    "validate_document",
    "validate_flight",
    "value",
    "write_json",
    "write_jsonl",
]
