"""``repro.obs`` - zero-dependency observability: metrics, traces, export.

The subsystem the paper's engineering sections imply but never ship: the
MPS engine is steered by quantities (per-bond truncation error, GEMM/SVD
counts, task distributions) that the rest of the stack computes and then
throws away.  This package records them behind a **no-op default**:

* :mod:`repro.obs.metrics` - a registry of counters and high-water-mark
  gauges with labels; every instrument checks one shared flag and returns
  immediately when disabled, so instrumented hot paths cost one branch.
* :mod:`repro.obs.trace` - ``span("vqe.iteration")`` context managers
  with nesting, wall (``perf_counter``) and CPU (``process_time``) time.
* :mod:`repro.obs.export` - the documented ``repro.obs/2`` JSON schema
  behind ``--metrics-out`` and ``VQEResult.metrics``.
* :mod:`repro.obs.flight` - the always-on ring of recent coarse events
  attached to structured errors and failed ``serve`` jobs.

Performance is measured outside this package, by
``python3 benchmarks/e2e/run.py`` (``--compare A B`` is the regression
gate).

Worker processes snapshot their local registry / tracer / flight ring at
task completion and ship the delta back with the task result; the parent
folds it in with :func:`merge_snapshot` (counters add, gauges take the
maximum - both commute), so totals are identical whether fragments are
solved in-line or on worker processes, at any worker count.

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
    snapshot,
    validate_document,
    write_json,
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
    MetricsRegistry,
    counter,
    gauge,
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


def merge_snapshot(doc: dict | None, *, worker: int | None = None) -> None:
    """Fold one exported document into the global registry, tracer and ring.

    ``doc`` is a ``repro.obs/2`` document - the snapshot a worker process
    ships back with its task result (``None`` when the worker was told
    not to record).  Counters add, gauges take the maximum, merged spans
    are re-based into the local id space and merged flight events
    re-sequenced, both tagged with the ``worker`` slot.
    """
    if doc is None:
        return
    REGISTRY.merge(doc.get("metrics", {}), worker=worker)
    TRACER.merge(doc.get("spans", []), worker=worker)
    FLIGHT.merge(doc.get("flight"), worker=worker)


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
    "MetricsRegistry",
    "REGISTRY",
    "SCHEMA_VERSION",
    "SpanRecord",
    "TRACER",
    "Tracer",
    "attach_flight",
    "collect",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "merge_snapshot",
    "reset",
    "snapshot",
    "span",
    "validate_document",
    "validate_flight",
    "write_json",
]
