"""JSON / JSONL export of the observability state.

The documented schema (``repro.obs/2``) is what ``--metrics-out`` writes,
what ``VQEResult.metrics`` carries, and what the CI regression job uploads
as an artifact:

.. code-block:: json

    {
      "schema": "repro.obs/2",
      "metrics": {
        "mps.svd": {
          "type": "counter",
          "description": "truncated SVDs taken",
          "unit": "1",
          "values": [{"labels": {}, "value": 128}]
        }
      },
      "spans": [
        {"span_id": 0, "parent_id": null, "name": "vqe.run",
         "depth": 0, "start_s": 0.0, "wall_s": 1.2, "cpu_s": 1.1,
         "thread": "MainThread"}
      ]
    }

``metrics`` maps metric name to its instrument snapshot (only instruments
with at least one recorded value appear).  Counter/gauge ``value`` is a
number; histogram ``value`` is a ``{count, sum, min, max}`` summary.
``spans`` is present only when tracing is on.  The JSONL exporter writes
one span object per line after a single header line carrying the metrics -
the streaming-friendly form for long traces.

``repro.obs/2`` documents cross-process semantics: metric snapshots may
be the result of
:meth:`~repro.obs.metrics.MetricsRegistry.merge` folds of worker-process
deltas (counters add, gauges last-write-by-worker-id, histograms combine
aggregate fields), per-worker provenance appears in the built-in
``obs.merges{worker}`` / ``obs.merged_events{worker}`` counters, and
merged spans carry ``attrs.worker``.  :func:`validate_document` also
dispatches flight dumps and telemetry samples to their own validators.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACER, Tracer

#: bumped when the exported structure changes shape
SCHEMA_VERSION = "repro.obs/2"

#: metrics-document revisions validate_document accepts
_ACCEPTED_VERSIONS = ("repro.obs/2",)

#: one serve-telemetry time-series sample (a JSONL line of the
#: ``--telemetry-out`` stream and the body of the ``--status-file``)
TS_SCHEMA = "repro.obs.ts/1"


def validate_ts_sample(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed ts/1 sample."""
    if doc.get("schema") != TS_SCHEMA:
        raise ValueError(
            f"not a telemetry sample: schema={doc.get('schema')!r} "
            f"(expected {TS_SCHEMA!r})")
    seq = doc.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise ValueError(f"ts sample seq must be a non-negative int: {seq!r}")
    if not isinstance(doc.get("t_s"), (int, float)):
        raise ValueError("ts sample missing numeric 't_s'")
    for field in ("queue_depth", "in_flight"):
        value = doc.get(field)
        if not isinstance(value, int) or value < 0:
            raise ValueError(
                f"ts sample {field!r} must be a non-negative int: {value!r}")
    for field in ("jobs", "cache", "counters"):
        if not isinstance(doc.get(field), dict):
            raise ValueError(f"ts sample {field!r} must be an object")
    for metric, delta in doc["counters"].items():
        if not isinstance(delta, (int, float)):
            raise ValueError(
                f"ts sample counter delta {metric!r} is not a number")


def snapshot(registry: MetricsRegistry | None = None,
             tracer: Tracer | None = None,
             include_spans: bool | None = None) -> dict:
    """JSON-ready snapshot of the current metrics (and spans, if traced).

    ``include_spans=None`` auto-includes spans whenever the tracer holds
    any; pass False to force a metrics-only document.
    """
    reg = REGISTRY if registry is None else registry
    trc = TRACER if tracer is None else tracer
    doc = {"schema": SCHEMA_VERSION, "metrics": reg.snapshot()}
    spans = trc.snapshot()
    if include_spans is None:
        include_spans = bool(spans)
    if include_spans:
        doc["spans"] = spans
    return doc


def write_json(path_or_file: str | IO, *,
               registry: MetricsRegistry | None = None,
               tracer: Tracer | None = None,
               indent: int = 2) -> dict:
    """Write one schema document to ``path_or_file``; returns the document."""
    doc = snapshot(registry, tracer)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file, indent=indent)
        path_or_file.write("\n")
    else:
        with open(path_or_file, "w") as fh:
            json.dump(doc, fh, indent=indent)
            fh.write("\n")
    return doc


def write_jsonl(path_or_file: str | IO, *,
                registry: MetricsRegistry | None = None,
                tracer: Tracer | None = None) -> int:
    """Streaming form: a metrics header line, then one line per span.

    Returns the number of lines written.
    """
    reg = REGISTRY if registry is None else registry
    trc = TRACER if tracer is None else tracer

    def _emit(fh) -> int:
        lines = 1
        header = {"schema": SCHEMA_VERSION, "metrics": reg.snapshot()}
        fh.write(json.dumps(header) + "\n")
        for span in trc.snapshot():
            fh.write(json.dumps(span) + "\n")
            lines += 1
        return lines

    if hasattr(path_or_file, "write"):
        return _emit(path_or_file)
    with open(path_or_file, "w") as fh:
        return _emit(fh)


def _validate_flight(doc: dict) -> None:
    from repro.obs.flight import validate_flight
    validate_flight(doc)


def _validate_metrics(doc: dict) -> None:
    """The ``repro.obs/2`` metrics (+ optional spans) document."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("'metrics' must be an object")
    for name, inst in metrics.items():
        if inst.get("type") not in ("counter", "gauge", "histogram"):
            raise ValueError(f"metric {name!r} has bad type {inst.get('type')!r}")
        values = inst.get("values")
        if not isinstance(values, list):
            raise ValueError(f"metric {name!r} has no values list")
        for slot in values:
            if "labels" not in slot or "value" not in slot:
                raise ValueError(f"metric {name!r} slot missing labels/value")
            if inst["type"] == "histogram":
                summary = slot["value"]
                missing = {"count", "sum", "min", "max"} - set(summary)
                if missing:
                    raise ValueError(
                        f"histogram {name!r} summary missing {sorted(missing)}"
                    )
    spans = doc.get("spans", [])
    if not isinstance(spans, list):
        raise ValueError("'spans' must be a list when present")
    for span in spans:
        for field in ("span_id", "name", "depth", "wall_s", "cpu_s"):
            if field not in span:
                raise ValueError(f"span missing field {field!r}")


#: schema -> validator; the one place a document kind is made acceptable
_VALIDATORS = {
    **{version: _validate_metrics for version in _ACCEPTED_VERSIONS},
    "repro.obs.flight/1": _validate_flight,
    TS_SCHEMA: validate_ts_sample,
}


def validate_document(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the documented schema.

    Used by the CLI smoke test and available to downstream consumers that
    want to fail fast on malformed artifacts.
    """
    if not isinstance(doc, dict):
        raise ValueError("metrics document must be a JSON object")
    schema = doc.get("schema")
    validator = _VALIDATORS.get(schema) if isinstance(schema, str) else None
    if validator is None:
        raise ValueError(
            f"unknown schema {schema!r}; expected one of "
            f"{', '.join(repr(known) for known in _VALIDATORS)}")
    validator(doc)


__all__ = [
    "SCHEMA_VERSION",
    "TS_SCHEMA",
    "snapshot",
    "validate_document",
    "validate_ts_sample",
    "write_json",
    "write_jsonl",
]
