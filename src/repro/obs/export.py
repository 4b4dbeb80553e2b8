"""JSON export of the observability state.

The documented schema (``repro.obs/2``) is what ``--metrics-out`` writes,
what ``VQEResult.metrics`` carries, what a process worker ships home with
its task result, and what the CI regression job uploads as an artifact:

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
      ],
      "flight": {"schema": "repro.obs.flight/1", "capacity": 256,
                 "dropped": 0, "events": []}
    }

``metrics`` maps metric name to its instrument snapshot (only instruments
with at least one recorded value appear); every ``value`` is a number.
``spans`` is present only when tracing is on.  ``flight`` is the optional
flight-recorder section (:mod:`repro.obs.flight`) a worker payload carries.

A document may be the result of merging worker deltas
(:func:`repro.obs.merge_snapshot`): counters add, gauges take the maximum,
``obs.merges{worker}`` counts the snapshots folded per worker slot, and
merged spans and flight events carry the worker slot.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.flight import FLIGHT_SCHEMA, validate_flight
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACER, Tracer

#: bumped when the exported structure changes shape
SCHEMA_VERSION = "repro.obs/2"


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


def _validate_metrics(doc: dict) -> None:
    """The ``repro.obs/2`` document: metrics, optional spans and flight."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("'metrics' must be an object")
    for name, inst in metrics.items():
        if not isinstance(inst, dict):
            raise ValueError(f"metric {name!r} must be an object: {inst!r}")
        if inst.get("type") not in ("counter", "gauge"):
            raise ValueError(f"metric {name!r} has bad type {inst.get('type')!r}")
        values = inst.get("values")
        if not isinstance(values, list):
            raise ValueError(f"metric {name!r} has no values list")
        for slot in values:
            if not isinstance(slot, dict) \
                    or "labels" not in slot or "value" not in slot:
                raise ValueError(f"metric {name!r} slot missing labels/value")
    spans = doc.get("spans", [])
    if not isinstance(spans, list):
        raise ValueError("'spans' must be a list when present")
    for span in spans:
        if not isinstance(span, dict):
            raise ValueError(f"span must be an object: {span!r}")
        for field in ("span_id", "name", "depth", "wall_s", "cpu_s"):
            if field not in span:
                raise ValueError(f"span missing field {field!r}")
    if "flight" in doc:
        validate_flight(doc["flight"])


#: schema -> validator; the one place a document kind is made acceptable
_VALIDATORS = {
    SCHEMA_VERSION: _validate_metrics,
    FLIGHT_SCHEMA: validate_flight,
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
    "snapshot",
    "validate_document",
    "write_json",
]
