"""Unit tests for the repro.obs/2 export schema (repro.obs.export)."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import (
    SCHEMA_VERSION,
    snapshot,
    validate_document,
    write_json,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture()
def populated():
    reg = MetricsRegistry()
    reg.enable()
    reg.counter("svd", "SVDs").inc(4)
    reg.histogram("batch").observe(2.0)
    trc = Tracer()
    trc.enable()
    with trc.span("work"):
        pass
    return reg, trc


class TestSnapshot:
    def test_shape_and_schema(self, populated):
        reg, trc = populated
        doc = snapshot(reg, trc)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["metrics"]["svd"]["values"] == [
            {"labels": {}, "value": 4}]
        assert len(doc["spans"]) == 1
        validate_document(doc)

    def test_spans_auto_excluded_when_none_recorded(self, populated):
        reg, _ = populated
        doc = snapshot(reg, Tracer())
        assert "spans" not in doc
        validate_document(doc)

    def test_spans_forced_off(self, populated):
        reg, trc = populated
        doc = snapshot(reg, trc, include_spans=False)
        assert "spans" not in doc


class TestWriters:
    def test_write_json_roundtrip(self, tmp_path, populated):
        reg, trc = populated
        path = tmp_path / "metrics.json"
        returned = write_json(str(path), registry=reg, tracer=trc)
        on_disk = json.loads(path.read_text())
        assert on_disk == returned
        validate_document(on_disk)

    def test_write_json_to_file_object(self, populated):
        reg, trc = populated
        buf = io.StringIO()
        write_json(buf, registry=reg, tracer=trc)
        validate_document(json.loads(buf.getvalue()))

    def test_write_jsonl_header_plus_spans(self, tmp_path, populated):
        reg, trc = populated
        path = tmp_path / "metrics.jsonl"
        n = write_jsonl(str(path), registry=reg, tracer=trc)
        lines = path.read_text().splitlines()
        assert n == len(lines) == 2  # header + one span
        header = json.loads(lines[0])
        assert header["schema"] == SCHEMA_VERSION
        assert json.loads(lines[1])["name"] == "work"


class TestValidation:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_document({"schema": "nope", "metrics": {}})

    def test_rejects_bad_metric_type(self):
        doc = {"schema": SCHEMA_VERSION,
               "metrics": {"m": {"type": "timer", "values": []}}}
        with pytest.raises(ValueError, match="bad type"):
            validate_document(doc)

    def test_rejects_slot_without_value(self):
        doc = {"schema": SCHEMA_VERSION,
               "metrics": {"m": {"type": "counter",
                                 "values": [{"labels": {}}]}}}
        with pytest.raises(ValueError, match="labels/value"):
            validate_document(doc)

    def test_rejects_incomplete_histogram_summary(self):
        doc = {"schema": SCHEMA_VERSION,
               "metrics": {"m": {"type": "histogram",
                                 "values": [{"labels": {},
                                             "value": {"count": 1}}]}}}
        with pytest.raises(ValueError, match="summary missing"):
            validate_document(doc)

    def test_rejects_span_missing_fields(self):
        doc = {"schema": SCHEMA_VERSION, "metrics": {},
               "spans": [{"span_id": 0}]}
        with pytest.raises(ValueError, match="span missing"):
            validate_document(doc)


class TestSchemaV2:
    def test_current_schema_is_v2(self):
        assert SCHEMA_VERSION == "repro.obs/2"

    def test_v1_documents_rejected(self, populated):
        reg, trc = populated
        doc = snapshot(reg, trc)
        for retired in ("repro.obs/1", "repro.bench/1", "repro.cost/1"):
            doc["schema"] = retired
            with pytest.raises(ValueError) as err:
                validate_document(doc)
            assert str(err.value) == (
                f"unknown schema {retired!r}; expected one of 'repro.obs/2', "
                f"'repro.obs.flight/1', 'repro.obs.ts/1'")

    def test_merged_multiworker_document_roundtrips(self, populated):
        """The shape the parent produces after folding worker deltas -
        per-worker labels, merge bookkeeping counters, worker-tagged
        spans - must survive a JSON round trip and validate."""
        reg, trc = populated
        for worker in (0, 1):
            wreg = MetricsRegistry()
            wreg.enable()
            wreg.counter("svd", "SVDs").inc(2 + worker)
            wreg.histogram("batch").observe_many([1.0, 4.0])
            wtrc = Tracer()
            wtrc.enable()
            with wtrc.span("worker.task"):
                pass
            reg.merge(wreg, worker=worker)
            trc.merge(wtrc.snapshot(), worker=worker)
        doc = json.loads(json.dumps(snapshot(reg, trc)))
        validate_document(doc)
        assert doc["schema"] == SCHEMA_VERSION
        merge_slots = doc["metrics"]["obs.merges"]["values"]
        assert {s["labels"]["worker"] for s in merge_slots} == {0, 1}
        assert next(s["value"] for s in doc["metrics"]["svd"]["values"]
                    if not s["labels"]) == 4 + 2 + 3
        tagged = [s for s in doc["spans"]
                  if s.get("attrs", {}).get("worker") is not None]
        assert {s["attrs"]["worker"] for s in tagged} == {0, 1}


class TestFlightAndTelemetrySchemas:
    """validate_document dispatch for the two observability side schemas."""

    def _flight(self):
        return {"schema": "repro.obs.flight/1", "capacity": 4, "dropped": 1,
                "events": [{"seq": 3, "t_s": 0.5, "kind": "serve",
                            "name": "job_start", "worker": 1,
                            "data": {"job": "job-1"}}]}

    def _ts(self):
        return {"schema": "repro.obs.ts/1", "seq": 2, "t_s": 3.5,
                "queue_depth": 1, "in_flight": 2,
                "jobs": {"done": 4, "error": 0},
                "cache": {"hit_rate": 0.5},
                "counters": {"serve.batches": 2.0}}

    def test_flight_dump_round_trips(self):
        validate_document(json.loads(json.dumps(self._flight())))

    def test_flight_malformed_rejected(self):
        doc = self._flight()
        doc["events"].append({"seq": 0, "t_s": 0.6, "kind": "serve",
                              "name": "late"})
        with pytest.raises(ValueError, match="increasing"):
            validate_document(doc)

    def test_ts_sample_round_trips(self):
        validate_document(json.loads(json.dumps(self._ts())))

    def test_ts_status_extras_accepted(self):
        # the serve status file is a ts/1 sample with daemon fields
        doc = self._ts()
        doc.update(pid=1234, state="running", started_unix=1.7e9,
                   uptime_s=12.5)
        validate_document(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field,bad", [
        ("seq", -1), ("t_s", "soon"), ("queue_depth", -2),
        ("in_flight", 1.5), ("jobs", []), ("counters", {"x": "many"}),
    ])
    def test_ts_malformed_rejected(self, field, bad):
        doc = self._ts()
        doc[field] = bad
        with pytest.raises(ValueError):
            validate_document(doc)

    def test_obs_documents_still_accepted(self, populated):
        reg, trc = populated
        validate_document(snapshot(reg, trc))

    def test_unknown_schema_lists_all_families(self):
        with pytest.raises(ValueError, match="repro.obs.flight/1"):
            validate_document({"schema": "repro.obs/99"})
