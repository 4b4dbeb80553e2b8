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
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture()
def populated():
    reg = MetricsRegistry()
    reg.enable()
    reg.counter("svd", "SVDs").inc(4)
    reg.gauge("bond").set_max(2)
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

    def test_rejects_span_missing_fields(self):
        doc = {"schema": SCHEMA_VERSION, "metrics": {},
               "spans": [{"span_id": 0}]}
        with pytest.raises(ValueError, match="span missing"):
            validate_document(doc)


    @pytest.mark.parametrize("body, match", [
        ({"metrics": {"x": 3}}, "metric 'x'"),
        ({"metrics": {"m": {"type": "histogram", "values": []}}},
         "bad type"),
        ({"metrics": {"m": {"type": "counter", "values": [3]}}},
         "labels/value"),
        ({"metrics": {}, "spans": [3]}, "span"),
        ({"metrics": {}, "flight": {"schema": "nope"}}, "flight"),
        ({"metrics": {}, "flight": 3}, "flight"),
        ({"metrics": {}, "flight": {
            "schema": "repro.obs.flight/1", "capacity": 4, "dropped": 0,
            "events": [{"seq": 0, "t_s": "soon", "kind": "serve",
                        "name": "job_start"}]}}, "t_s"),
    ])
    def test_malformed_sections_are_value_errors(self, body, match):
        with pytest.raises(ValueError, match=match):
            validate_document({"schema": SCHEMA_VERSION, **body})


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
                f"'repro.obs.flight/1'")

    def test_merged_multiworker_document_roundtrips(self, populated):
        """The shape the parent produces after folding worker deltas -
        per-worker labels, the merge bookkeeping counter, worker-tagged
        spans - must survive a JSON round trip and validate."""
        reg, trc = populated
        for worker in (0, 1):
            wreg = MetricsRegistry()
            wreg.enable()
            wreg.counter("svd", "SVDs").inc(2 + worker)
            wreg.gauge("bond").set_max(4 + worker)
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
        assert doc["metrics"]["bond"]["values"] == [
            {"labels": {}, "value": 5}]
        tagged = [s for s in doc["spans"]
                  if s.get("attrs", {}).get("worker") is not None]
        assert {s["attrs"]["worker"] for s in tagged} == {0, 1}


class TestFlightAndTelemetrySchemas:
    """validate_document on flight dumps, alone and as the ``flight``
    section of a ``repro.obs/2`` document (the worker payload)."""

    def _flight(self):
        return {"schema": "repro.obs.flight/1", "capacity": 4, "dropped": 1,
                "events": [{"seq": 3, "t_s": 0.5, "kind": "serve",
                            "name": "job_start", "worker": 1,
                            "data": {"job": "job-1"}}]}

    def test_flight_dump_round_trips(self):
        validate_document(json.loads(json.dumps(self._flight())))

    def test_flight_malformed_rejected(self):
        doc = self._flight()
        doc["events"].append({"seq": 0, "t_s": 0.6, "kind": "serve",
                              "name": "late"})
        with pytest.raises(ValueError, match="increasing"):
            validate_document(doc)

    def test_worker_payload_with_flight_section_validates(self, populated):
        reg, trc = populated
        doc = snapshot(reg, trc)
        doc["flight"] = self._flight()
        validate_document(json.loads(json.dumps(doc)))

    def test_obs_documents_still_accepted(self, populated):
        reg, trc = populated
        validate_document(snapshot(reg, trc))

    def test_unknown_schema_lists_all_families(self):
        with pytest.raises(ValueError, match="repro.obs.flight/1"):
            validate_document({"schema": "repro.obs/99"})
