"""Unit tests for span tracing (repro.obs.trace)."""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer


@pytest.fixture()
def tracer() -> Tracer:
    t = Tracer()
    t.enable()
    return t


class TestDisabledDefault:
    def test_fresh_tracer_is_disabled(self):
        assert Tracer().enabled is False

    def test_disabled_span_yields_none_and_records_nothing(self):
        t = Tracer()
        with t.span("work") as rec:
            assert rec is None
        assert t.snapshot() == []


class TestSpans:
    def test_span_records_timing(self, tracer):
        with tracer.span("work") as rec:
            assert rec is not None
        spans = tracer.snapshot()
        assert len(spans) == 1
        assert spans[0]["name"] == "work"
        assert spans[0]["wall_s"] >= 0.0
        assert spans[0]["cpu_s"] >= 0.0
        assert spans[0]["depth"] == 0
        assert spans[0]["parent_id"] is None

    def test_nesting_links_parent_and_depth(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.snapshot()  # completion order
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent_id"] == outer["span_id"]
        assert outer["depth"] == 0

    def test_attrs_travel_into_the_record(self, tracer):
        with tracer.span("work", method="direct", n=3):
            pass
        (span,) = tracer.snapshot()
        assert span["attrs"] == {"method": "direct", "n": 3}

    def test_mid_span_attribute_attachment(self, tracer):
        with tracer.span("work") as rec:
            rec.attrs["found"] = 7
        (span,) = tracer.snapshot()
        assert span["attrs"]["found"] == 7

    def test_span_survives_exceptions(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.snapshot()) == 1
        # the stack unwound: a following span is a root again
        with tracer.span("after"):
            pass
        assert tracer.snapshot()[-1]["depth"] == 0

    def test_reset_drops_spans_and_ids(self, tracer):
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.snapshot() == []
        with tracer.span("b"):
            pass
        assert tracer.snapshot()[0]["span_id"] == 0
