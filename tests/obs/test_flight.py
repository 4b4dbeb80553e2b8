"""Tests for the flight recorder (repro.obs.flight).

The recorder is the always-on black box: a fixed-capacity ring whose
contents ride on structured errors.  The properties pinned here are the
ones a post-mortem depends on: the ring never exceeds its capacity,
eviction is strictly FIFO (the dump holds exactly the *last* N events),
the dropped count balances the books, and the cross-process merge is
deterministic in worker tagging and event order.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.export import validate_document
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FLIGHT,
    FLIGHT_SCHEMA,
    FlightRecorder,
    attach_flight,
    validate_flight,
)

from tests.properties.support import given_seed, rng_for


@pytest.fixture()
def rec() -> FlightRecorder:
    return FlightRecorder(capacity=8)


class TestRingBound:
    def test_append_under_capacity(self, rec):
        for i in range(5):
            rec.note("test", f"ev{i}")
        assert len(rec) == 5
        assert rec.dropped == 0

    def test_ring_never_exceeds_capacity(self, rec):
        for i in range(50):
            rec.note("test", f"ev{i}")
        assert len(rec) == rec.capacity
        assert rec.dropped == 50 - rec.capacity

    def test_eviction_is_fifo_last_n_retained(self, rec):
        for i in range(20):
            rec.note("test", f"ev{i}")
        names = [ev["name"] for ev in rec.snapshot()["events"]]
        assert names == [f"ev{i}" for i in range(12, 20)]

    def test_seq_monotonic_across_eviction(self, rec):
        for i in range(30):
            rec.note("test", f"ev{i}")
        seqs = [ev["seq"] for ev in rec.snapshot()["events"]]
        assert seqs == list(range(22, 30))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    @given_seed(max_examples=25)
    def test_property_bound_and_retention(self, seed):
        """For any event count and capacity: len == min(n, cap), dropped
        == max(0, n - cap), and the ring holds exactly the last events."""
        rng = rng_for(seed)
        capacity = int(rng.integers(1, 40))
        n = int(rng.integers(0, 120))
        r = FlightRecorder(capacity=capacity)
        for i in range(n):
            r.note("test", f"ev{i}")
        assert len(r) == min(n, capacity)
        assert r.dropped == max(0, n - capacity)
        dump = r.snapshot()
        validate_flight(dump)
        names = [ev["name"] for ev in dump["events"]]
        first = max(0, n - capacity)
        assert names == [f"ev{i}" for i in range(first, n)]


class TestDisabled:
    def test_disabled_recorder_records_nothing(self, rec):
        rec.enabled = False
        rec.note("test", "ev")
        rec.span_edge(type("R", (), {"name": "s", "wall_s": 0.0,
                                     "depth": 0})())
        assert len(rec) == 0

    def test_default_is_enabled(self):
        # the recorder is the component that stays on when obs is off
        assert FlightRecorder().enabled is True
        assert FlightRecorder().capacity == DEFAULT_CAPACITY


class TestSnapshotSchema:
    def test_snapshot_validates(self, rec):
        rec.note("test", "ev", worker=2, x=1)
        dump = rec.snapshot()
        assert dump["schema"] == FLIGHT_SCHEMA
        validate_flight(dump)
        validate_document(dump)

    def test_reset_restarts_numbering(self, rec):
        for i in range(20):
            rec.note("test", f"ev{i}")
        rec.reset()
        assert len(rec) == 0
        assert rec.dropped == 0
        rec.note("test", "fresh")
        assert rec.snapshot()["events"][0]["seq"] == 0


class TestMerge:
    def test_merge_tags_and_resequences(self, rec):
        child = FlightRecorder(capacity=8)
        child.note("task", "begin")
        child.note("task", "end")
        rec.note("parent", "before")
        assert rec.merge(child.snapshot(), worker=3) == 2
        events = rec.snapshot()["events"]
        assert [ev["name"] for ev in events] == ["before", "begin", "end"]
        assert [ev.get("worker") for ev in events] == [None, 3, 3]
        assert [ev["seq"] for ev in events] == [0, 1, 2]

    def test_merge_preserves_existing_worker_tags(self, rec):
        child = FlightRecorder(capacity=8)
        child.note("task", "inner", worker=9)
        rec.merge(child.snapshot(), worker=1)
        (ev,) = rec.snapshot()["events"]
        assert ev["worker"] == 9

    def test_merge_accumulates_dropped(self, rec):
        child = FlightRecorder(capacity=2)
        for i in range(5):
            child.note("t", f"e{i}")
        rec.merge(child.snapshot(), worker=0)
        assert rec.dropped == 3

    def test_merge_none_and_empty_are_noops(self, rec):
        assert rec.merge(None) == 0
        assert rec.merge({"schema": FLIGHT_SCHEMA, "capacity": 4,
                          "dropped": 0, "events": []}) == 0
        assert len(rec) == 0


class TestAttach:
    def test_attach_flight_sets_dump(self):
        FLIGHT.reset()
        FLIGHT.note("test", "before_failure")
        exc = attach_flight(RuntimeError("boom"))
        validate_flight(exc.flight)
        assert any(ev["name"] == "before_failure"
                   for ev in exc.flight["events"])

    def test_deepest_attach_wins(self):
        FLIGHT.reset()
        exc = RuntimeError("boom")
        exc.flight = {"schema": FLIGHT_SCHEMA, "capacity": 1,
                      "dropped": 0, "events": []}
        deep = exc.flight
        attach_flight(exc)
        assert exc.flight is deep


class TestSpanEdgeHook:
    def test_completed_spans_land_in_the_ring(self):
        """obs.__init__ installs TRACER.edge_hook = FLIGHT.span_edge."""
        from repro.obs.trace import TRACER

        assert TRACER.edge_hook == FLIGHT.span_edge
        FLIGHT.reset()
        with obs.collect(trace=True):
            with TRACER.span("unit.work"):
                pass
        spans = [ev for ev in FLIGHT.snapshot()["events"]
                 if ev["kind"] == "span"]
        assert any(ev["name"] == "unit.work" for ev in spans)


class TestValidateRejects:
    def _base(self):
        return {"schema": FLIGHT_SCHEMA, "capacity": 4, "dropped": 0,
                "events": [{"seq": 0, "t_s": 0.0, "kind": "t", "name": "a"}]}

    def test_wrong_schema(self):
        doc = self._base()
        doc["schema"] = "repro.obs/2"
        with pytest.raises(ValueError, match="schema"):
            validate_flight(doc)

    def test_overfull_ring(self):
        doc = self._base()
        doc["events"] = [
            {"seq": i, "t_s": 0.0, "kind": "t", "name": "a"}
            for i in range(5)]
        with pytest.raises(ValueError, match="capacity"):
            validate_flight(doc)

    def test_non_monotonic_seq(self):
        doc = self._base()
        doc["events"].append(
            {"seq": 0, "t_s": 0.0, "kind": "t", "name": "b"})
        with pytest.raises(ValueError, match="increasing"):
            validate_flight(doc)

    def test_missing_field(self):
        doc = self._base()
        del doc["events"][0]["kind"]
        with pytest.raises(ValueError, match="kind"):
            validate_flight(doc)


    @pytest.mark.parametrize("t_s", ["soon", None])
    def test_non_numeric_time(self, t_s):
        doc = self._base()
        doc["events"][0]["t_s"] = t_s
        with pytest.raises(ValueError, match="t_s"):
            validate_flight(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="flight dump"):
            validate_flight(3)


class _SquareSolver:
    """Picklable stand-in for a fragment solver (module level on purpose)."""

    name = "square"

    def solve(self, problem, mu=0.0):
        return problem * problem


class TestCrossProcessMerge:
    """Worker rings ship back on the obs-directive path; the merged
    parent ring must be deterministic in worker tags and event counts
    at any worker count."""

    WORKER_COUNTS = (1, 2, 4)

    @staticmethod
    def _run(workers: int):
        from repro.parallel.threelevel import ThreeLevelEngine

        FLIGHT.reset()
        with obs.collect():
            with ThreeLevelEngine(executor="process",
                                  max_workers=workers) as engine:
                squares = engine.run_fragments(list(range(6)),
                                               _SquareSolver())
        dump = FLIGHT.snapshot()
        validate_flight(dump)
        return squares, dump

    @staticmethod
    def _task_events(dump: dict):
        return [(ev["kind"], ev["name"], ev.get("worker"))
                for ev in dump["events"] if ev["kind"] == "task"]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_merged_ring_is_deterministic(self, workers):
        e1, d1 = self._run(workers)
        e2, d2 = self._run(workers)
        assert e1 == e2
        assert self._task_events(d1) == self._task_events(d2)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_every_chunk_ships_begin_and_end(self, workers):
        _, dump = self._run(workers)
        tasks = self._task_events(dump)
        begins = [t for t in tasks if t[1] == "begin"]
        ends = [t for t in tasks if t[1] == "end"]
        assert len(begins) >= 1
        assert len(begins) == len(ends)
        # worker slots are deterministic chunk indices, all tagged
        assert all(t[2] is not None for t in tasks)
        # the parent's own dispatch event is present too
        kinds = {ev["kind"] for ev in dump["events"]}
        assert "dispatch" in kinds
