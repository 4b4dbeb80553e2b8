"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ValidationError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def reg() -> MetricsRegistry:
    r = MetricsRegistry()
    r.enable()
    return r


class TestDisabledDefault:
    def test_fresh_registry_is_disabled(self):
        assert MetricsRegistry().enabled is False

    def test_disabled_instruments_record_nothing(self):
        r = MetricsRegistry()
        c = r.counter("c")
        g = r.gauge("g")
        c.inc()
        g.set_max(3.0)
        assert r.snapshot() == {}

    def test_disabled_counter_skips_validation(self):
        # the disabled path must return before any checks (hot-path cost)
        MetricsRegistry().counter("c").inc(-5)


class TestCounter:
    def test_increments_accumulate(self, reg):
        c = reg.counter("svd")
        c.inc()
        c.inc(3)
        assert reg.value("svd") == 4

    def test_labels_are_independent_slots(self, reg):
        c = reg.counter("cache")
        c.inc(outcome="hit")
        c.inc(outcome="hit")
        c.inc(outcome="miss")
        assert reg.value("cache", outcome="hit") == 2
        assert reg.value("cache", outcome="miss") == 1
        assert reg.value("cache") == 0  # label-less slot untouched

    def test_label_order_is_canonical(self, reg):
        c = reg.counter("c")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert reg.value("c", b=2, a=1) == 2

    def test_negative_increment_rejected(self, reg):
        with pytest.raises(ValidationError):
            reg.counter("c").inc(-1)

    def test_thread_safe_increments(self, reg):
        c = reg.counter("c")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("c") == 4000


class TestGauge:
    def test_set_max_keeps_maximum(self, reg):
        g = reg.gauge("bond")
        g.set_max(4)
        g.set_max(2)
        g.set_max(7)
        assert reg.value("bond") == 7


class TestRegistry:
    def test_same_name_returns_same_instrument(self, reg):
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self, reg):
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")

    def test_unknown_metric_read_rejected(self, reg):
        with pytest.raises(ValidationError):
            reg.value("nope")

    def test_reset_zeroes_values_keeps_registrations(self, reg):
        c = reg.counter("c")
        c.inc(5)
        reg.reset()
        assert reg.value("c") == 0
        c.inc()
        assert reg.value("c") == 1

    def test_snapshot_skips_empty_instruments(self, reg):
        reg.counter("untouched")
        reg.counter("touched").inc()
        snap = reg.snapshot()
        assert set(snap) == {"touched"}
        assert snap["touched"]["values"] == [{"labels": {}, "value": 1}]


class TestCollect:
    def test_collect_scopes_and_restores(self):
        from repro import obs

        was = obs.enabled()
        with obs.collect() as reg:
            assert obs.enabled()
            assert reg is obs.REGISTRY
        assert obs.enabled() == was

    def test_global_registry_records_library_events(self):
        from repro import obs
        from repro.simulators.pauli_kernels import CompiledObservable
        from repro.operators.pauli import QubitOperator, PauliTerm

        op = QubitOperator({PauliTerm.from_ops([(0, "Z")]): 1.0})
        with obs.collect() as reg:
            CompiledObservable(op, 1)
            assert reg.value("pauli.compiles") == 1
