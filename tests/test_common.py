"""Tests for repro.common: errors, constants, rng, timing."""

import time

import numpy as np
import pytest

from repro.common import (
    ANGSTROM_TO_BOHR,
    BOHR_TO_ANGSTROM,
    HARTREE_TO_EV,
    ConvergenceError,
    ReproError,
    Timer,
    TruncationOverflowError,
    ValidationError,
    default_rng,
    timed,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ValidationError, ReproError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(ConvergenceError, RuntimeError)
        assert issubclass(TruncationOverflowError, ReproError)

    def test_convergence_error_payload(self):
        err = ConvergenceError("nope", iterations=5, residual=0.1)
        assert err.iterations == 5
        assert err.residual == 0.1

    def test_truncation_error_payload(self):
        err = TruncationOverflowError("over", accumulated_error=1e-3)
        assert err.accumulated_error == 1e-3


class TestConstants:
    def test_roundtrip(self):
        assert ANGSTROM_TO_BOHR * BOHR_TO_ANGSTROM == pytest.approx(1.0)

    def test_hartree_ev(self):
        assert HARTREE_TO_EV == pytest.approx(27.2114, abs=1e-3)


class TestRng:
    def test_deterministic_default(self):
        a = default_rng().standard_normal(5)
        b = default_rng().standard_normal(5)
        assert np.allclose(a, b)

    def test_seeded(self):
        a = default_rng(1).standard_normal(5)
        b = default_rng(2).standard_normal(5)
        assert not np.allclose(a, b)

    def test_passthrough(self):
        g = default_rng(3)
        assert default_rng(g) is g


class TestTimer:
    def test_sections_accumulate(self):
        t = Timer()
        with t.section("a"):
            pass
        with t.section("a"):
            pass
        assert t.count("a") == 2
        assert t.total("a") >= 0.0
        assert t.total("missing") == 0.0

    def test_report_sorted(self):
        t = Timer()
        with t.section("x"):
            time.sleep(0.002)
        with t.section("y"):
            pass
        assert "x" in t.report()

    def test_reset(self):
        t = Timer()
        with t.section("a"):
            pass
        t.reset()
        assert t.count("a") == 0

    def test_nested_reuse_counts_outer_interval_once(self):
        # re-entering a running section (recursive solver timing itself)
        # must not double-count the inner stretch in the total
        t = Timer()
        with t.section("a"):
            with t.section("a"):
                time.sleep(0.02)
        assert t.count("a") == 2
        assert t.total("a") < 0.035  # ~0.02s counted once, not twice

    def test_nested_reuse_leaves_timer_reusable(self):
        t = Timer()
        with t.section("a"):
            with t.section("a"):
                pass
        before = t.total("a")
        with t.section("a"):
            time.sleep(0.005)
        assert t.count("a") == 3
        assert t.total("a") > before  # outermost entries still accumulate

    def test_nested_reuse_survives_exceptions(self):
        t = Timer()
        with pytest.raises(RuntimeError):
            with t.section("a"):
                with t.section("a"):
                    raise RuntimeError("x")
        # depth unwound: the next entry is outermost again and accumulates
        with t.section("a"):
            pass
        assert t.count("a") == 3
        assert t._depth["a"] == 0


def test_timed_returns_best_and_result():
    secs, result = timed(lambda: 42, repeat=3)
    assert result == 42
    assert secs >= 0.0
