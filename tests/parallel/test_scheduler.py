"""Tests for load-balancing schedulers, incl. the hypothesis LPT bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.parallel.scheduler import (
    Task,
    load_imbalance,
    makespan,
    schedule_lpt,
    schedule_static,
)


def _tasks(costs):
    return [Task(i, c) for i, c in enumerate(costs)]


class TestTask:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            Task(0, -1.0)


class TestStatic:
    def test_blocks_contiguous(self):
        out = schedule_static(_tasks([1, 2, 3, 4]), 2)
        assert [t.task_id for t in out[0]] == [0, 1]
        assert [t.task_id for t in out[1]] == [2, 3]

    def test_empty(self):
        out = schedule_static([], 3)
        assert all(not w for w in out)

    def test_worker_validation(self):
        with pytest.raises(ValidationError):
            schedule_static(_tasks([1]), 0)


class TestLPT:
    def test_all_tasks_assigned(self):
        tasks = _tasks([5, 3, 3, 2, 2, 2])
        out = schedule_lpt(tasks, 3)
        ids = sorted(t.task_id for w in out for t in w)
        assert ids == list(range(6))

    def test_classic_example(self):
        # the textbook LPT example: [5,3,3,2,2,2] on 3 workers gives
        # makespan 7 while the optimum is 6 ({5},{3,3},{2,2,2}) - exactly
        # Graham's 7/6 worst case
        out = schedule_lpt(_tasks([5, 3, 3, 2, 2, 2]), 3)
        assert makespan(out) == pytest.approx(7.0)

    def test_beats_static_on_skewed(self):
        costs = [10, 1, 1, 1, 1, 1, 1, 1]
        lpt = schedule_lpt(_tasks(costs), 4)
        static = schedule_static(_tasks(costs), 4)
        assert makespan(lpt) <= makespan(static)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40),
           st.integers(1, 8))
    def test_greedy_makespan_bound(self, costs, m):
        """List-scheduling bound: makespan <= total/m + (1 - 1/m) max cost.

        (Graham's 4/3 bound is relative to OPT, which we cannot compute;
        this additive bound holds against computable quantities.)
        """
        tasks = _tasks(costs)
        out = schedule_lpt(tasks, m)
        bound = sum(costs) / m + (1.0 - 1.0 / m) * max(costs)
        assert makespan(out) <= bound + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=30),
           st.integers(1, 6))
    def test_lpt_within_graham_bound_of_static(self, costs, m):
        """LPT is near-optimal, so it can exceed a lucky static split by at
        most Graham's 4/3 factor (hypothesis found real cases where static
        block assignment happens to beat greedy LPT)."""
        tasks = _tasks(costs)
        lpt = makespan(schedule_lpt(tasks, m))
        static = makespan(schedule_static(tasks, m))
        assert lpt <= (4.0 / 3.0) * static + 1e-9


class TestDiagnostics:
    def test_makespan_empty(self):
        assert makespan([[], []]) == 0.0

    def test_load_imbalance_balanced(self):
        out = schedule_lpt(_tasks([1, 1, 1, 1]), 2)
        assert load_imbalance(out) == pytest.approx(0.0)

    def test_load_imbalance_skewed(self):
        out = [[Task(0, 3.0)], [Task(1, 1.0)]]
        assert load_imbalance(out) == pytest.approx(0.5)
