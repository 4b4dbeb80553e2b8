"""Merge-order invariance of MetricsRegistry.merge (property tests).

The cross-process aggregation contract: folding worker snapshots into a
parent registry must give the same result for *every* merge order -
counters add, gauges (high-water marks) take the maximum; both commute.
Observations are integers so float non-associativity cannot mask an
ordering bug (the float caveat is documented in docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

from .support import given_seed, rng_for

METRIC_NAMES = ("mps.svd", "mps.gemm", "pauli.expectations")
LABEL_SETS = ({}, {"level": "pauli_groups"}, {"worker": "w"})


def _random_worker_registry(rng) -> MetricsRegistry:
    """A worker-like registry with random integer-valued instruments."""
    reg = MetricsRegistry()
    reg.enable()
    for name in METRIC_NAMES:
        if rng.random() < 0.2:
            continue  # workers need not touch every metric
        c = reg.counter(name, "events")
        for labels in LABEL_SETS:
            if rng.random() < 0.5:
                c.inc(int(rng.integers(1, 100)), **labels)
    g = reg.gauge("mps.max_bond_dimension", "bond")
    g.set_max(int(rng.integers(1, 64)))
    return reg


def _merged(snapshots: list[tuple[int, dict]]) -> dict:
    """Fold (worker, snapshot) pairs into a fresh parent; return snapshot."""
    parent = MetricsRegistry()
    for worker, snap in snapshots:
        parent.merge(snap, worker=worker)
    return parent.snapshot()


@given_seed()
def test_counter_totals_invariant_under_merge_order(seed):
    rng = rng_for(seed)
    workers = [(w, _random_worker_registry(rng).snapshot())
               for w in range(int(rng.integers(2, 6)))]
    forward = _merged(workers)
    shuffled = list(workers)
    rng.shuffle(shuffled)
    assert _merged(shuffled) == forward


def _bond_snapshot(*bonds: int) -> dict:
    """A worker snapshot whose ``mps.max_bond_dimension`` saw ``bonds``."""
    reg = MetricsRegistry()
    reg.enable()
    for bond in bonds:
        reg.gauge("mps.max_bond_dimension", "bond").set_max(bond)
    return reg.snapshot()


@pytest.mark.parametrize("parent_bond, workers, expect", [
    (None, [(0, 16), (1, 8)], 16),     # two slots: not the last worker's
    (None, [(0, 16), (0, 4)], 16),     # one slot, two tasks
    (32, [(0, 16), (1, 4)], 32),       # the parent's own mark stands
])
def test_gauge_merges_to_the_maximum_in_every_order(parent_bond, workers,
                                                    expect):
    for order in permutations(workers):
        parent = MetricsRegistry()
        parent.enable()
        if parent_bond is not None:
            parent.gauge("mps.max_bond_dimension", "bond").set_max(
                parent_bond)
        for worker, bond in order:
            parent.merge(_bond_snapshot(bond), worker=worker)
        assert parent.value("mps.max_bond_dimension") == expect, order


@given_seed(max_examples=15)
def test_gauge_maximum_invariant_under_merge_order(seed):
    rng = rng_for(seed)
    workers = [(w, _random_worker_registry(rng).snapshot())
               for w in range(int(rng.integers(2, 6)))]
    forward = _merged(workers)
    shuffled = list(workers)
    rng.shuffle(shuffled)
    assert _merged(shuffled) == forward
    expect = max(slot["value"] for _, snap in workers
                 for slot in snap["mps.max_bond_dimension"]["values"])
    assert forward["mps.max_bond_dimension"]["values"] == [
        {"labels": {}, "value": expect}]


def test_process_workers_ship_the_serial_high_water_mark(h4_ring):
    """The merged ``mps.max_bond_dimension`` of a 2-worker process run is
    the serial run's, even when the last worker slot held the smaller
    fragment (8 qubits on slot 0, 4 qubits on slot 1)."""
    from repro import obs
    from repro.common import cache
    from repro.dmet.dmet import DMET, atoms_per_fragment
    from repro.dmet.orthogonalize import lowdin_orthogonalize
    from repro.dmet.solvers import VQEFragmentSolver
    from repro.parallel.threelevel import ThreeLevelDriver

    system = lowdin_orthogonalize(h4_ring.scf)
    solver = VQEFragmentSolver(simulator="mps", max_iterations=6,
                               warm_start=False)
    problems = [DMET(system, atoms_per_fragment(system, n), solver).problems[0]
                for n in (2, 1)]
    cache.current().clear()
    with obs.collect() as reg:
        for p in problems:
            solver.solve(p, 0.0)
        inline = reg.value("mps.max_bond_dimension")
    cache.current().clear()
    with obs.collect() as reg:
        ThreeLevelDriver.run_fragments_local(problems, solver, 0.0,
                                             max_workers=2)
        shipped = reg.value("mps.max_bond_dimension")
    assert shipped == inline > 2


def test_merge_is_associative_with_incremental_parents():
    """Merging A then B equals merging a pre-merged (A+B) registry."""
    rng = rng_for(7)
    a = _random_worker_registry(rng)
    b = _random_worker_registry(rng)
    one_by_one = MetricsRegistry()
    one_by_one.merge(a, worker=0)
    one_by_one.merge(b, worker=0)
    pre = MetricsRegistry()
    pre.merge(a.snapshot())
    pre.merge(b.snapshot())
    pre_snap = pre.snapshot()
    staged = MetricsRegistry()
    staged.merge(pre_snap, worker=0)
    # same totals for every non-bookkeeping metric (obs.merges counts
    # snapshots folded, which legitimately differs between the routes)
    lhs = {k: v for k, v in one_by_one.snapshot().items()
           if not k.startswith("obs.")}
    rhs = {k: v for k, v in staged.snapshot().items()
           if not k.startswith("obs.")}
    assert lhs == rhs == {k: v for k, v in pre_snap.items()
                          if not k.startswith("obs.")}


def test_merge_rejects_kind_conflicts():
    from repro.common.errors import ValidationError

    worker = MetricsRegistry()
    worker.enable()
    worker.counter("x", "d").inc()
    parent = MetricsRegistry()
    parent.enable()
    parent.gauge("x", "d").set_max(1)
    with pytest.raises(ValidationError, match="gauge"):
        parent.merge(worker)


def test_tracer_merge_rebases_ids_and_tags_worker():
    worker = Tracer()
    worker.enable()
    with worker.span("outer"):
        with worker.span("inner"):
            pass
    snap = worker.snapshot()
    parent = Tracer()
    parent.enable()
    with parent.span("local"):
        pass
    parent.merge(snap, worker=3)
    parent.merge(snap, worker=5)
    spans = parent.snapshot()
    assert len(spans) == 5
    ids = [s["span_id"] for s in spans]
    assert len(set(ids)) == len(ids), "span ids collided after merge"
    merged = [s for s in spans if "attrs" in s and "worker" in s["attrs"]]
    assert sorted({s["attrs"]["worker"] for s in merged}) == [3, 5]
    for s in merged:
        if s["name"] == "inner":
            parent_span = next(p for p in spans
                               if p["span_id"] == s["parent_id"])
            assert parent_span["name"] == "outer"
            assert parent_span["attrs"]["worker"] == s["attrs"]["worker"]
