"""Load tests: served results vs direct calls, pinned cache economics.

The service's three load-bearing contracts (docs/SERVING.md):

* **bitwise parity** - for every backend / optimizer /
  executor combo in the pinned matrix, the served result equals the
  direct :mod:`repro.q2chem` call exactly (``==`` on floats, not
  ``isclose``);
* **pinned cache economics** - a repeated-molecule workload's result /
  system hit totals are exact functions of its spec multiset, and the
  overall hit rate clears the 50% acceptance floor;
* **arrival-order independence** - shuffling the submission order (or
  the number of client threads) changes neither any result bit nor any
  cache hit total.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.export import validate_document
from repro.serve import JobService, JobSpec

from .harness import (
    direct_result,
    full_combo_workload,
    make_workload,
    run_concurrent,
)


@pytest.fixture(scope="module")
def combo_run():
    """The full combo matrix served once; (spec, record) pairs."""
    specs = full_combo_workload()
    with JobService(observe=True) as service:
        job_ids = [service.submit(spec) for spec in specs]
        service.wait(job_ids, timeout=600)
        records = [service.record(job_id) for job_id in job_ids]
        stats = service.stats()
    return specs, records, stats


class TestBitwiseParity:
    def test_all_jobs_succeed(self, combo_run):
        _, records, _ = combo_run
        failed = [(r.job_id, r.error_type, r.error)
                  for r in records if r.status != "done"]
        assert failed == []

    def test_served_equals_direct_bitwise(self, combo_run):
        """Every combo: served result == direct library call, bitwise."""
        specs, records, _ = combo_run
        for spec, record in zip(specs, records):
            expected = direct_result(spec)
            label = (spec.kind, spec.simulator, spec.optimizer)
            assert record.result == expected, label

    def test_per_request_metrics_are_valid_obs2(self, combo_run):
        _, records, _ = combo_run
        for record in records:
            assert record.metrics is not None
            validate_document(record.metrics)
            assert record.metrics["schema"] == "repro.obs/2"

    def test_every_job_metrics_count_its_own_work(self, combo_run):
        """Attribution: each record's doc counts exactly one serve job."""
        _, records, _ = combo_run

        def total(doc, name):
            inst = doc["metrics"].get(name)
            return 0 if inst is None else \
                sum(slot["value"] for slot in inst["values"])

        for record in records:
            assert total(record.metrics, "serve.jobs") == 1


class TestCacheEconomics:
    # the 12-job workload drawn by make_workload(seed=3) repeats specs;
    # totals below are exact functions of its multiset (see harness)
    N_JOBS = 12

    @pytest.fixture(scope="class")
    def served(self):
        specs = make_workload(seed=3, n_jobs=self.N_JOBS)
        with JobService(observe=False) as service:
            job_ids = run_concurrent(service, specs, n_threads=4)
            records = [service.record(job_id) for job_id in job_ids]
            stats = service.stats()
        return specs, records, stats

    def test_result_hits_pinned(self, served):
        specs, records, stats = served
        distinct = len({spec.spec_key() for spec in specs})
        expected_hits = self.N_JOBS - distinct
        assert stats["jobs"]["result_cache_hits"] == expected_hits
        assert sum(r.cache_hit for r in records) == expected_hits
        result_ns = stats["cache"]["namespaces"]["serve.result"]
        assert result_ns["hits"] == expected_hits
        assert result_ns["misses"] == distinct

    def test_system_hits_pinned(self, served):
        specs, _, stats = served
        distinct_specs = len({spec.spec_key() for spec in specs})
        distinct_systems = len({spec.system_key() for spec in specs})
        system_ns = stats["cache"]["namespaces"]["serve.system"]
        # one system lookup per result-cache miss
        assert system_ns["hits"] + system_ns["misses"] == distinct_specs
        assert system_ns["misses"] == distinct_systems

    def test_hit_rate_clears_acceptance_floor(self, served):
        """The repeated-molecule acceptance: overall hit rate >= 50%."""
        _, _, stats = served
        assert stats["cache"]["hit_rate"] >= 0.5

    def test_duplicates_reproduce_bitwise(self, served):
        specs, records, _ = served
        by_key: dict = {}
        for spec, record in zip(specs, records):
            by_key.setdefault(spec.spec_key(), []).append(record.result)
        assert any(len(group) > 1 for group in by_key.values())
        for group in by_key.values():
            for result in group[1:]:
                assert result == group[0]


class TestArrivalOrderIndependence:
    def _serve(self, specs, n_threads):
        with JobService(observe=False) as service:
            job_ids = run_concurrent(service, specs, n_threads=n_threads)
            results = [service.record(job_id).result for job_id in job_ids]
            stats = service.stats()
        return results, stats

    def test_shuffled_submission_is_bitwise_invariant(self):
        specs = make_workload(seed=11, n_jobs=10)
        results_a, stats_a = self._serve(specs, n_threads=1)
        order = np.random.default_rng(99).permutation(len(specs))
        shuffled = [specs[i] for i in order]
        results_b, stats_b = self._serve(shuffled, n_threads=3)
        # un-shuffle b back into a's spec order and compare bitwise
        restored = [None] * len(specs)
        for pos, i in enumerate(order):
            restored[i] = results_b[pos]
        assert restored == results_a

    def test_cache_totals_are_order_invariant(self):
        specs = make_workload(seed=11, n_jobs=10)
        _, stats_a = self._serve(specs, n_threads=1)
        order = np.random.default_rng(123).permutation(len(specs))
        _, stats_b = self._serve([specs[i] for i in order], n_threads=4)
        assert stats_a["cache"]["namespaces"] == stats_b["cache"]["namespaces"]
        assert stats_a["jobs"]["result_cache_hits"] == \
            stats_b["jobs"]["result_cache_hits"]
