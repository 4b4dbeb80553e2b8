"""Property tests for the content-addressed store.

Seeded either through hypothesis or the fixed-seed fallback (same
machinery as ``tests/properties``): key identity/perturbation, the byte
bound under random insert streams, LRU eviction order, and the producers
(compiled observables, sweep plans) driven through an installed store.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.common import cache as cache_mod
from repro.common.cache import ENTRY_OVERHEAD, TERM_BYTES, ServeCache, sizeof
from repro.common.errors import ValidationError

from ..properties.support import given_seed, random_statevector, rng_for


class TestKeyIdentity:
    @given_seed()
    def test_equal_content_hits_perturbed_content_misses(self, seed):
        rng = rng_for(seed)
        cache = ServeCache(max_bytes=1 << 20)
        key = (int(rng.integers(0, 1000)),
               tuple(int(v) for v in rng.integers(0, 4, size=5)),
               float(rng.standard_normal()))
        cache.insert("ns", key, "payload")
        # an equal-by-value reconstruction of the key hits
        clone = (key[0], tuple(key[1]), key[2])
        value, found = cache.lookup("ns", clone)
        assert found and value == "payload"
        # perturbing any component misses
        perturbed = [
            (key[0] + 1, key[1], key[2]),
            (key[0], key[1] + (9,), key[2]),
            (key[0], key[1], key[2] + 1.0),
        ]
        for bad in perturbed:
            _, found = cache.lookup("ns", bad)
            assert not found
        # same key under another namespace is a distinct entry
        _, found = cache.lookup("other", key)
        assert not found

    def test_namespaces_do_not_collide(self):
        cache = ServeCache(max_bytes=1 << 20)
        cache.insert("a", "k", 1)
        cache.insert("b", "k", 2)
        assert cache.lookup("a", "k")[0] == 1
        assert cache.lookup("b", "k")[0] == 2
        assert len(cache) == 2


class TestByteBound:
    @given_seed()
    def test_byte_budget_is_never_exceeded(self, seed):
        rng = rng_for(seed)
        budget = 64 << 10
        cache = ServeCache(max_bytes=budget)
        inserted = 0
        for i in range(60):
            arr = np.ones(int(rng.integers(1, 2000)))
            inserted += cache.insert("arrays", i, arr)
            assert cache.nbytes <= budget
        stats = cache.stats()
        evicted = stats["totals"]["evictions"]
        assert len(cache) == inserted - evicted
        assert stats["bytes"] == cache.nbytes

    @given_seed(max_examples=15)
    def test_lru_evicts_oldest_unused_first(self, seed):
        rng = rng_for(seed)
        # each entry costs ~8k + overhead; budget fits 4 comfortably
        entry = np.ones(1024)
        per = sizeof(entry) + ENTRY_OVERHEAD
        cache = ServeCache(max_bytes=4 * per + per // 2)
        for i in range(4):
            cache.insert("ns", i, np.ones(1024))
        protect = int(rng.integers(0, 4))
        cache.lookup("ns", protect)  # touch: most recently used now
        cache.insert("ns", 99, np.ones(1024))  # forces one eviction
        survivors = {key for _, key in cache.keys()}
        assert protect in survivors
        assert 99 in survivors
        expected_victim = min(i for i in range(4) if i != protect)
        assert expected_victim not in survivors

    def test_oversize_entry_is_refused_not_cached(self):
        cache = ServeCache(max_bytes=1024)
        assert not cache.insert("ns", "big", np.ones(4096))
        assert len(cache) == 0
        # get_or_build still returns the built value
        value = cache.get_or_build("ns", "big2", lambda: np.ones(4096))
        assert value.shape == (4096,)
        assert len(cache) == 0

    def test_a_lookup_is_booked_once_in_the_producers_counter(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.enable()
        outcomes = reg.counter("demo.cache")
        cache = ServeCache()
        builds = []
        for _ in range(3):
            cache.get_or_build("ns", "k", lambda: builds.append(1) or 7,
                               outcomes)
        assert len(builds) == 1
        assert reg.value("demo.cache", outcome="miss") == 1
        assert reg.value("demo.cache", outcome="hit") == 2
        assert cache.stats()["namespaces"]["ns"] == {
            "hits": 2, "misses": 1, "evictions": 0}

    def test_the_store_itself_ticks_no_obs_instrument(self):
        from repro import obs

        with obs.collect() as reg:
            cache = ServeCache(max_bytes=2 * (1024 * 8 + 512))
            for i in range(4):
                cache.lookup("ns", i)
                cache.insert("ns", i, np.ones(1024))
            cache.clear()
            assert cache.stats()["totals"]["evictions"] > 0
            assert reg.snapshot() == {}

    def test_reinsert_replaces_and_rebalances_budget(self):
        cache = ServeCache(max_bytes=1 << 20)
        cache.insert("ns", "k", np.ones(1000))
        first = cache.nbytes
        cache.insert("ns", "k", np.ones(10))
        assert len(cache) == 1
        assert cache.nbytes < first

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            ServeCache(max_bytes=0)


class TestStats:
    @given_seed(max_examples=15)
    def test_tally_matches_the_lookup_stream(self, seed):
        rng = rng_for(seed)
        cache = ServeCache(max_bytes=1 << 20)
        hits = misses = 0
        for _ in range(100):
            key = int(rng.integers(0, 12))
            _, found = cache.lookup("ns", key)
            if found:
                hits += 1
            else:
                misses += 1
                cache.insert("ns", key, key)
        stats = cache.stats()
        assert stats["namespaces"]["ns"] == {
            "hits": hits, "misses": misses, "evictions": 0}
        assert stats["hit_rate"] == pytest.approx(hits / (hits + misses))

    def test_clear_drops_entries_keeps_lifetime_tally(self):
        cache = ServeCache(max_bytes=1 << 20)
        cache.insert("ns", "k", 42)
        cache.lookup("ns", "k")
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0
        assert cache.stats()["namespaces"]["ns"]["hits"] == 1


class TestSizeof:
    def test_numpy_payloads_counted_exactly(self):
        arr = np.zeros((16, 16), dtype=complex)
        assert sizeof(arr) >= arr.nbytes
        assert sizeof([arr, arr]) < 2 * arr.nbytes  # shared buffer, one count

    def test_containers_and_objects_walk(self):
        class Thing:
            def __init__(self):
                self.a = np.ones(100)
                self.b = {"x": [1, 2, 3]}

        assert sizeof(Thing()) > 800

    def test_compiled_artifacts_state_their_own_size(self):
        """Sweep plans, MPOs, dense observables and RDM programs are sized
        by their own ``__sizeof__`` - numpy payload plus TERM_BYTES per
        string held as a Python object - and are not walked."""
        from repro.simulators.mpo import MPO
        from repro.simulators.mps_measure import build_sweep_plan
        from repro.simulators.pauli_kernels import CompiledObservable
        from repro.vqe.rdm import build_rdm_program

        op = _random_operator(6, 40, seed=3)
        plan = build_sweep_plan(op, 6)
        mpo = MPO.from_qubit_operator(op, 6)
        program = build_rdm_program(3)
        payload = [
            (plan, plan.coeffs.nbytes + TERM_BYTES * plan.n_terms),
            (mpo, sum(w.nbytes for w in mpo.tensors)),
            (CompiledObservable(op, 6), 0),
            (program, program.table.data.nbytes
             + TERM_BYTES * len(program.terms)),
        ]
        for artifact, least in payload:
            own = artifact.__sizeof__()
            assert sizeof(artifact) == sys.getsizeof(artifact) >= own
            assert own >= least and own > 0


def _random_operator(n_qubits, n_terms, seed):
    from repro.operators.pauli import PauliTerm, QubitOperator

    rng = np.random.default_rng(seed)
    top = 1 << n_qubits
    return QubitOperator({
        PauliTerm(int(rng.integers(0, top)), int(rng.integers(0, top))):
            complex(rng.standard_normal())
        for _ in range(n_terms)
    })


@contextmanager
def _installed(store):
    previous = cache_mod.install(store)
    try:
        yield store
    finally:
        cache_mod.install(previous)


class TestInstalledStore:
    """The producers against a store made current with ``install``."""

    def test_compiled_observable_is_bitwise_equal_and_counted(self):
        from repro.simulators.pauli_kernels import (
            CompiledObservable,
            compile_observable,
        )

        op = _random_operator(2, 3, seed=4)
        psi = random_statevector(rng_for(5), 2)
        baseline = CompiledObservable(op, 2).expectation(psi)

        with _installed(ServeCache(max_bytes=1 << 20)) as store:
            first = compile_observable(op, 2)
            second = compile_observable(op, 2)
        assert second is first
        assert first.expectation(psi) == baseline
        tally = store.stats()["namespaces"]["pauli.observable"]
        assert tally == {"hits": 1, "misses": 1, "evictions": 0}

    def test_install_round_trip_restores_previous_store(self):
        before = cache_mod.current()
        store = ServeCache(max_bytes=1 << 20)
        assert cache_mod.install(store) is before
        assert cache_mod.current() is store
        assert cache_mod.install(before) is store
        assert cache_mod.current() is before

    def test_entry_over_budget_is_built_returned_not_stored(self):
        from repro.simulators.mps_measure import sweep_plan

        op = _random_operator(6, 12, seed=6)
        with _installed(ServeCache(max_bytes=512)) as store:
            first = sweep_plan(op, 6)
            second = sweep_plan(op, 6)
        assert first.term_keys == second.term_keys and first.term_keys
        assert second is not first
        assert len(store) == 0
        tally = store.stats()["namespaces"]["mps.sweep_plan"]
        assert tally == {"hits": 0, "misses": 2, "evictions": 0}

    def test_threaded_producers_match_serial_under_eviction(self):
        """8 threads, more distinct operators than a 64 KiB store holds:
        concurrent lookup/insert/evict must neither raise nor hand back
        an artifact of another operator."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.simulators.mps_measure import build_sweep_plan, sweep_plan
        from repro.simulators.pauli_kernels import (
            CompiledObservable,
            compile_observable,
        )

        n = 5
        ops = [_random_operator(n, 10, seed=100 + i) for i in range(40)]
        psi = random_statevector(rng_for(7), n)
        serial = [(CompiledObservable(op, n).expectation(psi),
                   build_sweep_plan(op, n)) for op in ops]

        def produce(i):
            plan = sweep_plan(ops[i], n)
            return (compile_observable(ops[i], n).expectation(psi),
                    plan.term_keys, plan.coeffs, plan.n_env_steps)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _installed(ServeCache(max_bytes=64 << 10)) as store, \
                    ThreadPoolExecutor(8) as pool:
                got = list(pool.map(produce, list(range(len(ops))) * 3))
        finally:
            sys.setswitchinterval(interval)
        assert store.stats()["totals"]["evictions"] > 0
        assert store.nbytes <= store.max_bytes
        for slot, (value, term_keys, coeffs, steps) in enumerate(got):
            ref_value, ref_plan = serial[slot % len(ops)]
            assert value == ref_value
            assert term_keys == ref_plan.term_keys
            assert np.array_equal(coeffs, ref_plan.coeffs)
            assert steps == ref_plan.n_env_steps
