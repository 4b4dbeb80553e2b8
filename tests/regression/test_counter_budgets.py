"""Counter-budget regression suite: exact algorithmic event counts.

Wall-clock benchmarks drift with hardware; the :mod:`repro.obs` counters
do not - they record *algorithmic* events (SVDs taken, GEMMs issued,
tasks dispatched), which are pure functions of the workload.  This suite
pins those counts for two reference workloads (H2 and LiH at theta = 0)
so a change that silently alters the work performed - an extra
canonicalization sweep, a broken cache, a lost batching - fails CI even
when every energy still comes out right.

Budgets were recorded from the current implementation; if an
*intentional* algorithmic change shifts them, update the tables here and
say why in the commit message.  (ISSUE 13 re-derived the MPS tables: UCCSD
factors reach the MPS as ``PR`` rotations - one SVD per bond of the
string's span, no routing - and the old staircase counts moved, unchanged,
to ``STAIRCASE_BUDGETS`` on the ``decomposed()`` stream.  ISSUE 17
re-derived them again: a Jordan-Wigner UCCSD circuit is one ``EX`` gate
per spin-orbital excitation, one sweep where its 2 or 8 rotations took
one each, so ``mps.pauli_rotation`` reads 0 and ``mps.excitation`` the
excitation count; the ``PR`` sweep keeps its pins in
``ROTATION_BUDGETS`` on the one-level-expanded stream.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.circuits.uccsd import UCCSDAnsatz
from repro.common import cache
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.parallel.executor import clear_worker_compiled_cache
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.gradients import n_parametric_gates

#: one MPS energy evaluation at theta = 0 (a single direct measurement
#: of the UCCSD reference state); keyed by (molecule, measurement mode).
#: Every UCCSD factor is one ``EX`` gate applied by
#: ``MPS.apply_excitation``: mps.svd is the summed span (hi - lo) of the
#: excitations - 2 + 2 + 3 bonds for H2's two singles and one double, 824
#: for LiH's 104 where their 736 Pauli rotations swept 6016 - and nothing
#: is routed.  A sweep issues three fused GEMMs per bond (stack, Hastings
#: restore, hand-over to the next site): kernels.gemm_calls is
#: 3 x mps.svd + mps.gate_1q on the sweep path (2476 for LiH, where the
#: rotations took 18052).
_H2_PREP = {
    "mps.excitation": 3,
    "mps.pauli_rotation": 0,
    "mps.gate_1q": 2,
    "mps.gate_2q": 0,
    "mps.svd": 7,
    "mps.swap": 0,
    "mps.routing_plan.requests": 0,
}
_LIH_PREP = {
    "mps.excitation": 104,
    "mps.pauli_rotation": 0,
    "mps.gate_1q": 4,
    "mps.gate_2q": 0,
    "mps.svd": 824,
    "mps.swap": 0,
    "mps.routing_plan.requests": 0,
}
MPS_BUDGETS = {
    ("h2", "sweep"): {**_H2_PREP, "mps_measure.env_steps": 21,
                      "mps_measure.gemm_calls": 22},
    ("h2", "mpo"): {**_H2_PREP, "mps_measure.env_steps": 0,
                    "mps_measure.gemm_calls": 0},
    ("h2", "per_term"): {**_H2_PREP, "mps_measure.env_steps": 0,
                         "mps_measure.gemm_calls": 0},
    ("lih", "sweep"): {**_LIH_PREP, "mps_measure.env_steps": 1767,
                       "mps_measure.gemm_calls": 86,
                       "kernels.gemm_calls": 2476,
                       "kernels.svd_calls": 824},
    ("lih", "mpo"): {**_LIH_PREP, "mps_measure.env_steps": 0,
                     "mps_measure.gemm_calls": 0,
                     "kernels.gemm_calls": 2534,
                     "kernels.svd_calls": 857},
}

#: the same evaluation with every ``EX`` gate expanded one level, into its
#: ``PR`` rotations: what a UCCSD evaluation was before ``EX``, and what a
#: Bravyi-Kitaev or generalized ansatz still runs.  mps.svd is the summed
#: span of the strings - 4 x 2 + 8 x 3 bonds for H2.  The sweep is the one
#: ``EX`` runs, with two product operators where ``EX`` has five
ROTATION_BUDGETS = {
    "h2": {
        "mps.excitation": 0,
        "mps.pauli_rotation": 12,
        "mps.gate_2q": 0,
        "mps.svd": 32,
        "mps.swap": 0,
        "kernels.svd_calls": 32,
    },
    "lih": {
        "mps.excitation": 0,
        "mps.pauli_rotation": 736,
        "mps.gate_2q": 0,
        "mps.svd": 6016,
        "mps.swap": 0,
        "kernels.svd_calls": 6016,
    },
}

#: the same evaluation on the ``decomposed()`` gate stream - the CNOT
#: staircases through the fused two-site path, i.e. what every UCCSD
#: evaluation cost before ``PR``: these pin the two-site kernel and the
#: routed-gate count, which UCCSD circuits no longer reach
STAIRCASE_BUDGETS = {
    "h2": {
        "mps.excitation": 0,
        "mps.pauli_rotation": 0,
        "mps.gate_2q": 43,
        "mps.svd": 43,
        "mps.swap": 0,
        "mps.routing_plan.requests": 43,
        "kernels.gemm_calls": 129,
        "kernels.svd_calls": 43,
    },
    "lih": {
        "mps.excitation": 0,
        "mps.pauli_rotation": 0,
        "mps.gate_2q": 6769,
        "mps.svd": 14449,
        "mps.swap": 7680,
        "mps.routing_plan.requests": 6769,
    },
}


def _hamiltonian_and_ansatz(solved):
    # session-cached on the fixture (see tests/conftest.py)
    return solved.qubit_hamiltonian, solved.uccsd_circuit


def _clear_all_caches() -> None:
    """Pinning cache hit/miss counts needs cold caches every time."""
    cache.current().clear()


def _measured_energy(ham, ansatz, **evaluator_kwargs):
    """One theta = 0 energy with a scoped, cold-cache collection."""
    _clear_all_caches()
    with obs.collect() as reg:
        evaluator = EnergyEvaluator(ham, ansatz, **evaluator_kwargs)
        try:
            energy = evaluator.energy(np.zeros(ansatz.n_parameters))
        finally:
            evaluator.close()
        return energy, reg


class TestMPSBudgets:
    @pytest.mark.parametrize("mode", ["sweep", "mpo", "per_term"])
    def test_h2(self, h2, mode):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        energy, reg = _measured_energy(ham, ansatz, simulator="mps",
                                       measurement=mode)
        budget = MPS_BUDGETS[("h2", mode)]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("mps_measure.evaluations", path=mode) == 1
        # theta = 0 prepares the reference determinant
        assert abs(energy - h2.scf.energy) <= 1e-10

    @pytest.mark.parametrize("mode", ["sweep", "mpo"])
    def test_lih(self, lih, mode):
        ham, ansatz = _hamiltonian_and_ansatz(lih)
        energy, reg = _measured_energy(ham, ansatz, simulator="mps",
                                       measurement=mode)
        budget = MPS_BUDGETS[("lih", mode)]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("mps_measure.evaluations", path=mode) == 1
        assert abs(energy - lih.scf.energy) <= 1e-10

    @pytest.mark.parametrize("molecule", ["h2", "lih"])
    def test_decomposed_stream_keeps_the_staircase_budget(self, request,
                                                          molecule):
        ham, ansatz = _hamiltonian_and_ansatz(
            request.getfixturevalue(molecule))
        _, reg = _measured_energy(ham, ansatz.decomposed(),
                                  simulator="mps", measurement="sweep")
        budget = STAIRCASE_BUDGETS[molecule]
        assert {name: reg.value(name) for name in budget} == budget

    @pytest.mark.parametrize("molecule", ["h2", "lih"])
    def test_rotation_stream_keeps_the_rotation_budget(self, request,
                                                       molecule):
        from repro.circuits.circuit import Circuit

        ham, ansatz = _hamiltonian_and_ansatz(
            request.getfixturevalue(molecule))
        rotations = Circuit(ansatz.n_qubits,
                            [p for g in ansatz for p in g.decompose()],
                            n_parameters=ansatz.n_parameters)
        assert set(rotations.count_gates()) == {"X", "PR"}
        _, reg = _measured_energy(ham, rotations, simulator="mps",
                                  measurement="sweep")
        budget = ROTATION_BUDGETS[molecule]
        assert {name: reg.value(name) for name in budget} == budget

    def test_budgets_identical_across_measurement_modes(self, h2):
        """State-preparation work must not depend on how we measure."""
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        prep = ("mps.excitation", "mps.pauli_rotation", "mps.gate_2q",
                "mps.svd", "mps.swap")
        seen = []
        for mode in ("sweep", "mpo", "per_term"):
            _, reg = _measured_energy(ham, ansatz, simulator="mps",
                                      measurement=mode)
            seen.append({name: reg.value(name) for name in prep})
        assert seen[0] == seen[1] == seen[2]


class TestRepeatedRDMMeasurement:
    """Measurement parts are built in the first pass and "kept constant
    afterwards" (paper Sec. III-D): the 146 operators of one 4-orbital
    RDM measurement are compiled once and every later pass on the same
    register hits, whatever the working set's size."""

    N_OPERATORS = 146   # 10 E_pq (p <= q) + 136 E_pq E_rs pairs

    @staticmethod
    def _outcomes(reg, name):
        slots = reg.snapshot().get(name, {}).get("values", ())
        return {slot["labels"]["outcome"]: slot["value"] for slot in slots}

    @pytest.mark.parametrize("backend,counter", [
        ("statevector", "pauli.compile_cache"),
        ("mps", "mps_measure.plan_cache"),
    ])
    def test_second_pass_only_hits(self, backend, counter):
        from repro.backends import resolve_backend
        from repro.circuits.hea import random_brick_circuit
        from repro.vqe.rdm import excitation_qubit_operators, measure_rdms

        e_ops = excitation_qubit_operators(4)
        sim = resolve_backend(backend, 8)
        sim.run(random_brick_circuit(8, 3, seed=7))
        _clear_all_caches()
        with obs.collect() as reg:
            first = measure_rdms(sim, 4, e_ops)
            cold = self._outcomes(reg, counter)
        with obs.collect() as reg:
            second = measure_rdms(sim, 4, e_ops)
            warm = self._outcomes(reg, counter)
            mpo = self._outcomes(reg, "mps_measure.mpo_cache")
        assert cold == {"miss": self.N_OPERATORS}
        assert warm == {"hit": self.N_OPERATORS}
        assert mpo.get("miss", 0) == 0
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


#: fused-kernel call totals for one cold-cache H2 theta = 0 evaluation;
#: keyed by measurement mode.  These count *executed* kernels, so they
#: are independent of the module-global plan-LRU warmth (unlike the
#: hit/miss split, which depends on what earlier tests left cached).
KERNEL_BUDGETS = {
    "sweep": {"kernels.gemm_calls": 23, "kernels.svd_calls": 7},
    "mpo": {"kernels.gemm_calls": 41, "kernels.svd_calls": 16},
    "per_term": {"kernels.gemm_calls": 127, "kernels.svd_calls": 7},
}


class TestKernelCounterBudgets:
    """The PR 8 satellite: `KernelBackend.stats()` bridged into labelled
    obs counters.  GEMM/SVD call totals are pure functions of the
    workload; every GEMM is preceded by exactly one plan-cache lookup."""

    @pytest.mark.parametrize("mode", ["sweep", "mpo", "per_term"])
    def test_h2_kernel_calls_pinned(self, h2, mode):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        _, reg = _measured_energy(ham, ansatz, simulator="mps",
                                  measurement=mode)
        budget = KERNEL_BUDGETS[mode]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        lookups = sum(
            slot["value"]
            for slot in reg.snapshot()["kernels.plan_cache"]["values"]
            if slot["labels"]["outcome"] in ("hit", "miss"))
        assert lookups == budget["kernels.gemm_calls"]

    def test_kernel_counters_merge_across_processes(self, h2):
        """Worker-side kernel counters ship home through the obs merge:
        process totals equal the serial-executor totals exactly."""
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        names = ("kernels.gemm_calls", "kernels.svd_calls")
        _, reg = _measured_energy(ham, ansatz, simulator="mps",
                                  measurement="sweep",
                                  parallel="serial", n_workers=1)
        base = {name: reg.value(name) for name in names}
        assert base["kernels.gemm_calls"] > 0
        _, reg_p = _measured_energy(ham, ansatz, simulator="mps",
                                    measurement="sweep",
                                    parallel="process", n_workers=2)
        assert {name: reg_p.value(name) for name in names} == base


class TestParallelBudgets:
    """Level-2 task counts are worker-count independent by construction."""

    #: H2's Hamiltonian partitions into 8 Pauli groups (DEFAULT_PAULI_GROUPS)
    H2_GROUPS = 8

    def _run(self, h2, executor, workers):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        return _measured_energy(ham, ansatz, simulator="statevector",
                                parallel=executor, n_workers=workers)

    @pytest.mark.parametrize("executor,workers",
                             [("serial", 1), ("thread", 1), ("thread", 2)])
    def test_task_counts_pinned(self, h2, executor, workers):
        _, reg = self._run(h2, executor, workers)
        assert reg.value("parallel.tasks",
                         level="pauli_groups") == self.H2_GROUPS
        assert reg.value("parallel.dispatches", level="pauli_groups") == 1
        assert reg.value("pauli.expectations") == self.H2_GROUPS
        assert reg.value("pauli.compiles") == self.H2_GROUPS

    def test_unparallelised_evaluation_is_one_compiled_expectation(self, h2):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        energy, reg = _measured_energy(ham, ansatz, simulator="statevector")
        assert reg.value("pauli.compiles") == 1
        assert reg.value("pauli.expectations") == 1
        assert reg.value("vqe.ansatz_runs") == 1
        assert abs(energy - h2.scf.energy) <= 1e-10

    def test_counts_and_energy_identical_across_worker_counts(self, h2):
        runs = {w: self._run(h2, "thread", w) for w in (1, 2)}
        (e1, r1), (e2, r2) = runs[1], runs[2]
        # bitwise: the partition and reduction are worker-independent
        assert e1 == e2
        for name in ("parallel.tasks", "pauli.expectations",
                     "pauli.compiles"):
            lbl = ({"level": "pauli_groups"}
                   if name == "parallel.tasks" else {})
            assert r1.value(name, **lbl) == r2.value(name, **lbl)

    def test_worker_task_split_covers_all_groups(self, h2):
        _, r1 = self._run(h2, "thread", 1)
        assert r1.value("parallel.worker_tasks", level="pauli_groups",
                        worker=0) == self.H2_GROUPS
        _, r2 = self._run(h2, "thread", 2)
        w0 = r2.value("parallel.worker_tasks",
                      level="pauli_groups", worker=0)
        w1 = r2.value("parallel.worker_tasks",
                      level="pauli_groups", worker=1)
        assert w0 == w1 == self.H2_GROUPS // 2


class TestProcessParity:
    """Cross-process aggregation: process counters == serial, exactly.

    Workers snapshot their local registry per task and the parent merges
    the deltas, so ``result.metrics`` totals are identical for serial /
    thread / process executors at any worker count - the telemetry
    extension of the PR 2 bitwise-determinism guarantee.
    """

    #: counters whose totals are pure functions of a single cold-cache
    #: evaluation (each Pauli group is compiled exactly once, in exactly
    #: one worker's chunk)
    SINGLE_EVAL_COUNTERS = ("pauli.expectations", "pauli.compiles",
                            "parallel.tasks", "parallel.dispatches",
                            "vqe.ansatz_runs", "vqe.energy_evaluations")

    @staticmethod
    def _totals(reg, names):
        snap = reg.snapshot()
        return {
            name: sum(slot["value"]
                      for slot in snap.get(name, {}).get("values", ()))
            for name in names
        }

    def test_single_eval_counters_match_serial_at_1_2_4_workers(self, h2):
        e_serial, reg = self._run(h2, "serial", 1)
        base = self._totals(reg, self.SINGLE_EVAL_COUNTERS)
        assert base["pauli.expectations"] == TestParallelBudgets.H2_GROUPS
        for workers in (1, 2, 4):
            energy, reg = self._run(h2, "process", workers)
            assert energy == e_serial
            assert self._totals(reg, self.SINGLE_EVAL_COUNTERS) == base

    def test_per_worker_labels_present_after_merge(self, h2):
        _, reg = self._run(h2, "process", 2)
        snap = reg.snapshot()
        merges = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in snap["obs.merges"]["values"]}
        assert merges == {(("worker", 0),): 1, (("worker", 1),): 1}
        for worker in (0, 1):
            assert reg.value("parallel.worker_tasks", level="pauli_groups",
                             worker=worker) \
                == TestParallelBudgets.H2_GROUPS // 2
        events = self._totals(reg, ("obs.merged_events",))
        assert events["obs.merged_events"] > 0
        # the dense state crosses once and every worker attaches to it
        transport = self._totals(
            reg, ("transport.exports", "transport.attaches"))
        assert transport == {"transport.exports": 1,
                             "transport.attaches": 2}

    def test_full_vqe_run_counters_match_serial(self, h2):
        """A multi-iteration optimize loop keeps parity on the counters
        that are deterministic across pool-task scheduling (compile
        counts can shift between live workers of a reused pool; the
        *work* counters cannot)."""
        from repro.vqe.vqe import VQE

        ham = molecular_qubit_hamiltonian(h2.mo)
        ansatz = UCCSDAnsatz(h2.mo.n_orbitals, h2.mo.n_electrons)
        names = ("pauli.expectations", "parallel.tasks",
                 "vqe.ansatz_runs", "vqe.energy_evaluations",
                 "vqe.iterations")
        runs = {}
        for parallel, workers in (("serial", 1), ("process", 2)):
            _clear_all_caches()
            with obs.collect() as reg:
                with VQE(ham, ansatz, simulator="statevector",
                         parallel=parallel, n_workers=workers,
                         max_iterations=5) as vqe:
                    res = vqe.run()
                runs[parallel] = (res.energy, self._totals(reg, names))
        (e_serial, c_serial), (e_proc, c_proc) = \
            runs["serial"], runs["process"]
        assert e_proc == e_serial
        assert c_proc == c_serial

    def _run(self, h2, executor, workers):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        return _measured_energy(ham, ansatz, simulator="statevector",
                                parallel=executor, n_workers=workers)


class TestMPSProcessParity:
    """MPS measurement through the state-transport layer: the sharded
    sweep/MPO path must reproduce the serial executor bitwise, with
    exact counter parity, at any process worker count.

    Counter-parity reasoning: caches are cleared before each run and the
    process pool forks afterwards, so every group's sweep plan (or
    compressed MPO) is built exactly once, in exactly one worker.
    """

    #: totals that are pure functions of one cold-cache MPS evaluation,
    #: independent of executor kind and worker count
    MPS_EVAL_COUNTERS = (
        "mps.excitation", "mps.pauli_rotation", "mps.gate_2q", "mps.svd",
        "mps.swap",
        "mps.routing_plan.requests",
        "mps_measure.evaluations", "mps_measure.env_steps",
        "mps_measure.gemm_calls", "mps_measure.plan_cache",
        "mps_measure.mpo_cache",
        "parallel.tasks", "parallel.dispatches",
        "vqe.ansatz_runs", "vqe.energy_evaluations",
    )

    def _run(self, solved, mode, executor, workers):
        ham, ansatz = _hamiltonian_and_ansatz(solved)
        return _measured_energy(ham, ansatz, simulator="mps",
                                measurement=mode,
                                parallel=executor, n_workers=workers)

    @pytest.mark.parametrize("mode", ["sweep", "mpo"])
    def test_h2_energy_and_counters_match_serial(self, h2, mode):
        e_serial, reg = self._run(h2, mode, "serial", 1)
        base = TestProcessParity._totals(reg, self.MPS_EVAL_COUNTERS)
        e_thread, reg_t = self._run(h2, mode, "thread", 2)
        assert e_thread == e_serial
        assert TestProcessParity._totals(reg_t,
                                         self.MPS_EVAL_COUNTERS) == base
        for workers in (1, 2, 4):
            energy, reg_p = self._run(h2, mode, "process", workers)
            assert energy == e_serial
            assert TestProcessParity._totals(
                reg_p, self.MPS_EVAL_COUNTERS) == base

    def test_lih_sweep_acceptance(self, lih):
        """The ISSUE 6 acceptance pin: LiH MPS energy via the process
        executor is bitwise identical to serial at 1/2/4 workers, with
        exact obs counter parity."""
        e_serial, reg = self._run(lih, "sweep", "serial", 1)
        base = TestProcessParity._totals(reg, self.MPS_EVAL_COUNTERS)
        for workers in (1, 2, 4):
            energy, reg_p = self._run(lih, "sweep", "process", workers)
            assert energy == e_serial
            assert TestProcessParity._totals(
                reg_p, self.MPS_EVAL_COUNTERS) == base

    def test_transport_counters_present_on_process_path(self, h2):
        _, reg = self._run(h2, "sweep", "process", 2)
        totals = TestProcessParity._totals(
            reg, ("transport.exports", "transport.attaches"))
        assert totals["transport.exports"] == 1
        assert totals["transport.attaches"] == 2  # one per worker task


class TestWorkerObsLifecycle:
    """Regression tests for the fork-inherited stale obs state bug."""

    def test_directive_none_silences_inherited_enabled_state(self):
        """A worker forked while the parent was recording must go quiet
        (and drop the inherited values) when a later task ships no
        directive."""
        from repro.obs.metrics import REGISTRY
        from repro.obs.trace import TRACER
        from repro.parallel.executor import _worker_obs_begin

        REGISTRY.enable()
        REGISTRY.counter("stale.junk", "inherited").inc(99)
        try:
            _worker_obs_begin(None)
            assert not REGISTRY.enabled
            assert not TRACER.enabled
            assert REGISTRY.snapshot() == {}
        finally:
            REGISTRY.disable()
            REGISTRY.reset()

    def test_begin_resets_inherited_values_before_recording(self):
        from repro.obs.metrics import REGISTRY
        from repro.parallel.executor import (
            _worker_obs_begin,
            _worker_obs_finish,
        )

        REGISTRY.enable()
        REGISTRY.counter("stale.junk", "inherited").inc(99)
        try:
            _worker_obs_begin((0, False))
            assert REGISTRY.enabled
            assert REGISTRY.snapshot() == {}, \
                "fork-inherited values leaked into the task delta"
            REGISTRY.counter("fresh.event", "this task").inc()
            doc = _worker_obs_finish((0, False))
            assert list(doc["metrics"]) == ["fresh.event"]
            assert not REGISTRY.enabled
            assert REGISTRY.snapshot() == {}
        finally:
            clear_worker_compiled_cache()
            REGISTRY.disable()
            REGISTRY.reset()

    def test_clear_worker_compiled_cache_resets_worker_obs_state(self):
        from repro.obs.metrics import REGISTRY
        from repro.parallel import executor as exec_mod

        # parent side: the flag is unset, obs state must be untouched
        REGISTRY.enable()
        REGISTRY.counter("parent.value", "kept").inc(3)
        try:
            clear_worker_compiled_cache()
            assert REGISTRY.enabled
            assert REGISTRY.value("parent.value") == 3
            # worker side: the flag marks this process as a recorder;
            # clearing must disable and drop everything
            exec_mod._WORKER_OBS["active"] = True
            clear_worker_compiled_cache()
            assert not exec_mod._WORKER_OBS["active"]
            assert not REGISTRY.enabled
            assert REGISTRY.snapshot() == {}
        finally:
            exec_mod._WORKER_OBS["active"] = False
            REGISTRY.disable()
            REGISTRY.reset()


#: one adjoint gradient at theta = 0 on a fresh evaluator (forward sweep +
#: H|psi> + backward sweep, see repro.vqe.gradients); keyed by (molecule,
#: simulator).  All values are structural: gate_undos counts the states
#: un-evolved per gate (MPS: the bra, the ket comes back from the forward
#: trail; dense: ket + bra), gemm/cache counts follow the environment
#: invalidation pattern, never the parameter values.
GRADIENT_BUDGETS = {
    ("h2", "mps"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 5,         # 3 excitations + 2 X, bra only
        "grad.gemm_calls": 44,        # two overlaps (T, T+) per excitation
        # forward + bra undo: 2 x 3 excitations, 2 x 7 bonds
        "mps.excitation": 6,
        "mps.pauli_rotation": 0,
        "mps.gate_2q": 0,
        "mps.swap": 0,
    },
    # the same gradient with no trail retained (TRAIL_MAX_BYTES = 0): the
    # ket is un-evolved over every gate, which is what ran before the
    # trail existed - these are that version's numbers
    ("h2", "mps", "no_trail"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 10,        # 2 x 5 gates (ket + bra)
        "grad.gemm_calls": 44,
        # forward + ket undo + bra undo: 3 x 3 excitations, 3 x 7 bonds
        "mps.excitation": 9,
        "mps.pauli_rotation": 0,
        "mps.gate_2q": 0,
        "mps.swap": 0,
    },
    ("h2", "statevector"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 316,       # 2 x 158 decomposed gates
    },
    ("lih", "statevector"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 29384,     # 2 x 14692 gates
    },
    # D = 16: 104 excitations + 4 reference X gates, bra only
    ("lih", "mps"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 108,
        "grad.gemm_calls": 3902,
        "mps.excitation": 208,
        "mps.pauli_rotation": 0,
        "mps.svd": 1659,              # 2 x 824 bonds + the bra build
        "mps.gate_2q": 0,
        "mps.swap": 0,
    },
}


class TestGradientBudgets:
    """Adjoint-gradient sweep counts: one forward pass, one backward
    pass, all P partials - the budget that makes the "O(1) energy
    evaluations per optimizer step" claim of the gradient engine
    machine-checkable."""

    def _gradient(self, solved, **evaluator_kwargs):
        from repro.vqe.gradients import adjoint_gradient

        ham, ansatz = _hamiltonian_and_ansatz(solved)
        _clear_all_caches()
        with obs.collect() as reg:
            evaluator = EnergyEvaluator(ham, ansatz, **evaluator_kwargs)
            try:
                grad = adjoint_gradient(
                    evaluator, np.zeros(ansatz.n_parameters))
            finally:
                evaluator.close()
        return grad, reg

    @pytest.mark.parametrize("simulator", ["mps", "statevector"])
    def test_h2(self, h2, simulator):
        _, reg = self._gradient(h2, simulator=simulator)
        budget = GRADIENT_BUDGETS[("h2", simulator)]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("grad.evaluations", source="adjoint") == 1
        # forward + bra build + one backward evolution per un-evolved
        # state (dense: ket and bra; MPS: the bra)
        equivalents = reg.value("grad.eval_equivalents", source="adjoint")
        assert equivalents == {"mps": 3, "statevector": 4}[simulator]
        # the adjoint acceptance: >= 5x fewer eval-equivalents than
        # gate-wise parameter shift (2 per Pauli rotation: it expands the
        # excitation gates, and decomposed() has one RZ per rotation)
        assert (2 * n_parametric_gates(h2.uccsd_circuit.decomposed())
                >= 5 * equivalents)

    def test_h2_mps_without_trail(self, h2, monkeypatch):
        from repro.simulators import mps_circuit

        g_trail, _ = self._gradient(h2, simulator="mps")
        monkeypatch.setattr(mps_circuit, "TRAIL_MAX_BYTES", 0)
        grad, reg = self._gradient(h2, simulator="mps")
        budget = GRADIENT_BUDGETS[("h2", "mps", "no_trail")]
        assert {name: reg.value(name) for name in budget} == budget
        assert np.abs(grad - g_trail).max() <= 1e-12

    def test_h2_mps_gradient_after_energy_runs_no_forward_pass(self, h2):
        from repro.vqe.gradients import adjoint_gradient

        ham, ansatz = _hamiltonian_and_ansatz(h2)
        theta = np.zeros(ansatz.n_parameters)
        _clear_all_caches()
        with obs.collect() as reg:
            evaluator = EnergyEvaluator(ham, ansatz, simulator="mps")
            evaluator.energy(theta)
            adjoint_gradient(evaluator, theta)
        assert reg.value("vqe.ansatz_runs") == 1
        assert reg.value("grad.forward_sweeps") == 0
        assert reg.value("grad.eval_equivalents", source="adjoint") == 2
        # the energy's 3 excitations + the bra's 3
        assert reg.value("mps.excitation") == 6
        assert reg.value("mps.pauli_rotation") == 0

    def test_h2_mps_environment_cache(self, h2):
        _, reg = self._gradient(h2, simulator="mps")
        # two overlaps (T, T+) per excitation, two environment requests
        # each: the full-span double finds both edges cached, each single
        # builds one environment and reuses it for its second overlap
        assert reg.value("grad.cached_tensors", outcome="built") == 2
        assert reg.value("grad.cached_tensors", outcome="reused") == 10

    def test_lih_statevector(self, lih):
        _, reg = self._gradient(lih, simulator="statevector")
        budget = GRADIENT_BUDGETS[("lih", "statevector")]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("grad.eval_equivalents", source="adjoint") == 4

    def test_lih_mps(self, lih):
        grad, reg = self._gradient(lih, simulator="mps",
                                   max_bond_dimension=16)
        budget = GRADIENT_BUDGETS[("lih", "mps")]
        assert {name: reg.value(name) for name in budget} == budget
        # irrespective of the 736 gates: 490x under parameter shift
        assert reg.value("grad.eval_equivalents", source="adjoint") == 3
        # the 2-norm the dense adjoint returns at theta = 0 as well
        assert np.linalg.norm(grad) == pytest.approx(0.5464984104722,
                                                     rel=1e-9)

    def test_bitwise_identical_across_executors_and_workers(self, h2):
        """The adjoint sweep never touches the executor layer, so its
        gradient (and counters) cannot depend on the parallel
        measurement configuration of the surrounding evaluator."""
        names = ("grad.forward_sweeps", "grad.backward_sweeps",
                 "grad.gate_undos", "grad.gemm_calls")
        g_ref, reg = self._gradient(h2, simulator="mps")
        base = {name: reg.value(name) for name in names}
        configs = [("serial", 1), ("thread", 1), ("thread", 2),
                   ("thread", 4)]
        for executor, workers in configs:
            grad, reg = self._gradient(h2, simulator="mps",
                                       parallel=executor,
                                       n_workers=workers)
            assert np.array_equal(grad, g_ref), (executor, workers)
            got = {name: reg.value(name) for name in names}
            assert got == base, (executor, workers)


class TestDMETBudgets:
    def test_fragment_solves_independent_of_worker_count(self, h4_ring):
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import (
            attach_labels,
            lowdin_orthogonalize,
        )

        attach_labels(h4_ring.scf, h4_ring.rhf.basis)
        system = lowdin_orthogonalize(h4_ring.scf, h4_ring.eri_ao)
        fragments = atoms_per_fragment(system, 2)
        results = {}
        for workers in (1, 2):
            with obs.collect() as reg:
                dmet = DMET(system, fragments, n_workers=workers,
                            executor="thread")
                res = dmet.run()
                results[workers] = (
                    res.energy,
                    reg.value("dmet.fragment_solves"),
                    reg.value("dmet.mu_iterations"),
                )
        assert results[1] == results[2]
        # 2 fragments per mu evaluation; workers=2 routes them through
        # the level-1 executor (counter registered on first parallel use)
        assert results[1][1] == 2 * results[1][2]

    def test_process_fragments_merge_worker_telemetry(self, h4_ring):
        """Level-1 process dispatch ships each fragment solve's counters
        back to the parent: totals match the thread run and per-worker
        merge provenance appears."""
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import (
            attach_labels,
            lowdin_orthogonalize,
        )

        attach_labels(h4_ring.scf, h4_ring.rhf.basis)
        system = lowdin_orthogonalize(h4_ring.scf, h4_ring.eri_ao)
        fragments = atoms_per_fragment(system, 2)
        results = {}
        for executor in ("thread", "process"):
            with obs.collect() as reg:
                res = DMET(system, fragments, n_workers=2,
                           executor=executor).run()
                snap = reg.snapshot()
                results[executor] = (
                    res.energy,
                    reg.value("dmet.fragment_solves"),
                    reg.value("dmet.mu_iterations"),
                )
        assert results["thread"] == results["process"]
        merges = {s["labels"]["worker"]
                  for s in snap["obs.merges"]["values"]}
        assert merges == {0, 1}
