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
from repro.common import cache
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.gradients import n_parametric_gates

#: one MPS energy evaluation at theta = 0 (a single direct measurement
#: of the UCCSD reference state); keyed by (molecule, the path label of
#: ``mps_measure.evaluations``).
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
    ("lih", "sweep"): {**_LIH_PREP, "mps_measure.env_steps": 1767,
                       "mps_measure.gemm_calls": 86,
                       "kernels.gemm_calls": 2476,
                       "kernels.svd_calls": 824},
}

#: the same evaluation with every ``EX`` gate expanded one level, into its
#: ``PR`` rotations: what a UCCSD evaluation was before ``EX``, and what a
#: Bravyi-Kitaev ansatz still runs.  mps.svd is the summed
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

#: the ``decomposed()`` gate stream, bound and run by the simulator itself
#: (``MPSSimulator.run`` + ``expectation``) - the CNOT staircases through
#: the fused two-site path, i.e. what every UCCSD evaluation cost before
#: ``PR``: these pin the two-site kernel and the routed-gate count, which
#: UCCSD circuits no longer reach
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
        energy = evaluator.energy(np.zeros(ansatz.n_parameters))
        return energy, reg


class TestMPSBudgets:
    @pytest.mark.parametrize("path", ["sweep"])
    def test_h2(self, h2, path):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        energy, reg = _measured_energy(ham, ansatz, simulator="mps")
        budget = MPS_BUDGETS[("h2", path)]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("mps_measure.evaluations", path=path) == 1
        # theta = 0 prepares the reference determinant
        assert abs(energy - h2.scf.energy) <= 1e-10

    @pytest.mark.parametrize("path", ["sweep"])
    def test_lih(self, lih, path):
        ham, ansatz = _hamiltonian_and_ansatz(lih)
        energy, reg = _measured_energy(ham, ansatz, simulator="mps")
        budget = MPS_BUDGETS[("lih", path)]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        assert reg.value("mps_measure.evaluations", path=path) == 1
        assert abs(energy - lih.scf.energy) <= 1e-10

    @pytest.mark.parametrize("molecule", ["h2", "lih"])
    def test_decomposed_stream_keeps_the_staircase_budget(self, request,
                                                          molecule):
        from repro.simulators.mps_circuit import MPSSimulator

        ham, ansatz = _hamiltonian_and_ansatz(
            request.getfixturevalue(molecule))
        bound = ansatz.decomposed().bind(np.zeros(ansatz.n_parameters))
        _clear_all_caches()
        with obs.collect() as reg:
            MPSSimulator(ansatz.n_qubits).run(bound).expectation(ham)
        budget = STAIRCASE_BUDGETS[molecule]
        assert {name: reg.value(name) for name in budget} == budget

    def test_evaluator_keeps_the_rotations_of_a_decomposed_stream_whole(
            self, h2):
        """Handed to an MPS *evaluator*, the same stream costs more than
        the kernel pin above: the central RZ of a staircase carries the
        parameter, so it reaches the simulator unabsorbed (the state an
        energy measured is the one its gradient unwinds) and the two
        CNOTs around it stay two updates where fusion folded
        CX RZ CX into one - 12 more for H2's 12 staircases."""
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        _, reg = _measured_energy(ham, ansatz.decomposed(), simulator="mps")
        staircases = n_parametric_gates(ansatz.decomposed())
        assert staircases == 12
        assert reg.value("mps.gate_2q") == (
            STAIRCASE_BUDGETS["h2"]["mps.gate_2q"] + staircases)
        assert reg.value("mps.pauli_rotation") == 0

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
        _, reg = _measured_energy(ham, rotations, simulator="mps")
        budget = ROTATION_BUDGETS[molecule]
        assert {name: reg.value(name) for name in budget} == budget


class TestRepeatedRDMMeasurement:
    """Measurement parts are built in the first pass and "kept constant
    afterwards" (paper Sec. III-D).  ISSUE 19 re-derived this pin: one
    4-orbital RDM measurement was 146 operators (10 E_pq, p <= q, + 136
    E_pq E_rs pairs), each with its own compile / plan lookup - 146
    misses cold, 146 hits warm.  It is now one measurement program (one
    lookup), whose 508 strings the state is asked for at once: the dense
    backends compile nothing per operator, the MPS backend plans the
    strings once, and no MPO is compiled in either pass."""

    #: per-operator cache outcomes of (cold, warm) pass; were
    #: ({"miss": 146}, {"hit": 146}) on both backends
    PER_OPERATOR = {
        "statevector": ({}, {}),
        "mps": ({"miss": 1}, {"hit": 1}),
    }

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
        from repro.vqe.rdm import measure_rdms

        sim = resolve_backend(backend, 8)
        sim.run(random_brick_circuit(8, 3, seed=7))
        _clear_all_caches()
        passes = []
        for _ in range(2):
            with obs.collect() as reg:
                rdms = measure_rdms(sim, 4)
                passes.append((rdms,
                               self._outcomes(reg, "rdm.program_cache"),
                               self._outcomes(reg, counter),
                               self._outcomes(reg, "mps_measure.mpo_cache")))
        (first, cold_program, cold, cold_mpo), \
            (second, warm_program, warm, warm_mpo) = passes
        assert (cold_program, warm_program) == ({"miss": 1}, {"hit": 1})
        assert (cold, warm) == self.PER_OPERATOR[backend]
        assert cold_mpo == warm_mpo == {}
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


#: fused-kernel call totals for one cold-cache H2 theta = 0 evaluation;
#: keyed by measurement path.  These count *executed* kernels, so they
#: are independent of the module-global plan-LRU warmth (unlike the
#: hit/miss split, which depends on what earlier tests left cached).
KERNEL_BUDGETS = {
    "sweep": {"kernels.gemm_calls": 23, "kernels.svd_calls": 7},
}


class TestKernelCounterBudgets:
    """The `kernels.*` obs counters, the kernel layer's one ledger.
    GEMM/SVD call totals are pure functions of the workload.  The sweeps'
    contractions have a fixed layout and call `kernels.gemm` with no plan
    lookup; only the one-site gates (`mps.gate_1q`) still go through a
    contraction plan."""

    @pytest.mark.parametrize("path", ["sweep"])
    def test_h2_kernel_calls_pinned(self, h2, path):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        _, reg = _measured_energy(ham, ansatz, simulator="mps")
        budget = KERNEL_BUDGETS[path]
        got = {name: reg.value(name) for name in budget}
        assert got == budget
        lookups = sum(
            slot["value"]
            for slot in reg.snapshot()["kernels.plan_cache"]["values"]
            if slot["labels"]["outcome"] in ("hit", "miss"))
        assert lookups == reg.value("mps.gate_1q") == 2


class TestDenseMeasurementBudget:
    def test_one_compiled_expectation(self, h2):
        ham, ansatz = _hamiltonian_and_ansatz(h2)
        energy, reg = _measured_energy(ham, ansatz, simulator="statevector")
        assert reg.value("pauli.compiles") == 1
        assert reg.value("pauli.expectations") == 1
        assert reg.value("vqe.ansatz_runs") == 1
        assert abs(energy - h2.scf.energy) <= 1e-10


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
    # ket + bra over the gates the evaluator ran: each excitation whole,
    # where the parent unwound its decomposed() staircases (2 x 158 for
    # H2, 2 x 14692 for LiH)
    ("h2", "statevector"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 10,        # 2 x (3 excitations + 2 X)
    },
    ("lih", "statevector"): {
        "grad.forward_sweeps": 1,
        "grad.backward_sweeps": 1,
        "grad.gate_undos": 216,       # 2 x (104 excitations + 4 X)
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
            grad = adjoint_gradient(
                evaluator, np.zeros(ansatz.n_parameters))
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

    def test_h2_631g_energy_and_gradient_compile_one_mpo(self,
                                                         solved_molecule):
        """The ``h2_vqe`` unit of work.  The one MPO compiled is the
        adjoint's H|psi> bra operator; the energy is a sweep and compiles
        none (the retired ``auto`` dispatch compiled a second one here,
        to price an arm it then did not run)."""
        from repro.chem import geometry
        from repro.vqe.gradients import adjoint_gradient

        ham, ansatz = _hamiltonian_and_ansatz(
            solved_molecule(geometry.h2(0.7414), basis="6-31g"))
        theta = np.zeros(ansatz.n_parameters)
        _clear_all_caches()
        with obs.collect() as reg:
            evaluator = EnergyEvaluator(ham, ansatz, simulator="mps",
                                        max_bond_dimension=16)
            evaluator.energy(theta)
            adjoint_gradient(evaluator, theta)
            assert reg.value("mps_measure.mpo_cache", outcome="miss") == 1
            assert reg.value("mps_measure.mpo_cache", outcome="hit") == 0
            assert reg.value("mps_measure.evaluations", path="sweep") == 1

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


class TestDMETBudgets:
    def test_fragment_solves_independent_of_worker_count(self, h4_ring):
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import lowdin_orthogonalize

        # one-atom fragments: two symmetry orbits, {0, 2} and {1, 3} (the
        # RHF density keeps the 2-atom shift, not the 1-atom one), so two
        # solves per mu evaluation
        system = lowdin_orthogonalize(h4_ring.scf)
        fragments = atoms_per_fragment(system, 1)
        results = {}
        for workers in (1, 2):
            with obs.collect() as reg:
                dmet = DMET(system, fragments, n_workers=workers)
                res = dmet.run()
                results[workers] = (
                    res.energy,
                    reg.value("dmet.fragment_solves"),
                    reg.value("dmet.mu_iterations"),
                )
        assert results[1] == results[2]
        # 2 orbits per mu evaluation; workers=2 routes them through the
        # level-1 process pool (counter registered on first parallel use)
        assert results[1][1] == 2 * results[1][2]

    def test_process_fragments_merge_worker_telemetry(self, h4_ring):
        """Level-1 process dispatch ships each fragment solve's counters
        back to the parent: totals match the in-line run and per-worker
        merge provenance appears."""
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import lowdin_orthogonalize

        # one-atom fragments: two symmetry orbits, {0, 2} and {1, 3} (the
        # RHF density keeps the 2-atom shift, not the 1-atom one), so two
        # solves per mu evaluation
        system = lowdin_orthogonalize(h4_ring.scf)
        fragments = atoms_per_fragment(system, 1)
        results = {}
        for workers in (1, 2):
            with obs.collect() as reg:
                res = DMET(system, fragments, n_workers=workers).run()
                snap = reg.snapshot()
                results[workers] = (
                    res.energy,
                    reg.value("dmet.fragment_solves"),
                    reg.value("dmet.mu_iterations"),
                )
        assert results[1] == results[2]
        merges = {s["labels"]["worker"]
                  for s in snap["obs.merges"]["values"]}
        assert merges == {0, 1}

        # a circuit solver, one shot at mu = 0: the *work* the workers
        # did ships home exactly, wherever each fragment ran.  Cold starts
        # keep a solve independent of what its process solved before (no
        # warm-start amplitudes)
        from repro.dmet.bath import build_bath
        from repro.dmet.embedding import build_embedding_hamiltonian
        from repro.dmet.solvers import VQEFragmentSolver
        from repro.parallel.threelevel import ThreeLevelDriver

        solver = VQEFragmentSolver(simulator="mps", max_iterations=6,
                                   warm_start=False)
        # one-atom fragments: four 4-qubit problems, two per worker at w2
        problems = [build_embedding_hamiltonian(
            system, build_bath(system.density, fragment))
            for fragment in fragments]
        work = ("vqe.runs", "vqe.energy_evaluations", "kernels.gemm_calls",
                "mps.svd")
        runs = {}
        for executor, workers in (("inline", 1), ("process", 1),
                                  ("process", 2)):
            _clear_all_caches()
            with obs.collect() as reg:
                if executor == "inline":
                    solutions = [solver.solve(p, 0.0) for p in problems]
                else:
                    solutions = ThreeLevelDriver.run_fragments_local(
                        problems, solver, 0.0, max_workers=workers)
                snap = reg.snapshot()
            totals = {name: sum(slot["value"]
                                for slot in snap[name]["values"])
                      for name in work}
            merged = {s["labels"]["worker"] for s in
                      snap.get("obs.merges", {}).get("values", ())}
            runs[executor, workers] = (
                [sol.energy for sol in solutions], totals, merged)
        energies, totals, merged = runs["inline", 1]
        assert totals["vqe.runs"] == len(problems) == 4
        assert min(totals.values()) > 0 and merged == set()
        for workers, slots in ((1, {0}), (2, {0, 1})):
            shipped, totals_p, merged = runs["process", workers]
            # a problem reaches its worker through pickle, which lays the
            # non-contiguous integral views out afresh: the contractions
            # may round in the last bit, the event counts cannot move
            assert shipped == pytest.approx(energies, abs=1e-12)
            assert totals_p == totals
            assert merged == slots

    def test_one_slsqp_iteration_of_a_vqe_mps_fragment(self, h4_ring):
        """The unit of work of the ``ring6_dmet_mps`` workload.  With scipy
        differentiating the energy it was 32 ansatz preparations + 1 for
        the RDM state and 146 RDM measurements; with the adjoint jacobian
        the energy, the gradient and the final RDM state share one
        prepared state per theta."""
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import lowdin_orthogonalize
        from repro.dmet.solvers import VQEFragmentSolver

        system = lowdin_orthogonalize(h4_ring.scf)
        dmet = DMET(system, atoms_per_fragment(system, 2),
                    VQEFragmentSolver(simulator="mps", max_bond_dimension=16,
                                      optimizer="slsqp", max_iterations=1),
                    all_fragments_equivalent=True)
        with obs.collect() as reg:
            res = dmet.run(fit_chemical_potential=False)
            evaluations = {
                slot["labels"]["path"]: slot["value"] for slot in
                reg.snapshot()["mps_measure.evaluations"]["values"]}
            runs = reg.value("vqe.ansatz_runs")
            gradients = reg.value("grad.backward_sweeps")
            own_forwards = reg.value("grad.forward_sweeps")
        details = res.fragment_solutions[0].details
        assert details["grad"] == "adjoint"
        assert details["vqe_gradient_evaluations"] == gradients == 2
        # every gradient and the RDM state found their theta prepared
        assert own_forwards == 0
        assert runs == details["vqe_evaluations"] <= 6
        assert evaluations["terms"] == 1
        assert "cached" not in evaluations
