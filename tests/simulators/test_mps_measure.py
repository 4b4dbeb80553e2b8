"""Parity + cache-invalidation suite for the batched MPS measurement engine.

The shared-environment sweep (the one <H> path) and the compiled MPO (the
operator the adjoint gradient builds its bra from) must agree with the
per-term transfer-matrix oracle to 1e-10 on molecular Hamiltonians (H2,
LiH) and random canonical states, and with the dense Rayleigh quotient to
1e-12 on states truncation has pushed out of canonical form; and the
revision-keyed environment caches must never survive ``run()`` /
``apply_*`` / ``reset()``.
"""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators.mps import MPS, RoutingPlan, routing_plan
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.mps_measure import (
    MPSMeasurementEngine,
    build_sweep_plan,
    compiled_mpo,
    sweep_plan,
)

ATOL = 1e-10


def random_operator(n_qubits, n_terms, seed, complex_coeffs=False):
    """Random weighted Pauli-string operator (identity terms included)."""
    rng = np.random.default_rng(seed)
    mask = (1 << n_qubits) - 1
    terms = {}
    for _ in range(n_terms):
        term = PauliTerm(int(rng.integers(0, mask + 1)),
                         int(rng.integers(0, mask + 1)))
        c = complex(rng.standard_normal(),
                    rng.standard_normal() if complex_coeffs else 0.0)
        terms[term] = terms.get(term, 0.0) + c
    return QubitOperator(terms)


def mpo_expectation(mps, op):
    """<H> through the compiled MPO: what the adjoint's bra is built from."""
    return compiled_mpo(op, mps.n_qubits).expectation(mps) / mps.norm() ** 2


@pytest.fixture(scope="module")
def h2_hamiltonian(h2):
    return molecular_qubit_hamiltonian(h2.mo), 4


@pytest.fixture(scope="module")
def lih_hamiltonian(lih):
    return molecular_qubit_hamiltonian(lih.mo), 12


class TestSweepParity:
    @pytest.mark.parametrize("n_qubits,n_terms,seed",
                             [(1, 4, 0), (2, 8, 1), (3, 16, 2), (6, 30, 3),
                              (10, 60, 4)])
    def test_random_states_match_oracle(self, n_qubits, n_terms, seed):
        mps = MPS.random_state(n_qubits, bond_dimension=8, seed=seed)
        op = random_operator(n_qubits, n_terms, seed + 50)
        engine = MPSMeasurementEngine()
        ref = engine.expectation_per_term(mps, op)
        assert engine.expectation_sweep(mps, op) == pytest.approx(ref,
                                                                  abs=ATOL)

    def test_complex_coefficients(self):
        # non-hermitian operators (RDM excitation strings): the real part
        # combines term values exactly like the oracle
        mps = MPS.random_state(5, bond_dimension=6, seed=9)
        op = random_operator(5, 25, 17, complex_coeffs=True)
        engine = MPSMeasurementEngine()
        ref = engine.expectation_per_term(mps, op)
        assert engine.expectation_sweep(mps, op) == pytest.approx(ref,
                                                                  abs=ATOL)

    def test_h2_hamiltonian(self, h2_hamiltonian):
        ham, n = h2_hamiltonian
        mps = MPS.random_state(n, bond_dimension=4, seed=1)
        engine = MPSMeasurementEngine()
        ref = engine.expectation_per_term(mps, ham)
        assert engine.expectation_sweep(mps, ham) == pytest.approx(ref,
                                                                   abs=ATOL)

    def test_lih_hamiltonian(self, lih_hamiltonian):
        ham, n = lih_hamiltonian
        mps = MPS.random_state(n, bond_dimension=16, seed=2)
        engine = MPSMeasurementEngine()
        ref = engine.expectation_per_term(mps, ham)
        assert engine.expectation_sweep(mps, ham) == pytest.approx(ref,
                                                                   abs=ATOL)

    def test_identity_only_operator(self):
        mps = MPS.random_state(3, bond_dimension=2, seed=0)
        op = QubitOperator.identity(2.5)
        assert MPSMeasurementEngine().expectation_sweep(mps, op) \
            == pytest.approx(2.5, abs=ATOL)

    def test_register_mismatch_rejected(self):
        mps = MPS.random_state(3, bond_dimension=2, seed=0)
        op = random_operator(3, 4, 0)
        with pytest.raises(ValidationError):
            MPSMeasurementEngine().expectation_sweep(mps, op, n_qubits=5)

    def test_term_support_beyond_register_rejected(self):
        op = QubitOperator.from_term(PauliTerm.from_ops([(5, "Z")]), 1.0)
        with pytest.raises(ValidationError):
            build_sweep_plan(op, 4)


class TestMPOParity:
    """No <H> is measured through the MPO any more, but the adjoint
    gradient applies it to build H|psi>: it must be the operator the sweep
    measures."""

    @pytest.mark.parametrize("n_qubits,n_terms,seed",
                             [(2, 8, 5), (4, 20, 6), (8, 40, 7)])
    def test_random_states_match_oracle(self, n_qubits, n_terms, seed):
        mps = MPS.random_state(n_qubits, bond_dimension=8, seed=seed)
        op = random_operator(n_qubits, n_terms, seed + 80)
        ref = MPSMeasurementEngine().expectation_per_term(mps, op)
        assert mpo_expectation(mps, op) == pytest.approx(ref, abs=ATOL)

    def test_lih_hamiltonian(self, lih_hamiltonian):
        ham, n = lih_hamiltonian
        mps = MPS.random_state(n, bond_dimension=16, seed=3)
        ref = MPSMeasurementEngine().expectation_per_term(mps, ham)
        assert mpo_expectation(mps, ham) == pytest.approx(ref, abs=ATOL)

    def test_compiled_mpo_bond_dimensions_are_compressed(self,
                                                         lih_hamiltonian):
        # the suffix-class incremental build must reach the minimal bond
        # dimensions, far below the 630-term worst case
        ham, n = lih_hamiltonian
        assert max(compiled_mpo(ham, n).bond_dimensions()) < 64


class TestCacheInvalidation:
    def _measure(self, engine, mps, op):
        val = engine.expectation_sweep(mps, op)
        assert engine.cache_valid_for(mps)
        return val

    def test_apply_one_qubit_invalidates(self):
        mps = MPS.random_state(4, bond_dimension=4, seed=6)
        op = random_operator(4, 10, 21)
        engine = MPSMeasurementEngine()
        self._measure(engine, mps, op)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        mps.apply_one_qubit(x, 1)
        assert not engine.cache_valid_for(mps)
        ref = engine.expectation_per_term(mps, op)
        assert self._measure(engine, mps, op) == pytest.approx(ref,
                                                               abs=ATOL)

    def test_apply_two_qubit_invalidates(self):
        mps = MPS.random_state(4, bond_dimension=4, seed=7)
        op = random_operator(4, 10, 22)
        engine = MPSMeasurementEngine()
        self._measure(engine, mps, op)
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        mps.apply_two_qubit(cz, 0, 3)  # routed through swaps
        assert not engine.cache_valid_for(mps)
        ref = engine.expectation_per_term(mps, op)
        assert self._measure(engine, mps, op) == pytest.approx(ref,
                                                               abs=ATOL)

    def test_run_and_reset_invalidate_through_simulator(self):
        from repro.circuits.hea import random_brick_circuit

        sim = MPSSimulator(4)
        op = random_operator(4, 10, 23)
        sim.expectation(op)
        state = sim.state
        assert sim._engine.cache_valid_for(state)
        sim.run(random_brick_circuit(4, 1, seed=13))
        assert not sim._engine.cache_valid_for(state)
        sim.expectation(op)
        assert sim._engine.cache_valid_for(sim.state)
        held = sim.state
        sim.reset()
        # reset replaces the state object: the identity check must fail
        assert sim.state is not held
        assert not sim._engine.cache_valid_for(sim.state)
        ref = sim._engine.expectation_per_term(sim.state, op)
        assert sim.expectation(op) == pytest.approx(ref, abs=ATOL)

    def test_copied_simulator_gets_fresh_engine(self):
        sim = MPSSimulator(3)
        op = random_operator(3, 6, 24)
        sim.expectation(op)
        clone = sim.copy()
        assert clone._engine is not sim._engine
        assert clone.expectation(op) == pytest.approx(sim.expectation(op),
                                                      abs=ATOL)

    def test_repeated_measurement_reuses_term_values(self):
        mps = MPS.random_state(5, bond_dimension=4, seed=8)
        op = random_operator(5, 12, 25)
        engine = MPSMeasurementEngine()
        first = engine.expectation_sweep(mps, op)
        # same state revision: the cached per-term values are reused and
        # the result is bitwise identical
        assert engine.expectation_sweep(mps, op) == first


class TestTruncatedStates:
    """<H> is the Rayleigh quotient of the state the tensors hold.

    A truncating Hastings update leaves B_q = M V+ an isometry, and the
    other bonds' lambdas Schmidt values, only up to the weight it
    discards; closing Eq. 11 with lambda^2 and the identity on such
    tensors read H2 at D = 2 as 3.7e-6 Ha *below* FCI.  Every path closes
    with the state's exact environments instead."""

    @staticmethod
    def rayleigh(mps, op):
        psi = mps.to_statevector()
        return float(np.real(np.vdot(psi, op.matrix(mps.n_qubits) @ psi)
                             / np.vdot(psi, psi)))

    @staticmethod
    def local_operator(n_qubits, seed):
        """Random one- and two-site strings: the terms whose support ends
        short of the chain ends, where the closing environments matter."""
        rng = np.random.default_rng(seed)
        terms = {}
        for q in range(n_qubits):
            for ch in "XYZ":
                terms[PauliTerm.from_ops([(q, ch)])] = rng.standard_normal()
                if q + 2 < n_qubits:
                    terms[PauliTerm.from_ops([(q, ch), (q + 2, "Z")])] = \
                        rng.standard_normal()
        return QubitOperator(terms)

    @staticmethod
    def truncated(circuit, bond):
        sim = MPSSimulator(circuit.n_qubits, max_bond_dimension=bond)
        sim.run(circuit)
        assert sim.state.stats.total_discarded_weight > 1e-4
        assert not sim.state.check_right_canonical(1e-6)
        return sim.state

    @pytest.mark.parametrize("kind", ["excitations", "rotations", "bricks"])
    def test_every_path_is_the_rayleigh_quotient(self, kind):
        from repro.circuits.hea import random_brick_circuit
        from repro.circuits.uccsd import UCCSDAnsatz

        if kind == "bricks":      # two-site updates
            circuit, bond = random_brick_circuit(8, 6, seed=3), 4
        else:
            ansatz = UCCSDAnsatz(4, 4)
            theta = 0.3 * np.random.default_rng(5).standard_normal(
                ansatz.n_parameters)
            circuit, bond = ansatz.circuit().bind(theta), 8
            if kind == "rotations":
                circuit.gates[:] = [r for g in circuit.gates
                                    for r in g.decompose()]
        mps = self.truncated(circuit, bond)
        op = self.local_operator(8, 11)
        ref = self.rayleigh(mps, op)
        engine = MPSMeasurementEngine()
        for path in (engine.expectation_sweep(mps, op),
                     engine.expectation_per_term(mps, op),
                     mpo_expectation(mps, op)):
            assert path == pytest.approx(ref, abs=1e-12)
        psi = mps.to_statevector()
        assert mps.norm() == pytest.approx(np.linalg.norm(psi), abs=1e-12)

    @pytest.mark.parametrize("molecule,bond", [("h4_ring", 16), ("lih", 8)])
    def test_energy_and_adjoint_bra_see_the_same_operator(self, request,
                                                          molecule, bond):
        """The cross-check the MPO <H> arm gave for free: at the benchmark
        workloads' caps (8 qubits D=16, LiH D=8, UCCSD as rotations, which
        truncate LiH for real) the sweep reads what the MPO contracts."""
        solved = request.getfixturevalue(molecule)
        ham, circuit = solved.qubit_hamiltonian, solved.uccsd_circuit
        theta = 0.3 * np.random.default_rng(7).standard_normal(
            circuit.n_parameters)
        bound = circuit.bind(theta)
        bound.gates[:] = [r for g in bound.gates for r in g.decompose()]
        mps = MPSSimulator(bound.n_qubits,
                           max_bond_dimension=bond).run(bound).state
        if molecule == "lih":
            assert mps.stats.total_discarded_weight > 1e-6
        assert MPSMeasurementEngine().expectation_sweep(mps, ham) == \
            pytest.approx(mpo_expectation(mps, ham), abs=1e-12)

    def test_h2_at_d2_never_reads_below_fci(self, h2_hamiltonian):
        from repro.circuits.uccsd import UCCSDAnsatz

        ham, n = h2_hamiltonian
        e_fci = np.linalg.eigvalsh(ham.matrix(n))[0]
        circuit = UCCSDAnsatz(2, 2).circuit()
        for singles in (-0.0292, -0.00925, 0.03):
            sim = MPSSimulator(n, max_bond_dimension=2)
            sim.run(circuit.bind(np.array([singles, -0.05654])))
            assert sim.state.stats.total_discarded_weight > 1e-4
            energy = sim.expectation(ham)
            assert energy == pytest.approx(self.rayleigh(sim.state, ham),
                                           abs=1e-12)
            assert energy >= e_fci - 1e-12


class TestRoutingPlans:
    def test_plan_schedules_are_derived_and_symmetric(self):
        plan = routing_plan(0, 3)
        assert plan.swaps_in == (0, 1)
        assert plan.gate_site == 2
        assert not plan.permute
        assert plan.swaps_out == (1, 0)
        assert plan.n_swaps == 4
        assert routing_plan(0, 3) == plan
        rev = routing_plan(3, 0)
        assert rev == RoutingPlan(swaps_in=(2, 1), gate_site=0,
                                  permute=True, swaps_out=(1, 2))

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            routing_plan(2, 2)


class TestSweepPlanStructure:
    def test_plan_is_cached_by_operator_content(self):
        op = random_operator(5, 10, 30)
        assert sweep_plan(op, 5) is sweep_plan(op, 5)

    def test_env_steps_bounded_by_per_term_walks(self, lih_hamiltonian):
        # sharing must strictly beat one walk per term over its span
        ham, n = lih_hamiltonian
        plan = sweep_plan(ham, n)
        per_term_steps = 0
        for term, _ in ham:
            if term.is_identity():
                continue
            ops = term.ops()
            per_term_steps += ops[-1][0] - ops[0][0] + 1
        assert plan.n_env_steps < per_term_steps / 2
