"""Tests for the energy evaluator: one forward pass per theta, SV vs MPS."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.operators.pauli import QubitOperator, pauli_string
from repro.vqe.circuit_store import hadamard_test_circuit
from repro.vqe.energy import EnergyEvaluator
from repro.simulators.statevector import StatevectorSimulator


class TestHadamardTestCircuit:
    def test_measures_real_part(self):
        """<Z_anc> after the gadget equals Re<psi|P|psi>."""
        from repro.circuits.hea import random_brick_circuit

        n = 4
        prep = random_brick_circuit(n, 2, seed=6)
        for label in ("XIII", "IZZI", "IXYZ"):
            p = pauli_string(label)
            sim = StatevectorSimulator(n + 1)
            # run prep on the lower n qubits of the wide register
            from repro.circuits.circuit import Circuit

            wide = Circuit(n + 1, gates=list(prep.gates))
            sim.run(wide)
            expected = sim.expectation_pauli(p)
            sim.run(hadamard_test_circuit(p, n))
            anc_z = pauli_string([(n, "Z")])
            assert sim.expectation_pauli(anc_z) == pytest.approx(
                expected, abs=1e-10)

    def test_ancilla_overlap_rejected(self):
        with pytest.raises(ValidationError):
            hadamard_test_circuit(pauli_string([(2, "X")]), 2, ancilla=2)


class TestEvaluatorPaths:
    @pytest.fixture(autouse=True)
    def _setup(self, h2):
        self.ham = molecular_qubit_hamiltonian(h2.mo)
        self.ansatz = UCCSDAnsatz(2, 2)
        self.theta = np.array([0.17, -0.36])

    def test_direct_sv_vs_mps(self):
        sv = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                             simulator="statevector")
        mps = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                              simulator="mps")
        assert sv.energy(self.theta) == pytest.approx(
            mps.energy(self.theta), abs=1e-10)

    def test_evaluation_counter(self):
        ev = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                             simulator="statevector")
        ev.energy(self.theta)
        ev.energy(self.theta)
        assert ev.evaluations == 2

    def test_hf_energy_at_zero(self, h2):
        ev = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                             simulator="statevector")
        assert ev.energy(np.zeros(2)) == pytest.approx(h2.scf.energy,
                                                       abs=1e-8)

    def test_validation(self):
        bad = QubitOperator.from_term("ZZZZ", 1j)  # not hermitian
        with pytest.raises(ValidationError):
            EnergyEvaluator(bad, self.ansatz.circuit())
        with pytest.raises(ValidationError):
            EnergyEvaluator(self.ham, self.ansatz.circuit(),
                            simulator="quantum")
        # the level-2 dispatch and the Hadamard-test arm are retired:
        # their arguments are unknown
        from repro.vqe.vqe import VQE

        for retired in ({"parallel": "thread"}, {"n_workers": 2},
                        {"method": "direct"}, {"shots": 1}, {"seed": 0}):
            with pytest.raises(TypeError):
                EnergyEvaluator(self.ham, self.ansatz.circuit(), **retired)
        for retired in ({"parallel": "thread"}, {"n_workers": 2},
                        {"method": "direct"}):
            with pytest.raises(TypeError):
                VQE(self.ham, self.ansatz, **retired)


#: (simulator, ansatz) pairs the slot tests run over; the brick circuit's
#: RY gates are the ones fusion used to absorb
SLOT_CASES = [(simulator, ansatz)
              for simulator in ("mps", "statevector", "density_matrix")
              for ansatz in ("uccsd", "brick")]


class TestPreparedStateSlot:
    """One forward pass per theta on every circuit backend and for every
    circuit: ``energy``, ``final_state`` and the adjoint gradient share
    one prepared state, and nothing a caller does with what it gets can
    change it."""

    @pytest.fixture(autouse=True)
    def _setup(self, h2):
        from repro.circuits.hea import brick_ansatz

        self.ham = molecular_qubit_hamiltonian(h2.mo)
        self.circuits = {"uccsd": UCCSDAnsatz(2, 2).circuit(),
                         "brick": brick_ansatz(4, window=3)}
        self.theta1 = np.array([0.17, -0.36])
        self.theta2 = np.array([-0.08, 0.41])

    def _evaluator(self, max_bond=None, simulator="mps", ansatz="uccsd"):
        return EnergyEvaluator(self.ham, self.circuits[ansatz],
                               simulator=simulator,
                               max_bond_dimension=max_bond)

    def _thetas(self, ansatz):
        n = self.circuits[ansatz].n_parameters
        return np.linspace(-1.0, 1.0, n), np.linspace(0.7, -0.4, n)

    @pytest.mark.parametrize("simulator,ansatz", SLOT_CASES)
    def test_one_pass_serves_energy_gradient_and_final_state(
            self, simulator, ansatz):
        from repro import obs
        from repro.backends import backend_spec
        from repro.circuits.circuit import Circuit
        from repro.circuits.gates import Gate
        from repro.vqe.gradients import adjoint_gradient

        theta, _ = self._thetas(ansatz)
        adjoint = "adjoint" in backend_spec(simulator).gradients
        with obs.collect() as reg:
            ev = self._evaluator(simulator=simulator, ansatz=ansatz)
            energy = ev.energy(theta)
            if adjoint:
                adjoint_gradient(ev, theta)
            sim = ev.final_state(theta)
            # evolving what final_state handed out never reaches the slot
            sim.run(Circuit(4, gates=[Gate("H", (0,)), Gate("CX", (0, 3))]))
            assert sim.expectation(self.ham) != energy
            assert ev.energy(theta) == energy
        assert reg.value("vqe.ansatz_runs") == 1
        assert reg.value("grad.forward_sweeps") == 0

    @pytest.mark.parametrize("simulator,ansatz", [
        ("mps", "brick"), ("statevector", "uccsd"), ("statevector", "brick")])
    def test_gradient_at_another_theta_runs_its_own_pass(
            self, simulator, ansatz):
        from repro import obs
        from repro.vqe.gradients import adjoint_gradient

        theta1, theta2 = self._thetas(ansatz)
        ev = self._evaluator(simulator=simulator, ansatz=ansatz)
        ev.energy(theta1)
        fresh = adjoint_gradient(
            self._evaluator(simulator=simulator, ansatz=ansatz), theta2)
        with obs.collect() as reg:
            assert np.array_equal(adjoint_gradient(ev, theta2), fresh)
        assert reg.value("grad.forward_sweeps") == 1

    @pytest.mark.parametrize("max_bond", [None, 2])
    def test_gradient_at_another_theta_ignores_the_held_state(self, max_bond):
        from repro.vqe.gradients import adjoint_gradient

        ev = self._evaluator(max_bond)
        ev.energy(self.theta1)
        fresh = adjoint_gradient(self._evaluator(max_bond), self.theta2)
        assert np.array_equal(adjoint_gradient(ev, self.theta2), fresh)

    @pytest.mark.parametrize("max_bond", [None, 2])
    def test_energy_after_gradient_reuses_its_forward_pass(self, max_bond):
        from repro import obs
        from repro.vqe.gradients import adjoint_gradient

        fresh = self._evaluator(max_bond).energy(self.theta1)
        with obs.collect() as reg:
            ev = self._evaluator(max_bond)
            adjoint_gradient(ev, self.theta1)
            assert ev.energy(self.theta1) == fresh
        assert reg.value("vqe.ansatz_runs") == 1
        assert reg.value("grad.forward_sweeps") == 1

    @pytest.mark.parametrize("max_bond", [None, 2])
    def test_backward_sweep_leaves_the_prepared_state_alone(self, max_bond):
        from repro.vqe.gradients import adjoint_gradient

        ev = self._evaluator(max_bond)
        first = adjoint_gradient(ev, self.theta1)
        prepared, ran = ev.prepare(self.theta1)
        assert not ran
        state = prepared.sim.state
        tensors = [t.copy() for t in state.tensors]
        lambdas = [lam.copy() for lam in state.lambdas]
        revision = state.revision
        assert np.array_equal(adjoint_gradient(ev, self.theta1), first)
        assert ev.prepare(self.theta1)[0] is prepared
        assert state.revision == revision
        assert all(np.array_equal(a, b)
                   for a, b in zip(state.tensors, tensors))
        assert all(np.array_equal(a, b)
                   for a, b in zip(state.lambdas, lambdas))

    def test_evolving_the_final_state_does_not_reach_the_slot(self):
        from repro.circuits.circuit import Circuit
        from repro.circuits.gates import Gate

        ev = self._evaluator()
        before = ev.energy(self.theta1)
        sim = ev.final_state(self.theta1)
        sim.run(Circuit(4, gates=[Gate("H", (0,)), Gate("CX", (0, 3))]))
        assert sim.expectation(self.ham) != before
        assert ev.energy(self.theta1) == before

    def test_dense_backward_sweep_leaves_the_prepared_state_alone(self):
        from repro.vqe.gradients import adjoint_gradient

        ev = self._evaluator(simulator="statevector")
        first = adjoint_gradient(ev, self.theta1)
        prepared, ran = ev.prepare(self.theta1)
        assert not ran
        amplitudes = prepared.sim.statevector()
        assert np.array_equal(adjoint_gradient(ev, self.theta1), first)
        assert ev.prepare(self.theta1)[0] is prepared
        assert np.array_equal(prepared.sim.statevector(), amplitudes)

    def test_fused_parametric_gates_share_the_pass(self):
        """An HEA circuit's RY gates reach the MPS backend as one-site
        ``PR`` rotations, which fusion hands through: the state the energy
        measured is the one the gradient unwinds."""
        from repro import obs
        from repro.vqe.gradients import adjoint_gradient

        theta, _ = self._thetas("brick")
        ev = self._evaluator(ansatz="brick")
        with obs.collect() as reg:
            ev.energy(theta)
            adjoint_gradient(ev, theta)
        assert reg.value("grad.forward_sweeps") == 0
        assert reg.value("grad.eval_equivalents", source="adjoint") == 2


class TestNothingMoved:
    """Values recorded at the parent commit (``dec2258``), where an HEA
    energy ran the fused stream with the rotations absorbed into U2 blocks
    and the dense adjoint its own gate engine and term-by-term H|psi>."""

    #: brick_ansatz(8, window=4) on the H4 ring, theta = linspace(-1, 1, 30)
    HEA_ENERGIES = {None: -0.15862005413925553, 4: -0.15862005413925553,
                    2: -0.24367978159399742}
    #: H2 UCCSD on statevector at theta = (0.17, -0.36)
    H2_DENSE_GRADIENT = np.array([-0.18807985854635903,
                                  -2.7940573796697437])

    @pytest.mark.parametrize("max_bond", [None, 4, 2])
    def test_hea_energies(self, h4_ring, max_bond):
        """Single-qubit gates do not move a Schmidt spectrum, so the
        unabsorbed rotations truncate exactly as the absorbed ones did."""
        from repro.circuits.hea import brick_ansatz

        circuit = brick_ansatz(8, window=4)
        theta = np.linspace(-1.0, 1.0, circuit.n_parameters)
        ev = EnergyEvaluator(h4_ring.qubit_hamiltonian, circuit,
                             simulator="mps", max_bond_dimension=max_bond)
        assert ev.energy(theta) == pytest.approx(
            self.HEA_ENERGIES[max_bond], abs=1e-12)

    def test_h2_dense_adjoint_gradient(self, h2):
        """Not bitwise: H|psi> is now one gather per flip mask, which sums
        the 14 terms in another order than the term-by-term product did."""
        from repro.vqe.gradients import adjoint_gradient

        ev = EnergyEvaluator(h2.qubit_hamiltonian, h2.uccsd_circuit,
                             simulator="statevector")
        grad = adjoint_gradient(ev, np.array([0.17, -0.36]))
        assert np.abs(grad - self.H2_DENSE_GRADIENT).max() <= 1e-12


class TestNonFiniteParameters:
    """A NaN/inf theta is a structured error where theta is bound - it was
    a bare LAPACK ``ValueError`` on MPS and a silent ``nan`` energy on the
    dense backends (which a gradient optimizer then carried along)."""

    @pytest.fixture(autouse=True)
    def _setup(self, h2):
        self.ham = molecular_qubit_hamiltonian(h2.mo)
        self.ansatz = UCCSDAnsatz(2, 2)

    @staticmethod
    def _assert_structured(excinfo, index, value):
        assert f"parameter {index} is {value}" in str(excinfo.value)
        assert excinfo.value.flight["schema"] == "repro.obs.flight/1"

    @pytest.mark.parametrize("simulator", ["mps", "statevector",
                                           "density_matrix"],
                             ids="direct-{}".format)
    def test_circuit_evaluators(self, simulator):
        ev = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                             simulator=simulator)
        with pytest.raises(ValidationError) as excinfo:
            ev.energy(np.array([0.1, np.nan]))
        self._assert_structured(excinfo, 1, "nan")
        with pytest.raises(ValidationError) as excinfo:
            ev.final_state(np.array([np.inf, 0.0]))
        self._assert_structured(excinfo, 0, "inf")

    def test_fast_evaluator(self):
        from repro.vqe.fast_sv import FastUCCEvaluator

        ev = FastUCCEvaluator(self.ham, self.ansatz)
        with pytest.raises(ValidationError) as excinfo:
            ev.energy(np.array([-np.inf, np.nan]))
        self._assert_structured(excinfo, 0, "-inf")

    @pytest.mark.parametrize("simulator,source", [
        ("mps", "adjoint"), ("statevector", "adjoint"),
        ("statevector", "param_shift"), ("statevector", "finite_diff"),
    ])
    def test_gradient_sources(self, simulator, source):
        ev = EnergyEvaluator(self.ham, self.ansatz.circuit(),
                             simulator=simulator)
        with pytest.raises(ValidationError) as excinfo:
            ev.gradient_source(source)(np.array([np.nan, 0.2]))
        self._assert_structured(excinfo, 0, "nan")

    def test_gradient_optimizer_stops_on_a_nan_start(self):
        from repro.vqe.vqe import VQE

        for simulator in ("mps", "statevector", "fast"):
            vqe = VQE(self.ham, self.ansatz, simulator=simulator,
                      optimizer="slsqp")
            with pytest.raises(ValidationError, match="parameter 1 is nan"):
                vqe.run(np.array([0.0, np.nan]))
