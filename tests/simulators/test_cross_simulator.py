"""Cross-simulator agreement: SV == DM == MPS on everything they share.

This is the reproduction's core correctness net: the three simulators of
Fig. 2(c) must be numerically interchangeable wherever they can all run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.hea import brick_ansatz, random_brick_circuit
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.pauli import pauli_string
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.statevector import StatevectorSimulator


def _overlap(a, b):
    return abs(np.vdot(a, b))


class TestRandomCircuits:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(1, 4))
    def test_sv_vs_mps_exact(self, seed, n, layers):
        circ = random_brick_circuit(n, layers, seed=seed)
        sv = StatevectorSimulator(n).run(circ).statevector()
        mps = MPSSimulator(n).run(circ).statevector()
        assert _overlap(sv, mps) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 1000))
    def test_sv_vs_dm(self, seed):
        circ = random_brick_circuit(4, 3, seed=seed)
        psi = StatevectorSimulator(4).run(circ).statevector()
        rho = DensityMatrixSimulator(4).run(circ).density_matrix()
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)


class TestUCCSDCircuits:
    def test_three_simulators_same_energy(self, h2):
        from repro.operators.molecular import molecular_qubit_hamiltonian

        ham = molecular_qubit_hamiltonian(h2.mo)
        ansatz = UCCSDAnsatz(2, 2)
        theta = np.array([0.12, -0.23])
        circ = ansatz.circuit().bind(theta)
        sv = StatevectorSimulator(4).run(circ)
        # two MPS kernels: rotations applied whole / decomposed staircases
        mps = MPSSimulator(4).run(circ)
        naive = MPSSimulator(4, mode="naive").run(circ)
        dm = DensityMatrixSimulator(4).run(circ)
        energies = [sim.expectation(ham) for sim in (sv, mps, naive, dm)]
        for other in energies[1:]:
            assert energies[0] == pytest.approx(other, abs=1e-10)
        assert _overlap(sv.statevector(), mps.statevector()) \
            == pytest.approx(1.0, abs=1e-10)

    def test_naive_and_optimized_mps_agree(self):
        circ = brick_ansatz(6, window=3)
        rng = np.random.default_rng(4)
        bound = circ.bind(rng.standard_normal(circ.n_parameters))
        opt = MPSSimulator(6, mode="optimized").run(bound).statevector()
        naive = MPSSimulator(6, mode="naive").run(bound).statevector()
        assert _overlap(opt, naive) == pytest.approx(1.0, abs=1e-10)


class TestPauliExpectations:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 500))
    def test_mps_pauli_matches_sv(self, seed):
        circ = random_brick_circuit(5, 2, seed=seed)
        sv = StatevectorSimulator(5).run(circ)
        mps = MPSSimulator(5).run(circ)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            ops = [(int(q), str(rng.choice(list("XYZ"))))
                   for q in rng.choice(5, size=int(rng.integers(1, 4)),
                                       replace=False)]
            p = pauli_string(ops)
            assert mps.expectation_pauli(p) == pytest.approx(
                sv.expectation_pauli(p), abs=1e-9)


class TestFastEvaluator:
    """The closed-form excitation path (``EX`` applied whole, what the
    ``fast`` evaluator did) against the gate-by-gate staircases."""

    def test_fast_matches_circuit_path(self, h2):
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.vqe.energy import EnergyEvaluator

        ham = molecular_qubit_hamiltonian(h2.mo)
        circuit = UCCSDAnsatz(2, 2).circuit()
        whole = EnergyEvaluator(ham, circuit, simulator="statevector")
        staircase = EnergyEvaluator(ham, circuit.decomposed(),
                                    simulator="statevector")
        for theta in ([0.0, 0.0], [0.3, -0.2], [1.2, 0.8]):
            t = np.asarray(theta)
            assert whole.energy(t) == pytest.approx(staircase.energy(t),
                                                    abs=1e-12)

    def test_fast_state_matches_simulator(self):
        ansatz = UCCSDAnsatz(3, 2)
        theta = 0.1 * np.arange(ansatz.n_parameters)
        bound = ansatz.circuit().bind(theta)
        psi_whole = StatevectorSimulator(6).run(bound).statevector()
        psi_circ = StatevectorSimulator(6).run(
            bound.decomposed()).statevector()
        assert _overlap(psi_whole, psi_circ) == pytest.approx(1.0, abs=1e-10)
