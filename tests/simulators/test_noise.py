"""Tests for noise channels and noisy-VQE behaviour."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.noise import (
    NoiseModel,
    amplitude_damping_channel,
    apply_channel,
    check_kraus,
    depolarizing_channel,
    phase_damping_channel,
    run_noisy,
)


class TestChannels:
    @pytest.mark.parametrize("maker,arg", [
        (depolarizing_channel, 0.1),
        (amplitude_damping_channel, 0.3),
        (phase_damping_channel, 0.2),
    ])
    def test_completeness(self, maker, arg):
        check_kraus(maker(arg))  # must not raise

    def test_invalid_probability(self):
        with pytest.raises(ValidationError):
            depolarizing_channel(1.5)
        with pytest.raises(ValidationError):
            amplitude_damping_channel(-0.1)

    def test_bad_kraus_detected(self):
        with pytest.raises(ValidationError):
            check_kraus([np.eye(2) * 0.5])

    def test_depolarizing_contracts_bloch_vector(self):
        sim = DensityMatrixSimulator(1)
        sim.apply_gate(Gate("H", (0,)))  # |+>
        from repro.operators.pauli import pauli_string

        before = sim.expectation_pauli(pauli_string("X"))
        apply_channel(sim, depolarizing_channel(0.2), 0)
        after = sim.expectation_pauli(pauli_string("X"))
        assert before == pytest.approx(1.0)
        assert after == pytest.approx(1.0 - 0.2)

    def test_amplitude_damping_decays_excited_state(self):
        sim = DensityMatrixSimulator(1)
        sim.apply_gate(Gate("X", (0,)))  # |1>
        apply_channel(sim, amplitude_damping_channel(0.4), 0)
        rho = sim.density_matrix()
        assert rho[1, 1].real == pytest.approx(0.6)
        assert rho[0, 0].real == pytest.approx(0.4)

    def test_trace_preserved(self):
        sim = DensityMatrixSimulator(2)
        sim.apply_gate(Gate("H", (0,)))
        sim.apply_gate(Gate("CX", (0, 1)))
        apply_channel(sim, depolarizing_channel(0.15), 0)
        apply_channel(sim, phase_damping_channel(0.25), 1)
        assert np.trace(sim.density_matrix()).real == pytest.approx(1.0)

    def test_purity_decreases(self):
        sim = DensityMatrixSimulator(2)
        sim.apply_gate(Gate("H", (0,)))
        assert sim.purity() == pytest.approx(1.0)
        apply_channel(sim, depolarizing_channel(0.2), 0)
        assert sim.purity() < 1.0


class TestNoisyCircuits:
    def test_zero_noise_matches_exact(self):
        c = Circuit(2, [Gate("H", (0,)), Gate("CX", (0, 1))])
        noiseless = run_noisy(c, NoiseModel())
        exact = DensityMatrixSimulator(2).run(c)
        assert np.allclose(noiseless.density_matrix(),
                           exact.density_matrix(), atol=1e-12)

    def test_vqe_energy_degrades_smoothly(self, h2):
        """Noisy VQE energies rise monotonically with the error rate."""
        from repro.circuits.uccsd import UCCSDAnsatz
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.vqe.vqe import VQE

        ham = molecular_qubit_hamiltonian(h2.mo)
        vqe = VQE(ham, UCCSDAnsatz(2, 2), simulator="statevector")
        theta = vqe.run().parameters
        circ = UCCSDAnsatz(2, 2).circuit().bind(theta)

        energies = []
        for p in (0.0, 1e-3, 5e-3, 2e-2):
            sim = run_noisy(circ, NoiseModel(one_qubit_depolarizing=p,
                                             two_qubit_depolarizing=2 * p))
            energies.append(sim.expectation(ham))
        assert energies[0] == pytest.approx(h2.fci.energy, abs=1e-6)
        assert energies == sorted(energies)  # noise only raises the energy
        assert energies[-1] > h2.fci.energy + 1e-3

    def test_two_qubit_noise_dominates(self, h2):
        """CNOT-heavy circuits suffer more from 2q noise than 1q noise."""
        from repro.circuits.uccsd import UCCSDAnsatz
        from repro.operators.molecular import molecular_qubit_hamiltonian

        ham = molecular_qubit_hamiltonian(h2.mo)
        circ = UCCSDAnsatz(2, 2).circuit().bind(np.array([0.1, -0.2]))
        e_1q = run_noisy(circ, NoiseModel(
            one_qubit_depolarizing=1e-3)).expectation(ham)
        e_2q = run_noisy(circ, NoiseModel(
            two_qubit_depolarizing=1e-3)).expectation(ham)
        exact = run_noisy(circ, NoiseModel()).expectation(ham)
        assert abs(e_2q - exact) > abs(e_1q - exact)
