"""Noise channels for the density-matrix simulator.

The paper motivates classical VQE simulation by the noisiness of real
hardware ("the errors of quantum gate operations are often dependent on the
types of the gates as well as the qubits that they act on").  The
density-matrix simulator can carry exactly that: Kraus channels applied
after each gate, with per-gate-type error rates.  The noisy-VQE tests show
the energy degrading smoothly with the error rate - the cross-verification
role the paper assigns to classical simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.operators.pauli import PAULI_MATRICES
from repro.simulators.density_matrix import DensityMatrixSimulator

_I, _X, _Y, _Z = (PAULI_MATRICES[ch] for ch in "IXYZ")


def depolarizing_channel(p: float) -> list[np.ndarray]:
    """Single-qubit depolarizing channel with error probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"error probability {p} outside [0, 1]")
    return [
        np.sqrt(1.0 - 3.0 * p / 4.0) * _I,
        np.sqrt(p / 4.0) * _X,
        np.sqrt(p / 4.0) * _Y,
        np.sqrt(p / 4.0) * _Z,
    ]


def amplitude_damping_channel(gamma: float) -> list[np.ndarray]:
    """T1 relaxation: |1> decays to |0> with probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_channel(lam: float) -> list[np.ndarray]:
    """Pure dephasing (T2) with rate lam."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"dephasing rate {lam} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(lam)]], dtype=complex)
    return [k0, k1]


def check_kraus(kraus: list[np.ndarray], tolerance: float = 1e-10) -> None:
    """Validate the completeness relation sum_k K+ K = I."""
    dim = kraus[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus)
    if not np.allclose(total, np.eye(dim), atol=tolerance):
        raise ValidationError("Kraus operators do not sum to identity")


def apply_channel(sim: DensityMatrixSimulator, kraus: list[np.ndarray],
                  qubit: int) -> None:
    """rho -> sum_k K rho K+ on one qubit of a DM simulator."""
    if qubit < 0 or qubit >= sim.n_qubits:
        raise ValidationError(f"qubit {qubit} out of range")
    check_kraus(kraus)
    n = sim.n_qubits
    rho = sim.rho
    out = np.zeros_like(rho)
    for k in kraus:
        term = np.tensordot(k, rho, axes=([1], [qubit]))
        term = np.moveaxis(term, 0, qubit)
        term = np.tensordot(np.conj(k), term, axes=([1], [n + qubit]))
        term = np.moveaxis(term, 0, n + qubit)
        out += term
    sim.rho = out


@dataclass
class NoiseModel:
    """Per-gate-class error rates (the paper's gate/qubit-dependent noise).

    Attributes
    ----------
    one_qubit_depolarizing / two_qubit_depolarizing:
        Depolarizing probability applied to every qubit a gate touches,
        keyed by gate arity (two-qubit gates are noisier on real devices).
    amplitude_damping:
        Optional T1 decay applied alongside the depolarizing error.
    """

    one_qubit_depolarizing: float = 0.0
    two_qubit_depolarizing: float = 0.0
    amplitude_damping: float = 0.0

    def channels_for(self, n_gate_qubits: int) -> list[list[np.ndarray]]:
        out = []
        p = (self.one_qubit_depolarizing if n_gate_qubits == 1
             else self.two_qubit_depolarizing)
        if p > 0.0:
            out.append(depolarizing_channel(p))
        if self.amplitude_damping > 0.0:
            out.append(amplitude_damping_channel(self.amplitude_damping))
        return out


def run_noisy(circuit: Circuit, noise: NoiseModel, *,
              max_qubits: int = 13) -> DensityMatrixSimulator:
    """Simulate a bound circuit with noise after every gate."""
    sim = DensityMatrixSimulator(circuit.n_qubits, max_qubits=max_qubits)
    for gate in circuit.decomposed().gates:
        sim.apply_gate(gate)
        for channel in noise.channels_for(gate.n_qubits):
            for q in gate.qubits:
                apply_channel(sim, channel, q)
    return sim
