"""Quantum-circuit IR, ansatz builders and circuit-level transformations."""

from repro.circuits.gates import (
    GATE_MATRICES,
    PARAMETRIC,
    Gate,
    controlled_pauli_gate,
)
from repro.circuits.circuit import Circuit, ParamRef
from repro.circuits.trotter import (
    pauli_exponential,
    pauli_rotation_circuit,
    pauli_rotation_gate,
)
from repro.circuits.uccsd import UCCSDAnsatz, uccsd_circuit
from repro.circuits.hea import brick_ansatz, random_brick_circuit
from repro.circuits.fusion import fuse_single_qubit_gates

__all__ = [
    "Gate",
    "GATE_MATRICES",
    "PARAMETRIC",
    "controlled_pauli_gate",
    "Circuit",
    "ParamRef",
    "pauli_exponential",
    "pauli_rotation_circuit",
    "pauli_rotation_gate",
    "UCCSDAnsatz",
    "uccsd_circuit",
    "brick_ansatz",
    "random_brick_circuit",
    "fuse_single_qubit_gates",
]
