"""Variational quantum eigensolver on top of the circuit simulators.

Implements the paper's VQE pipeline: the qubit Hamiltonian is split into
Pauli strings, each measured by its own circuit (optionally via the
paper-faithful ancilla Hadamard test), with the memory-efficient shared
ansatz storage of Sec. III-D.
"""

from repro.vqe.energy import EnergyEvaluator, hadamard_test_circuit
from repro.vqe.circuit_store import (
    ReplicatedCircuitStore,
    SharedAnsatzCircuitStore,
)
from repro.vqe.optimizers import (
    OptimizationResult,
    minimize_spsa,
    minimize_adam,
    minimize_scipy,
)
from repro.vqe.gradients import (
    GRADIENT_SOURCES,
    GradientSource,
    adjoint_gradient,
    finite_diff_gradient,
    make_gradient,
    param_shift_gradient,
)
from repro.vqe.vqe import VQE, VQEResult
from repro.vqe.rdm import measure_rdms

__all__ = [
    "EnergyEvaluator",
    "hadamard_test_circuit",
    "ReplicatedCircuitStore",
    "SharedAnsatzCircuitStore",
    "OptimizationResult",
    "minimize_spsa",
    "minimize_adam",
    "minimize_scipy",
    "GRADIENT_SOURCES",
    "GradientSource",
    "adjoint_gradient",
    "finite_diff_gradient",
    "make_gradient",
    "param_shift_gradient",
    "VQE",
    "VQEResult",
    "measure_rdms",
]
