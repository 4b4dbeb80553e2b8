"""Variational quantum eigensolver on top of the circuit simulators.

Implements the paper's VQE pipeline: one prepared ansatz state per theta,
every Pauli string of the qubit Hamiltonian measured on it in one batched
call.  The paper's own scheme - one ancilla Hadamard-test circuit per
string over the memory-efficient shared ansatz storage of Sec. III-D - is
reproduced by :mod:`repro.vqe.circuit_store`.
"""

from repro.vqe.energy import EnergyEvaluator
from repro.vqe.circuit_store import (
    ReplicatedCircuitStore,
    SharedAnsatzCircuitStore,
)
from repro.vqe.optimizers import (
    OptimizationResult,
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
    "ReplicatedCircuitStore",
    "SharedAnsatzCircuitStore",
    "OptimizationResult",
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
