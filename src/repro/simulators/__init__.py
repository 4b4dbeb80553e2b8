"""Quantum-state simulators: state vector, density matrix, and MPS.

The MPS simulator implements the paper's core algorithm (Sec. III-A,
Eqs. 6-11); the other two are the exponential-memory baselines of Fig. 2(c).
All simulators share the circuit IR and agree with one another to machine
precision on every circuit they can all afford, which the test-suite
enforces on random circuits.
"""

from repro.simulators.kernels import (
    KernelBackend,
    get_backend,
    tensordot_fused,
    svd_truncated,
)
from repro.simulators.pauli_kernels import (
    CompiledObservable,
    PauliAction,
    compile_observable,
)
from repro.simulators.statevector import StatevectorSimulator
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.mps import MPS, TruncationStats
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.mpo import MPO
from repro.simulators.dmrg import DMRG, DMRGResult

__all__ = [
    "MPO",
    "DMRG",
    "DMRGResult",
    "CompiledObservable",
    "PauliAction",
    "compile_observable",
    "KernelBackend",
    "get_backend",
    "tensordot_fused",
    "svd_truncated",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "MPS",
    "TruncationStats",
    "MPSSimulator",
]
