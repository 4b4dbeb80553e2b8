"""Fermion/qubit operator algebra (the role OpenFermion plays in the paper).

Pauli strings use a symplectic (x_mask, z_mask) bitmask representation so
products, commutation checks and matrix embeddings are O(1) bit operations
regardless of qubit count.
"""

from repro.operators.pauli import PauliTerm, QubitOperator, pauli_string
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.bravyi_kitaev import bravyi_kitaev
from repro.operators.molecular import (
    molecular_fermion_operator,
    molecular_qubit_hamiltonian,
)

__all__ = [
    "PauliTerm",
    "QubitOperator",
    "pauli_string",
    "FermionOperator",
    "jordan_wigner",
    "bravyi_kitaev",
    "molecular_fermion_operator",
    "molecular_qubit_hamiltonian",
]
