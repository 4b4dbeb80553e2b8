"""Molecular Hamiltonians: integrals -> fermion operator -> qubit operator.

Implements Eq. (1) of the paper in the interleaved spin-orbital convention
(spin orbital 2p = alpha of spatial p, 2p+1 = beta) and maps it to the
weighted-Pauli-string form of Eq. (2) with Jordan-Wigner or Bravyi-Kitaev.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.chem.mo import MOIntegrals, spatial_to_spin_orbital
from repro.operators.fermion import FermionOperator
from repro.operators.pauli import QubitOperator
from repro.operators.jordan_wigner import jordan_wigner_arrays
from repro.operators.bravyi_kitaev import bravyi_kitaev


def _ladder_groups(mo: MOIntegrals, tolerance: float = 1e-12) -> list:
    """Eq. (1) as :func:`~repro.operators.fermion.ladder_arrays` groups:

    H = const + sum_pq h_pq a+_p a_q
             + 1/2 sum_pqrs (pq|rs) a+_p(sig) a+_r(tau) a_s(tau) a_q(sig)

    with the terms above ``tolerance`` in C order of (p, q) and (p, q, r, s).
    """
    h1, h2, const = spatial_to_spin_orbital(mo)
    one = np.argwhere(np.abs(h1) > tolerance)
    two = np.argwhere(np.abs(h2) > tolerance)
    c0 = [const] if abs(const) > tolerance else []
    tables = [(np.zeros((len(c0), 0), int), np.array(c0), ()),
              (one, h1[tuple(one.T)], (1, 0)),
              (two[:, [0, 2, 3, 1]], 0.5 * h2[tuple(two.T)], (1, 1, 0, 0))]
    groups, start = [], 0
    for idx, coeff, flags in tables:
        lad = np.stack([idx, np.broadcast_to(np.array(flags, int), idx.shape)], -1)
        groups.append((start + np.arange(len(idx)), lad, coeff))
        start += len(idx)
    return groups


def molecular_fermion_operator(mo: MOIntegrals,
                               tolerance: float = 1e-12) -> FermionOperator:
    """Second-quantized Hamiltonian from spatial MO integrals (Eq. 1)."""
    return FermionOperator({tuple(map(tuple, ops)): c
                            for _, lad, coeff in _ladder_groups(mo, tolerance)
                            for ops, c in zip(lad.tolist(), coeff)})


def molecular_qubit_hamiltonian(mo: MOIntegrals, mapping: str = "jordan_wigner",
                                tolerance: float = 1e-10) -> QubitOperator:
    """Qubit Hamiltonian of an active space under the chosen encoding.

    The paper notes the Pauli-string count scales as O(N_q^4) - e.g. 15
    strings for H2/STO-3G (Fig. 5), 330816 for benzene at 72 qubits.
    Jordan-Wigner maps the integral arrays, not a :class:`FermionOperator`.
    """
    if mapping in ("jordan_wigner", "jw"):
        return jordan_wigner_arrays(_ladder_groups(mo), tolerance)
    if mapping in ("bravyi_kitaev", "bk"):
        return bravyi_kitaev(molecular_fermion_operator(mo),
                             n_qubits=mo.n_qubits, tolerance=tolerance)
    raise ValidationError(f"unknown mapping {mapping!r}")
