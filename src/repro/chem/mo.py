"""Molecular-orbital integrals, active spaces and spin-orbital conversion.

Bridges the AO world (SCF) and the second-quantized world (operators, VQE):
AO->MO transformation, frozen-core / active-space reduction (the paper
freezes carbon 1s orbitals in the Fig. 7b experiment), and conversion of
spatial MO integrals to the interleaved spin-orbital convention used by the
Jordan-Wigner pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.chem.scf import SCFResult


@dataclass
class MOIntegrals:
    """One-/two-electron integrals in a (possibly active-space) MO basis.

    Attributes
    ----------
    h1:
        (M, M) one-electron integrals, including any frozen-core mean field.
    h2:
        (M, M, M, M) two-electron integrals in chemists' notation (pq|rs).
    constant:
        Scalar: nuclear repulsion + frozen-core energy.
    n_electrons:
        Electrons in the active space.
    """

    h1: np.ndarray
    h2: np.ndarray
    constant: float
    n_electrons: int

    @property
    def n_orbitals(self) -> int:
        return self.h1.shape[0]

    @property
    def n_qubits(self) -> int:
        """Qubits required under the Jordan-Wigner mapping (2 per spatial MO)."""
        return 2 * self.n_orbitals


def transform_eri(eri: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(ij|kl) = sum_pqrs C_pi C_qj C_rk C_sl (pq|rs): the standard O(N^5)
    quarter-transformation chain, one index at a time."""
    g = np.einsum("pqrs,pi->iqrs", eri, c, optimize=True)
    g = np.einsum("iqrs,qj->ijrs", g, c, optimize=True)
    g = np.einsum("ijrs,rk->ijks", g, c, optimize=True)
    return np.einsum("ijks,sl->ijkl", g, c, optimize=True)


def ao_to_mo(h_ao: np.ndarray, eri_ao: np.ndarray,
             c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform AO integrals into the MO basis defined by coefficients C."""
    return c.T @ h_ao @ c, transform_eri(eri_ao, c)


def from_scf(scf: SCFResult, *, frozen_core: int = 0,
             n_active_orbitals: int | None = None) -> MOIntegrals:
    """Build MO integrals from a converged SCF, optionally in an active space.

    Parameters
    ----------
    frozen_core:
        Number of lowest (doubly-occupied) spatial MOs folded into the core.
    n_active_orbitals:
        Size of the active window starting right after the frozen core;
        ``None`` keeps all remaining orbitals.
    """
    c = scf.mo_coefficients
    n_mo = c.shape[1]
    if frozen_core < 0 or frozen_core > scf.n_occupied:
        raise ValidationError(
            f"frozen_core={frozen_core} invalid for {scf.n_occupied} occupied"
        )
    if n_active_orbitals is None:
        n_active_orbitals = n_mo - frozen_core
    last = frozen_core + n_active_orbitals
    if last > n_mo:
        raise ValidationError(
            f"active window [{frozen_core}, {last}) exceeds {n_mo} orbitals"
        )
    # electrons in the active space
    n_elec = 2 * scf.n_occupied - 2 * frozen_core
    if n_elec < 0:
        raise ValidationError("frozen core exceeds electron count")
    if n_elec > 2 * n_active_orbitals:
        raise ValidationError(
            f"{n_elec} active electrons exceed capacity of "
            f"{n_active_orbitals} active orbitals"
        )

    # full MO transform once; slice afterwards (clarity over peak efficiency
    # at the problem sizes we run ab initio)
    h_mo, g_mo = ao_to_mo(scf.core_hamiltonian, scf.eri, c)

    core = list(range(frozen_core))
    active = list(range(frozen_core, last))

    e_core = scf.nuclear_repulsion
    h_eff = h_mo.copy()
    for i in core:
        e_core += 2.0 * h_mo[i, i]
        for j in core:
            e_core += 2.0 * g_mo[i, i, j, j] - g_mo[i, j, j, i]
    if core:
        for p in range(n_mo):
            for q in range(n_mo):
                v = 0.0
                for i in core:
                    v += 2.0 * g_mo[p, q, i, i] - g_mo[p, i, i, q]
                h_eff[p, q] += v

    h1 = h_eff[np.ix_(active, active)]
    h2 = g_mo[np.ix_(active, active, active, active)]
    return MOIntegrals(h1=h1, h2=h2, constant=float(e_core), n_electrons=n_elec)


def spatial_to_spin_orbital(mo: MOIntegrals) -> tuple[np.ndarray, np.ndarray, float]:
    """Expand spatial MO integrals to interleaved spin orbitals.

    Returns ``(h1_so, h2_so, constant)`` where spin orbital ``2p`` is the
    alpha component of spatial orbital ``p`` and ``2p+1`` the beta one.
    ``h2_so`` stays in chemists' notation: (pq|rs) with p,q,r,s spin orbitals,
    nonzero only when spin(p)==spin(q) and spin(r)==spin(s).
    """
    n = mo.n_qubits
    h1 = np.zeros((n, n))
    h2 = np.zeros((n, n, n, n))
    for sp in (0, 1):
        h1[sp::2, sp::2] = mo.h1
        for sr in (0, 1):
            h2[sp::2, sp::2, sr::2, sr::2] = mo.h2 + 0.0  # -0.0 stored as +0.0
    return h1, h2, mo.constant


def antisymmetrized_physicist(h2_so: np.ndarray) -> np.ndarray:
    """<pq||rs> = <pq|rs> - <pq|sr> from chemists' spin-orbital (pr|qs).

    Input is chemists' notation (pq|rs); output is the antisymmetrized
    physicists' tensor used by CCSD and the FermionOperator builder.
    """
    # physicists' <pq|rs> = chemists' (pr|qs)
    phys = h2_so.transpose(0, 2, 1, 3)
    return phys - phys.transpose(0, 1, 3, 2)
