"""Lowdin orthogonalization: AO integrals -> orthonormal local orbitals.

DMET fragments are defined as subsets of *orthonormal* local orbitals.  For
ab initio systems we symmetrically orthogonalize the AO basis (S^-1/2),
which keeps orbitals maximally similar to the original AOs and therefore
atom-assignable; lattice models are already orthonormal and pass through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from repro.common.errors import ValidationError
from repro.chem.mo import transform_eri
from repro.chem.scf import SCFResult, build_jk


@dataclass
class OrthogonalSystem:
    """A full system expressed in an orthonormal orbital basis.

    Attributes
    ----------
    h1, h2:
        One-/two-electron integrals (chemists') in the orthonormal basis.
    constant:
        Scalar energy (nuclear repulsion etc.).
    n_electrons:
        Total electron count.
    density:
        Spin-summed idempotent/2 mean-field density matrix in this basis.
    orbital_atoms:
        Atom (or site) index owning each orbital - drives fragmentation.
    """

    h1: np.ndarray
    h2: np.ndarray
    constant: float
    n_electrons: int
    density: np.ndarray
    orbital_atoms: list[int] = field(default_factory=list)

    @property
    def n_orbitals(self) -> int:
        return self.h1.shape[0]

    def mean_field_energy(self) -> float:
        """HF energy evaluated from the stored density (consistency check)."""
        j, k = build_jk(self.h2, self.density)
        f = self.h1 + j - 0.5 * k
        return float(self.constant
                     + 0.5 * np.einsum("pq,pq->", self.density, self.h1 + f))


def lowdin_orthogonalize(scf_result: SCFResult) -> OrthogonalSystem:
    """Build an :class:`OrthogonalSystem` from a converged RHF result."""
    s = scf_result.overlap
    evals, evecs = sla.eigh(s)
    if evals.min() < 1e-10:
        raise ValidationError("singular overlap matrix")
    s_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    s_inv_half = evecs @ np.diag(evals ** -0.5) @ evecs.T

    # S^-1/2 from eigh is symmetric only to the last bit, so this is not
    # ao_to_mo's C^T h C: one ulp in h moves budget-stopped VQE fragments
    h_lao = s_inv_half @ scf_result.core_hamiltonian @ s_inv_half
    p_lao = s_half @ scf_result.density @ s_half
    return OrthogonalSystem(
        h1=h_lao,
        h2=transform_eri(scf_result.eri, s_inv_half),
        constant=scf_result.nuclear_repulsion,
        n_electrons=2 * scf_result.n_occupied,
        density=p_lao,
        orbital_atoms=[lab[4] for lab in scf_result.ao_labels],
    )


def from_lattice(lattice) -> OrthogonalSystem:
    """Orthogonal system from a :class:`repro.chem.lattice.LatticeHamiltonian`.

    Runs a small restricted mean-field in the (already orthonormal) site
    basis to obtain the DMET low-level density.
    """
    from repro.dmet.solvers import orthonormal_rhf_density

    density, _ = orthonormal_rhf_density(lattice.h1, lattice.h2,
                                         lattice.n_electrons)
    return OrthogonalSystem(
        h1=lattice.h1,
        h2=lattice.h2,
        constant=lattice.constant,
        n_electrons=lattice.n_electrons,
        density=density,
        orbital_atoms=list(range(lattice.n_sites)),
    )
