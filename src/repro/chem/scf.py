"""Restricted Hartree-Fock with DIIS convergence acceleration.

This is the "low-level calculation for the whole system" of the paper's DMET
procedure (Sec. III-B step 1) and the provider of the molecular-orbital basis
for every VQE Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from repro.common.errors import ConvergenceError, ValidationError
from repro.chem.geometry import Molecule
from repro.chem.basis import BasisSet, get_basis
from repro.chem.integrals import IntegralEngine


@dataclass
class SCFResult:
    """Converged RHF state.

    Attributes
    ----------
    energy:
        Total RHF energy (electronic + nuclear, Hartree).
    mo_coefficients:
        (n_ao, n_mo) MO coefficient matrix C.
    mo_energies:
        Orbital energies.
    density:
        Spin-summed AO density matrix D = 2 C_occ C_occ^T.
    n_occupied:
        Number of doubly-occupied spatial orbitals.
    iterations:
        SCF iterations used.
    eri:
        The AO ERI the SCF ran on (chemists'; the engine's read-only array).
    ao_labels:
        The basis's AO labels; ``label[4]`` is the owning atom.
    converged:
        Always True for returned results (failure raises).
    """

    energy: float
    mo_coefficients: np.ndarray
    mo_energies: np.ndarray
    density: np.ndarray
    fock: np.ndarray
    overlap: np.ndarray
    core_hamiltonian: np.ndarray
    nuclear_repulsion: float
    n_occupied: int
    iterations: int
    eri: np.ndarray = field(repr=False, compare=False)
    ao_labels: list = field(repr=False, compare=False)
    converged: bool = True

    @property
    def n_ao(self) -> int:
        return self.mo_coefficients.shape[0]

    @property
    def n_mo(self) -> int:
        return self.mo_coefficients.shape[1]


#: Iterates (and error vectors) a DIIS extrapolation mixes.
DIIS_SIZE = 8


def build_jk(eri: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb J and exchange K matrices from chemists' ERIs and a density."""
    j = np.einsum("pqrs,rs->pq", eri, density, optimize=True)
    k = np.einsum("prqs,rs->pq", eri, density, optimize=True)
    return j, k


class DIIS:
    """Pulay's DIIS over the last :data:`DIIS_SIZE` iterates.

    The error overlap matrix is kept between calls, so each call computes
    only the new error's row and column (each entry the ``np.vdot`` a full
    rebuild would compute, so the extrapolation is bitwise the same).
    """

    def __init__(self):
        self.vectors: list[np.ndarray] = []
        self.errors: list[np.ndarray] = []
        self.overlap = np.empty((0, 0))

    def extrapolate(self, vector: np.ndarray,
                    error: np.ndarray) -> np.ndarray | None:
        """Store (``vector``, ``error``), dropping the oldest pair past
        :data:`DIIS_SIZE`, and return the combination of the stored vectors
        whose weights sum to one and minimise the norm of the same
        combination of errors; None with one pair stored or a singular
        overlap."""
        if len(self.vectors) == DIIS_SIZE:
            del self.vectors[0], self.errors[0]
            self.overlap = self.overlap[1:, 1:]
        self.vectors.append(vector)
        self.errors.append(error)
        m = len(self.vectors)
        overlap = np.empty((m, m))
        overlap[:-1, :-1] = self.overlap
        for i, e in enumerate(self.errors):
            overlap[i, -1] = np.vdot(e, error)
            overlap[-1, i] = np.vdot(error, e)
        self.overlap = overlap
        if m < 2:
            return None
        b = -np.ones((m + 1, m + 1))
        b[m, m] = 0.0
        b[:m, :m] = overlap
        rhs = np.zeros(m + 1)
        rhs[m] = -1.0
        try:
            coeff = np.linalg.solve(b, rhs)
        except np.linalg.LinAlgError:
            return None
        out = np.zeros_like(self.vectors[0])
        for i in range(m):
            out += coeff[i] * self.vectors[i]
        return out


class RHF:
    """Restricted Hartree-Fock driver.

    Parameters
    ----------
    molecule:
        Target molecule (must have an even number of electrons).
    basis:
        Basis-set name or a prebuilt :class:`BasisSet`.
    max_iterations, energy_tolerance, density_tolerance:
        Convergence controls.  The Fock matrix is DIIS-extrapolated from
        the last :data:`DIIS_SIZE` iterations.
    """

    def __init__(self, molecule: Molecule, basis: str | BasisSet = "sto-3g",
                 *, max_iterations: int = 200, energy_tolerance: float = 1e-10,
                 density_tolerance: float = 1e-8):
        if molecule.n_electrons % 2:
            raise ValidationError(
                "RHF requires an even electron count; got "
                f"{molecule.n_electrons}"
            )
        self.molecule = molecule
        self.basis = basis if isinstance(basis, BasisSet) else get_basis(molecule, basis)
        self.engine = IntegralEngine(molecule, self.basis)
        self.max_iterations = max_iterations
        self.energy_tolerance = energy_tolerance
        self.density_tolerance = density_tolerance

    def run(self) -> SCFResult:
        """Iterate to self-consistency; raises ConvergenceError on failure."""
        s, h, eri, e_nuc = self.engine.all_integrals()
        n_occ = self.molecule.n_electrons // 2
        if n_occ > self.basis.n_ao:
            raise ValidationError(
                f"{self.molecule.n_electrons} electrons do not fit in "
                f"{self.basis.n_ao} orbitals"
            )

        # symmetric (Lowdin) orthogonalization with linear-dependency guard
        evals, evecs = sla.eigh(s)
        if evals.min() < 1e-10:
            raise ValidationError(
                f"overlap matrix is singular (min eigenvalue {evals.min():.2e})"
            )
        x = evecs @ np.diag(evals ** -0.5) @ evecs.T

        # core guess
        f = h.copy()
        c, e_mo = self._diagonalize(f, x)
        d = self._density(c, n_occ)
        e_old = 0.0

        accelerator = DIIS()
        for it in range(1, self.max_iterations + 1):
            j, k = build_jk(eri, d)
            f = h + j - 0.5 * k
            extrapolated = accelerator.extrapolate(
                f, x.T @ (f @ d @ s - s @ d @ f) @ x)
            if extrapolated is not None:
                f = extrapolated
            c, e_mo = self._diagonalize(f, x)
            d_new = self._density(c, n_occ)
            e_elec = 0.5 * np.einsum("pq,pq->", d_new, h + f)
            e_total = e_elec + e_nuc
            de = abs(e_total - e_old)
            dd = np.max(np.abs(d_new - d))
            d, e_old = d_new, e_total
            if de < self.energy_tolerance and dd < self.density_tolerance:
                return SCFResult(
                    energy=float(e_total),
                    mo_coefficients=c,
                    mo_energies=e_mo,
                    density=d,
                    fock=f,
                    overlap=s,
                    core_hamiltonian=h,
                    nuclear_repulsion=e_nuc,
                    n_occupied=n_occ,
                    iterations=it,
                    eri=eri,
                    ao_labels=list(self.basis.ao_labels),
                )
        raise ConvergenceError(
            f"RHF did not converge in {self.max_iterations} iterations "
            f"(dE={de:.2e}, dD={dd:.2e})",
            iterations=self.max_iterations,
            residual=float(de),
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _diagonalize(f: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fp = x.T @ f @ x
        e, cp = sla.eigh(fp)
        return x @ cp, e

    @staticmethod
    def _density(c: np.ndarray, n_occ: int) -> np.ndarray:
        occ = c[:, :n_occ]
        return 2.0 * occ @ occ.T
