"""High-level facade: the Q2Chemistry API.

One object wires the whole pipeline together the way the paper's Fig. 3
flowchart does: molecule -> integrals -> RHF -> (optionally DMET
fragmentation) -> qubit Hamiltonians -> (MPS-)VQE -> energy.  Lattice models
(Hubbard / PPP) enter the same pipeline through :meth:`from_lattice`.
DMET fragments are solved in-line, or on worker processes when
:meth:`Q2Chemistry.dmet_energy` gets ``n_workers > 1``.

Example
-------
>>> from repro import q2chem
>>> from repro.chem.geometry import h2
>>> job = q2chem.Q2Chemistry.from_molecule(h2(), basis="sto-3g")
>>> result = job.vqe_energy()            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.chem.geometry import Molecule
from repro.chem.scf import RHF, SCFResult
from repro.chem import mo as momod
from repro.chem.fci import FCISolver
from repro.chem.ccsd import CCSDSolver
from repro.chem.lattice import LatticeHamiltonian
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.circuits.uccsd import UCCSDAnsatz
from repro.vqe.optimizers import DEFAULT_OPTIMIZER
from repro.vqe.vqe import VQE, VQEResult
from repro.dmet.orthogonalize import (
    OrthogonalSystem,
    from_lattice,
    lowdin_orthogonalize,
)
from repro.dmet.dmet import DMET, DMETResult, atoms_per_fragment
from repro.dmet.solvers import make_fragment_solver


@dataclass
class Q2Chemistry:
    """End-to-end quantum-computational-chemistry driver."""

    system: OrthogonalSystem
    scf: SCFResult | None = None
    mo_integrals: momod.MOIntegrals | None = None
    name: str = ""

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_molecule(cls, molecule: Molecule, basis: str = "sto-3g", *,
                      frozen_core: int = 0,
                      n_active_orbitals: int | None = None) -> "Q2Chemistry":
        """Run integrals + RHF and set up for VQE/DMET on a molecule."""
        scf = RHF(molecule, basis).run()
        system = lowdin_orthogonalize(scf)
        mo = momod.from_scf(scf, frozen_core=frozen_core,
                            n_active_orbitals=n_active_orbitals)
        return cls(system=system, scf=scf, mo_integrals=mo,
                   name=molecule.name or "molecule")

    @classmethod
    def from_lattice(cls, lattice: LatticeHamiltonian) -> "Q2Chemistry":
        """Set up on a model Hamiltonian (Hubbard / PPP)."""
        system = from_lattice(lattice)
        return cls(system=system, mo_integrals=lattice.to_mo_integrals(),
                   name=lattice.name)

    # -- single-shot solvers ------------------------------------------------------

    def hartree_fock_energy(self) -> float:
        if self.scf is not None:
            return self.scf.energy
        return self.system.mean_field_energy()

    def fci_energy(self) -> float:
        """Exact (FCI) energy of the active space - the validation baseline."""
        return FCISolver(self._mo()).solve().energy

    def ccsd_energy(self) -> float:
        """Spin-orbital CCSD energy of the active space."""
        return CCSDSolver(self._mo()).run().energy

    def qubit_hamiltonian(self, mapping: str = "jordan_wigner"):
        """Weighted-Pauli-string Hamiltonian of the active space."""
        return molecular_qubit_hamiltonian(self._mo(), mapping)

    def vqe_energy(self, *, simulator: str = "mps",
                   max_bond_dimension: int | None = None,
                   optimizer: str = DEFAULT_OPTIMIZER,
                   tolerance: float = 1e-8,
                   max_iterations: int = 4000, grad: str | None = None,
                   initial_parameters: np.ndarray | None = None,
                   observe: bool = False) -> VQEResult:
        """MPS-VQE (or SV-VQE) on the full active space.

        ``grad`` selects the gradient source for gradient-based
        optimizers ("adjoint" | "param_shift" | "finite_diff", see
        :mod:`repro.vqe.gradients`); ``None`` lets :class:`VQE` resolve
        it (the adjoint for the default "l-bfgs-b" on "mps" /
        "statevector", scipy's own differences elsewhere).
        ``observe=True`` collects the
        :mod:`repro.obs` instrumentation for just this run and attaches
        the snapshot as ``result.metrics`` (see docs/OBSERVABILITY.md).
        """
        mo = self._mo()
        hamiltonian = molecular_qubit_hamiltonian(mo)
        ansatz = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons)
        vqe = VQE(hamiltonian, ansatz, simulator=simulator,
                  max_bond_dimension=max_bond_dimension,
                  optimizer=optimizer, tolerance=tolerance,
                  max_iterations=max_iterations, grad=grad)
        if observe:
            from repro import obs

            with obs.collect():
                return vqe.run(initial_parameters)
        return vqe.run(initial_parameters)

    # -- DMET ------------------------------------------------------------------------

    def dmet_energy(self, *, atoms_per_group: int = 2,
                    fragments: list[list[int]] | None = None,
                    solver: str = "fci",
                    max_bond_dimension: int | None = None,
                    mu_tolerance: float = 1e-5,
                    fit_chemical_potential: bool = True,
                    vqe_optimizer: str = DEFAULT_OPTIMIZER,
                    vqe_tolerance: float = 1e-7,
                    vqe_max_iterations: int = 4000,
                    n_workers: int = 1) -> DMETResult:
        """DMET with FCI or (MPS-)VQE fragment solvers.

        ``solver``: "fci" or "vqe-<backend>" for a backend of
        :data:`repro.backends.BACKENDS` (e.g. "vqe-statevector", "vqe-mps").
        ``n_workers=1`` solves the fragments in-line; ``n_workers > 1``
        solves distinct fragments on that many worker processes.  Fragments
        related by a symmetry of the system share one solve
        (:func:`repro.dmet.dmet.fragment_orbits`).
        """
        # built first: a bad solver name or budget fails before the system
        # is partitioned
        frag_solver = make_fragment_solver(
            solver, max_bond_dimension=max_bond_dimension,
            optimizer=vqe_optimizer, tolerance=vqe_tolerance,
            max_iterations=vqe_max_iterations)
        if fragments is None:
            fragments = atoms_per_fragment(self.system, atoms_per_group)
        dmet = DMET(self.system, fragments, frag_solver,
                    mu_tolerance=mu_tolerance, n_workers=n_workers)
        return dmet.run(fit_chemical_potential=fit_chemical_potential)

    # -- internals ----------------------------------------------------------------------

    def _mo(self) -> momod.MOIntegrals:
        if self.mo_integrals is None:
            raise ValidationError("no MO integrals available on this job")
        return self.mo_integrals


def binding_energy(ligand: Molecule, pocket_charges, *,
                   basis: str = "sto-3g", method: str = "dmet-fci",
                   atoms_per_group: int = 2, **kwargs) -> dict:
    """Frozen-field binding energy E_b = E(ligand in pocket) - E(ligand).

    The Sec. V protein-ligand pipeline: the protein environment enters as
    frozen point charges (our stand-in for the PDB 6lu7 pocket - see
    DESIGN.md substitution #5); both energies run through the same
    DMET/VQE machinery and E_b < 0 means binding.
    """
    from repro.chem.geometry import PointCharge

    charges = [pc if isinstance(pc, PointCharge) else PointCharge(*pc)
               for pc in pocket_charges]
    bound = ligand.with_point_charges(charges)

    energies = {}
    for tag, mol in (("free", ligand), ("bound", bound)):
        job = Q2Chemistry.from_molecule(mol, basis=basis)
        if method == "hf":
            energies[tag] = job.hartree_fock_energy()
        elif method == "fci":
            energies[tag] = job.fci_energy()
        elif method.startswith("dmet"):
            solver = method.split("-", 1)[1] if "-" in method else "fci"
            res = job.dmet_energy(atoms_per_group=atoms_per_group,
                                  solver=solver, **kwargs)
            energies[tag] = res.energy
        else:
            raise ValidationError(f"unknown binding method {method!r}")
    # the pocket's self-energy is constant and cancels; nuclear-charge
    # interaction is included via Molecule.nuclear_repulsion
    return {
        "e_free": energies["free"],
        "e_bound": energies["bound"],
        "binding_energy": energies["bound"] - energies["free"],
    }
