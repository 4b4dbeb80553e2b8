"""Electronic-structure substrate (the role PySCF plays in the paper).

Implements from scratch: Gaussian-basis one-/two-electron integrals
(McMurchie-Davidson), restricted Hartree-Fock, AO->MO transformations,
determinant FCI, spin-orbital CCSD, and model lattice Hamiltonians used for
the C18 substitution experiment.
"""

from repro.chem.periodic import ELEMENTS, atomic_number
from repro.chem.geometry import (
    Atom,
    Molecule,
    PointCharge,
    hydrogen_chain,
    hydrogen_ring,
    carbon_ring,
)
from repro.chem.basis import BasisSet, BasisShell, get_basis
from repro.chem.integrals import IntegralEngine
from repro.chem.scf import RHF, SCFResult
from repro.chem.mo import MOIntegrals, spatial_to_spin_orbital
from repro.chem.fci import FCISolver, FCIResult
from repro.chem.davidson import davidson, DavidsonResult
from repro.chem.ccsd import CCSDSolver, CCSDResult
from repro.chem.lattice import hubbard_ring, ppp_carbon_ring, LatticeHamiltonian

__all__ = [
    "ELEMENTS",
    "atomic_number",
    "Atom",
    "Molecule",
    "PointCharge",
    "hydrogen_chain",
    "hydrogen_ring",
    "carbon_ring",
    "BasisSet",
    "BasisShell",
    "get_basis",
    "IntegralEngine",
    "RHF",
    "SCFResult",
    "MOIntegrals",
    "spatial_to_spin_orbital",
    "FCISolver",
    "FCIResult",
    "davidson",
    "DavidsonResult",
    "CCSDSolver",
    "CCSDResult",
    "hubbard_ring",
    "ppp_carbon_ring",
    "LatticeHamiltonian",
]
