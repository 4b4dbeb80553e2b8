"""Shared fixtures: small molecules solved once per test session.

Every RHF/integral/FCI result flows through one session-scoped cache
(:func:`solved_molecule`), so a molecule+basis pair is solved at most once
no matter how many modules use it - test files must not call ``RHF(...)``
directly unless the SCF procedure itself is under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import geometry
from repro.chem.scf import RHF
from repro.chem import mo as momod
from repro.chem.fci import FCISolver


class SolvedMolecule:
    """Bundle of everything the tests need about one molecule."""

    def __init__(self, molecule, basis: str = "sto-3g"):
        self.molecule = molecule
        rhf = RHF(molecule, basis)
        self.rhf = rhf
        self.scf = rhf.run()
        self.mo = momod.from_scf(self.scf)
        self._fci = None
        self._hamiltonian = None
        self._uccsd_circuit = None

    @property
    def fci(self):
        if self._fci is None:
            self._fci = FCISolver(self.mo).solve()
        return self._fci

    @property
    def qubit_hamiltonian(self):
        """Jordan-Wigner qubit Hamiltonian (built once per session)."""
        if self._hamiltonian is None:
            from repro.operators.molecular import (
                molecular_qubit_hamiltonian,
            )

            self._hamiltonian = molecular_qubit_hamiltonian(self.mo)
        return self._hamiltonian

    @property
    def uccsd_circuit(self):
        """Flattened UCCSD ansatz circuit (built once per session).

        Shared by the VQE, gradient and counter-budget suites so the
        Trotterized gate stream is synthesized at most once per
        molecule per test session.
        """
        if self._uccsd_circuit is None:
            from repro.circuits.uccsd import UCCSDAnsatz

            self._uccsd_circuit = UCCSDAnsatz(
                self.mo.n_orbitals, self.mo.n_electrons).circuit()
        return self._uccsd_circuit


#: session-wide cache: (molecule name, geometry hash, basis) -> SolvedMolecule
_SOLVED: dict[tuple, SolvedMolecule] = {}


def _solve_cached(molecule, basis: str = "sto-3g") -> SolvedMolecule:
    key = (basis, molecule.charge,
           tuple(a.symbol for a in molecule.atoms),
           tuple(np.asarray(molecule.coordinates).reshape(-1).round(10)))
    hit = _SOLVED.get(key)
    if hit is None:
        hit = SolvedMolecule(molecule, basis)
        _SOLVED[key] = hit
    return hit


@pytest.fixture(scope="session")
def solved_molecule():
    """Factory fixture: ``solved_molecule(molecule, basis="sto-3g")``.

    Returns the session-cached :class:`SolvedMolecule` for any geometry a
    test builds ad hoc, so repeated RHF + integral + (lazy) FCI work is
    paid once per session.
    """
    return _solve_cached


@pytest.fixture(scope="session")
def h2():
    """H2/STO-3G at the experimental bond length."""
    return _solve_cached(geometry.h2(0.7414))


@pytest.fixture(scope="session")
def h4_ring():
    """H4 ring/STO-3G (the smallest DMET workload)."""
    return _solve_cached(geometry.hydrogen_ring(4, 1.0))


@pytest.fixture(scope="session")
def h6_ring():
    """H6 ring/STO-3G (nontrivial DMET accuracy check)."""
    return _solve_cached(geometry.hydrogen_ring(6, 1.0))


@pytest.fixture(scope="session")
def lih():
    """LiH/STO-3G (12 qubits; exercises p functions)."""
    return _solve_cached(geometry.lih())


@pytest.fixture(scope="session")
def water():
    """H2O/STO-3G (14 qubits; the paper's Fig. 8/9 workload)."""
    return _solve_cached(geometry.water())


@pytest.fixture()
def rng():
    return np.random.default_rng(20220914)
