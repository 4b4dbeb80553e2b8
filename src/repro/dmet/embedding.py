"""Embedding Hamiltonians: projecting the full problem into fragment+bath.

Interacting-bath DMET: the two-electron integrals are transformed exactly
into the embedding space (O(N^5) quarter transforms), the frozen core enters
through its Coulomb/exchange mean field, and the fragment block can carry a
chemical-potential shift -mu (the knob the DMET loop turns to conserve the
global electron count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.mo import transform_eri
from repro.chem.scf import build_jk
from repro.dmet.bath import EmbeddingBasis
from repro.dmet.orthogonalize import OrthogonalSystem


@dataclass
class EmbeddingProblem:
    """One fragment's embedded many-body problem.

    Attributes
    ----------
    h1_bare:
        T^t h T - used by the democratic-partitioning energy.
    h1:
        T^t (h + J(P_core) - K(P_core)/2) T - the solver's one-body part
        (before the chemical-potential shift).
    h2:
        Embedding-space two-electron integrals (chemists').
    n_electrons:
        Electrons in the embedding space.
    basis:
        The :class:`EmbeddingBasis` this problem was built in.
    """

    h1_bare: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    n_electrons: int
    basis: EmbeddingBasis

    @property
    def n_orbitals(self) -> int:
        return self.h1.shape[0]

    def h1_with_mu(self, mu: float) -> np.ndarray:
        """One-body matrix with -mu on the fragment diagonal."""
        h = self.h1.copy()
        for f in range(self.basis.n_fragment):
            h[f, f] -= mu
        return h

    def core_veff_emb(self) -> np.ndarray:
        """The core's effective potential in the embedding basis."""
        return self.h1 - self.h1_bare


def build_embedding_hamiltonian(system: OrthogonalSystem,
                                basis: EmbeddingBasis) -> EmbeddingProblem:
    """Project the full Hamiltonian into a fragment's embedding space."""
    t = basis.transform
    h1_bare = t.T @ system.h1 @ t
    j, k = build_jk(system.h2, basis.core_density)
    h1 = t.T @ (system.h1 + j - 0.5 * k) @ t
    return EmbeddingProblem(
        h1_bare=h1_bare,
        h1=h1,
        h2=transform_eri(system.h2, t),
        n_electrons=basis.n_electrons,
        basis=basis,
    )
