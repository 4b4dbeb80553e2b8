"""Full-table FCI sigma: the oracle of the pair-packed Davidson sigma.

This is :meth:`repro.chem.fci.FCISolver._sigma`'s former implementation,
kept as a test oracle: every ordered orbital pair (p, q) of the m^2 gets its
own block of the sparse e_pq tables, E_pq v is a sparse product, and the
two-body GEMM runs over all m^2 pairs.  It assumes no symmetry of the
integrals and shares no table, index or buffer with the solver.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.chem.fci import occupation_strings
from repro.chem.mo import MOIntegrals


def excitation_tables(strings: list[int],
                      n_orbitals: int) -> tuple[csr_matrix, csr_matrix]:
    """E, rows (pq, I) by columns J, and F, rows I by columns (pq, J)."""
    ns = len(strings)
    index = {s: i for i, s in enumerate(strings)}
    links = []
    for j_idx, s in enumerate(strings):
        for q in range(n_orbitals):
            if not (s >> q) & 1:
                continue
            s1 = s & ~(1 << q)
            for p in range(n_orbitals):
                if (s1 >> p) & 1:
                    continue
                lo, hi = min(p, q), max(p, q)
                passed = bin(s1 & ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1))
                sign = -1.0 if passed.count("1") % 2 else 1.0
                links.append((p * n_orbitals + q, index[s1 | (1 << p)],
                              j_idx, sign))
    pq, i_idx, j_idx, sign = np.array(links).reshape(-1, 4).T
    pq, i_idx, j_idx = (x.astype(np.intp) for x in (pq, i_idx, j_idx))
    size = n_orbitals * n_orbitals * ns
    e = csr_matrix((sign, (pq * ns + i_idx, j_idx)), shape=(size, ns))
    f = csr_matrix((sign, (i_idx, pq * ns + j_idx)), shape=(ns, size))
    return e, f


class ReferenceSigma:
    """H|v> over all m^2 orbital pairs, one sparse product per spin side."""

    def __init__(self, mo: MOIntegrals, n_alpha: int, n_beta: int):
        m = mo.n_orbitals
        self.m = m
        self.ea, self.fa = excitation_tables(occupation_strings(m, n_alpha), m)
        self.eb, self.fb = excitation_tables(occupation_strings(m, n_beta), m)
        self.h_eff = mo.h1 - 0.5 * np.einsum("pqqs->ps", mo.h2)
        self.g = mo.h2.reshape(m * m, m * m)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """H|v> (without the scalar constant) for v of shape (na, nb)."""
        m, m2 = self.m, self.m ** 2
        na, nb = v.shape
        d = (self.ea @ v).reshape(m, m, na, nb)
        d += (self.eb @ v.T).reshape(m, m, nb, na).transpose(0, 1, 3, 2)
        d = d.reshape(m2, na * nb)
        sigma = (self.h_eff.reshape(m2) @ d).reshape(na, nb)
        w = (self.g @ d).reshape(m2, na, nb)
        sigma += 0.5 * (self.fa @ w.reshape(m2 * na, nb))
        w_t = w.transpose(0, 2, 1).reshape(m2 * nb, na)
        sigma += 0.5 * (self.fb @ w_t).T
        return sigma

    def rdms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin-summed gamma_pq = <E_pq> and chemists' Gamma_pqrs of v."""
        m = self.m
        na, nb = v.shape
        d = (self.ea @ v).reshape(m, m, na, nb)
        d += (self.eb @ v.T).reshape(m, m, nb, na).transpose(0, 1, 3, 2)
        gamma = np.einsum("pqij,ij->pq", d, v, optimize=True)
        dt = d.transpose(1, 0, 2, 3)
        g2 = np.einsum("pqij,rsij->pqrs", dt, d, optimize=True)
        for q in range(m):
            g2[:, q, q, :] -= gamma
        return gamma, g2
