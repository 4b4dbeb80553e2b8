"""Determinant full configuration interaction (FCI).

The exact-diagonalization baseline of the paper's Fig. 7a, and the exact
fragment solver used to validate the DMET pipeline.  Uses the alpha/beta
string factorization: a determinant is a pair of occupation bitstrings, the
CI vector is a (n_alpha_strings, n_beta_strings) matrix, and the spin-summed
excitation operators E_pq = e^a_pq + e^b_pq act by matrix multiplication from
the left (alpha) or right (beta).  Each per-spin e_pq lives in sparse link
tables (one signed entry per single excitation of a string).  Small problems
build H in closed form from three GEMMs and diagonalize it densely; larger
ones run Davidson on a sigma build of one dense GEMM and four sparse products.

The solver also returns spin-summed 1- and 2-RDMs, which DMET's democratic
partitioning and electron-number fitting consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix

from repro.common.bits import popcount
from repro.common.errors import ValidationError
from repro.chem.davidson import davidson
from repro.chem.mo import MOIntegrals


def occupation_strings(n_orbitals: int, n_electrons: int) -> list[int]:
    """All bitmasks with ``n_electrons`` of ``n_orbitals`` bits set, sorted."""
    if n_electrons < 0 or n_electrons > n_orbitals:
        raise ValidationError(
            f"cannot place {n_electrons} electrons in {n_orbitals} orbitals"
        )
    out = []
    for occ in combinations(range(n_orbitals), n_electrons):
        mask = 0
        for o in occ:
            mask |= 1 << o
        out.append(mask)
    return sorted(out)


def _excitation_tables(strings: list[int],
                       n_orbitals: int) -> tuple[csr_matrix, csr_matrix]:
    """Sparse e_pq link tables over a string basis, in two CSR layouts.

    Each nonzero <I| a+_p a_q |J> of one spin sector, with the fermionic sign
    from the number of occupied orbitals passed over, is one link
    (pq, I, J, sign), as in PySCF's ``direct_spin1``.  Returns E, rows
    (pq, I) by columns J, so ``E @ V`` stacks every e_pq V; and F, rows I by
    columns (pq, J), so ``F @ W`` sums e_pq W_pq over pq for W stacked by pq.
    """
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
                t = s1 | (1 << p)
                lo, hi = (p, q) if p < q else (q, p)
                between = s1 >> (lo + 1)
                count = popcount(between & ((1 << (hi - lo - 1)) - 1)) \
                    if hi > lo + 1 else 0
                sign = -1.0 if count % 2 else 1.0
                links.append((p * n_orbitals + q, index[t], j_idx, sign))
    pq, i_idx, j_idx, sign = np.array(links).reshape(-1, 4).T
    pq, i_idx, j_idx = (x.astype(np.intp) for x in (pq, i_idx, j_idx))
    size = n_orbitals * n_orbitals * ns
    e = csr_matrix((sign, (pq * ns + i_idx, j_idx)), shape=(size, ns))
    f = csr_matrix((sign, (i_idx, pq * ns + j_idx)), shape=(ns, size))
    return e, f


@dataclass
class FCIResult:
    """Ground (or excited) state from determinant FCI."""

    energy: float
    civec: np.ndarray           # (n_alpha_strings, n_beta_strings)
    energies: np.ndarray        # all requested roots
    one_rdm: np.ndarray         # spin-summed gamma_pq = <E_pq>
    two_rdm: np.ndarray         # spin-summed Gamma_pqrs (chemists' pairing)

    @property
    def n_determinants(self) -> int:
        return self.civec.size


class FCISolver:
    """Exact diagonalization of an :class:`MOIntegrals` Hamiltonian.

    Parameters
    ----------
    mo:
        Active-space integrals (h1, h2 chemists', scalar constant).
    n_alpha, n_beta:
        Spin populations; default splits ``mo.n_electrons`` evenly.
    dense_cutoff:
        Determinant count up to which H is built and diagonalized densely;
        larger problems run Davidson.  The default is the measured crossover
        of the two (even near 225 determinants, Davidson ~2x faster at 300
        and ~7x at 784; EXPERIMENTS.md, Ablation 17).
    """

    def __init__(self, mo: MOIntegrals, n_alpha: int | None = None,
                 n_beta: int | None = None, *, dense_cutoff: int = 250):
        self.mo = mo
        n_elec = mo.n_electrons
        if n_alpha is None or n_beta is None:
            n_alpha = (n_elec + 1) // 2
            n_beta = n_elec - n_alpha
        if n_alpha + n_beta != n_elec:
            raise ValidationError(
                f"n_alpha+n_beta={n_alpha + n_beta} != n_electrons={n_elec}"
            )
        self.n_alpha = n_alpha
        self.n_beta = n_beta
        self.dense_cutoff = dense_cutoff
        m = mo.n_orbitals
        self.alpha_strings = occupation_strings(m, n_alpha)
        self.beta_strings = occupation_strings(m, n_beta)
        self._ea, self._fa = _excitation_tables(self.alpha_strings, m)
        if (n_beta, tuple(self.beta_strings)) == (n_alpha, tuple(self.alpha_strings)):
            self._eb, self._fb = self._ea, self._fa
        else:
            self._eb, self._fb = _excitation_tables(self.beta_strings, m)
        # effective one-body: h'_ps = h_ps - 1/2 sum_q (pq|qs)
        self._h_eff = mo.h1 - 0.5 * np.einsum("pqqs->ps", mo.h2)
        self._g = mo.h2.reshape(m * m, m * m)

    # -- sigma build ----------------------------------------------------------

    def _apply_e(self, v: np.ndarray) -> np.ndarray:
        """D[p,q] = E_pq |v> for all pq; shape (M, M, na, nb)."""
        # alpha: e[p,q] @ V ; beta: V @ e[p,q].T = (e[p,q] @ V.T).T
        m = self.mo.n_orbitals
        na, nb = v.shape
        d = (self._ea @ v).reshape(m, m, na, nb)
        d += (self._eb @ v.T).reshape(m, m, nb, na).transpose(0, 1, 3, 2)
        return d

    def _sigma(self, v: np.ndarray) -> np.ndarray:
        """H|v> (without the scalar constant)."""
        m2 = self.mo.n_orbitals ** 2
        na, nb = v.shape
        d = self._apply_e(v).reshape(m2, na * nb)
        # one-body (with the delta correction folded into h_eff)
        sigma = (self._h_eff.reshape(m2) @ d).reshape(na, nb)
        # two-body: 1/2 sum_pq E_pq W_pq with W_pq = sum_rs (pq|rs) E_rs v;
        # alpha part e_pq @ W_pq, beta part W_pq @ e_pq^T
        w = (self._g @ d).reshape(m2, na, nb)
        sigma += 0.5 * (self._fa @ w.reshape(m2 * na, nb))
        w_t = w.transpose(0, 2, 1).reshape(m2 * nb, na)
        sigma += 0.5 * (self._fb @ w_t).T
        return sigma

    def _dense_hamiltonian(self) -> np.ndarray:
        """H over determinants in closed form (without the scalar constant).

        H = A (x) 1 + 1 (x) B + sum 1/2[(pq|rs) + (rs|pq)] e^a_pq (x) e^b_rs
        with A = sum h'_pq e^a_pq + 1/2 sum (pq|rs) e^a_pq e^a_rs (B the same
        for beta), from the densified per-spin tables; H is written one alpha
        row block at a time.
        """
        m2 = self.mo.n_orbitals ** 2
        na, nb = len(self.alpha_strings), len(self.beta_strings)

        def one_spin(e, f, ns):
            """Densified tables (M^2, ns^2) and the one-spin block A."""
            e2 = e.toarray().reshape(m2, ns * ns)
            one = (self._h_eff.reshape(m2) @ e2).reshape(ns, ns)
            return e2, one + 0.5 * (f @ (self._g @ e2).reshape(m2 * ns, ns))

        ea, a = one_spin(self._ea, self._fa, na)
        if self._eb is self._ea:
            eb, b = ea, a
        else:
            eb, b = one_spin(self._eb, self._fb, nb)
        x = 0.5 * (self._g + self._g.T) @ eb
        ea = ea.reshape(m2, na, na)
        h = np.empty((na, nb, na, nb))
        j = np.arange(nb)
        for i in range(na):
            # H[(i, J), (K, L)] = sum_pq e^a_pq[i, K] X_pq[J, L]
            h[i] = (ea[:, i, :].T @ x).reshape(na, nb, nb).transpose(1, 0, 2)
            h[i][j, :, j] += a[i]
            h[i, :, i, :] += b
        return h.reshape(na * nb, na * nb)

    # -- public API ------------------------------------------------------------

    def solve(self, n_roots: int = 1) -> FCIResult:
        """Compute the lowest ``n_roots`` eigenstates; returns the ground root."""
        na, nb = len(self.alpha_strings), len(self.beta_strings)
        dim = na * nb
        if not 1 <= n_roots <= dim:
            raise ValidationError(
                f"n_roots={n_roots} invalid for {dim} determinants"
            )
        if dim <= max(self.dense_cutoff, 1):
            evals, evecs = np.linalg.eigh(self._dense_hamiltonian())
            energies, civec = evals[:n_roots], evecs[:, 0]
        else:
            out = davidson(
                lambda x: self._sigma(x.reshape(na, nb)).ravel(),
                self.hamiltonian_diagonal().ravel(),
                n_roots=n_roots,
            )
            energies, civec = out.eigenvalues, out.eigenvectors[:, 0]
        energies = energies + self.mo.constant
        civec = civec.reshape(na, nb)
        one_rdm, two_rdm = self._rdms(civec)
        return FCIResult(energy=float(energies[0]), civec=civec,
                         energies=energies, one_rdm=one_rdm, two_rdm=two_rdm)

    def hamiltonian_diagonal(self) -> np.ndarray:
        """Slater-Condon diagonal over determinants: (na, nb) array.

        E_det = sum_p h_pp n_p + 1/2 sum_pq (pp|qq) n_p n_q
                - 1/2 sum_pq (pq|qp) (n_pa n_qa + n_pb n_qb)
        (spin-summed occupations n = n_alpha + n_beta; the exchange term is
        same-spin only).  Used as the Davidson preconditioner.
        """
        m = self.mo.n_orbitals
        occ_a = np.array([[(s >> p) & 1 for p in range(m)]
                          for s in self.alpha_strings], dtype=float)
        occ_b = np.array([[(s >> p) & 1 for p in range(m)]
                          for s in self.beta_strings], dtype=float)
        h_diag = np.diag(self.mo.h1)
        jm = np.einsum("ppqq->pq", self.mo.h2)
        km = np.einsum("pqqp->pq", self.mo.h2)
        one_a = occ_a @ h_diag
        one_b = occ_b @ h_diag
        ja = np.einsum("ip,pq,iq->i", occ_a, jm, occ_a, optimize=True)
        jb = np.einsum("ip,pq,iq->i", occ_b, jm, occ_b, optimize=True)
        jab = occ_a @ jm @ occ_b.T
        ka = np.einsum("ip,pq,iq->i", occ_a, km, occ_a, optimize=True)
        kb = np.einsum("ip,pq,iq->i", occ_b, km, occ_b, optimize=True)
        diag = (one_a[:, None] + one_b[None, :]
                + 0.5 * (ja[:, None] + jb[None, :]) + jab
                - 0.5 * (ka[:, None] + kb[None, :]))
        return diag

    def _rdms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin-summed RDMs: gamma_pq = <E_pq>, Gamma_pqrs (chemists')."""
        d = self._apply_e(v)
        gamma = np.einsum("pqij,ij->pq", d, v, optimize=True)
        # <E_pq E_rs> = (E_qp v) . (E_rs v); chemists' Gamma subtracts the
        # contact term delta_qr <E_ps>
        dt = d.transpose(1, 0, 2, 3)  # dt[p,q] = E_qp v
        g2 = np.einsum("pqij,rsij->pqrs", dt, d, optimize=True)
        m = self.mo.n_orbitals
        for q in range(m):
            g2[:, q, q, :] -= gamma
        return gamma, g2

    def energy_from_rdms(self, gamma: np.ndarray, g2: np.ndarray) -> float:
        """E = const + sum h1*gamma + 1/2 sum h2*Gamma (consistency check)."""
        return float(self.mo.constant
                     + np.einsum("pq,pq->", self.mo.h1, gamma)
                     + 0.5 * np.einsum("pqrs,pqrs->", self.mo.h2, g2))
