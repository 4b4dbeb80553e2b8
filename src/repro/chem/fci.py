"""Determinant full configuration interaction (FCI).

The exact-diagonalization baseline of the paper's Fig. 7a, and the exact
fragment solver used to validate the DMET pipeline.  Uses the alpha/beta
string factorization: a determinant is a pair of occupation bitstrings, the
CI vector is a (n_alpha_strings, n_beta_strings) matrix, and the spin-summed
excitation operators E_pq = e^a_pq + e^b_pq act by matrix multiplication from
the left (alpha) or right (beta).  Each per-spin e_pq lives in sparse link
tables (one signed entry per single excitation of a string).  Small problems
build H in closed form from three GEMMs and diagonalize it densely; larger
ones run Davidson on the same closed form over the m(m+1)/2 orbital pairs
p >= q of real integrals: two one-spin GEMMs, then one gather, one GEMM over
pairs and one sparse product for the alpha-beta coupling.

The result's spin-summed 1- and 2-RDMs, which DMET's democratic
partitioning and electron-number fitting consume, are built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix

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


def _links(strings: list[int], n_orbitals: int) -> tuple[np.ndarray, ...]:
    """Every nonzero <I| a+_p a_q |J> of one spin sector as (p, q, I, J, sign).

    Ordered by J, then q, then p.  The fermionic sign counts the occupied
    orbitals passed over, as in PySCF's ``direct_spin1``.
    """
    ordered = np.array(strings, dtype=np.int64)
    orb = np.arange(n_orbitals, dtype=np.int64)
    # string J, annihilated q (occupied), created p (empty once q is)
    s1 = ordered[:, None] & ~(1 << orb)[None, :]
    allowed = (((ordered[:, None] >> orb) & 1)[:, :, None].astype(bool)
               & ~((s1[:, :, None] >> orb) & 1).astype(bool))
    j_idx, q, p = np.nonzero(allowed)
    s1 = s1[j_idx, q]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    between = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    sign = np.where(np.bitwise_count(s1 & between) % 2, -1.0, 1.0)
    i_idx = np.searchsorted(ordered, s1 | (1 << p))
    return p, q, i_idx, j_idx, sign


def _excitation_tables(strings: list[int],
                       n_orbitals: int) -> tuple[csr_matrix, csr_matrix]:
    """Sparse e_pq link tables over a string basis, in two CSR layouts.

    One entry (pq, I, J, sign) per :func:`_links` link.  Returns E, rows
    (pq, I) by columns J, so ``E @ V`` stacks every e_pq V; and F, rows I by
    columns (pq, J), so ``F @ W`` sums e_pq W_pq over pq for W stacked by pq.
    """
    ns = len(strings)
    p, q, i_idx, j_idx, sign = _links(strings, n_orbitals)
    pq = p * n_orbitals + q
    size = n_orbitals * n_orbitals * ns
    e = csr_matrix((sign, (pq * ns + i_idx, j_idx)), shape=(size, ns))
    f = csr_matrix((sign, (i_idx, pq * ns + j_idx)), shape=(ns, size))
    return e, f


def _pair_tables(strings: list[int], n_orbitals: int
                 ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Link tables of the pair operators A_P = e_pq + e_qp (p > q), e_pp.

    P = p(p+1)/2 + q runs over the m(m+1)/2 pairs p >= q.  A string J
    reaches I through e_pq or through e_qp, never both, so each (P, I) row
    holds at most one link and A_P V is a gather.  Returns the gather
    index G, shape (pairs, ns): ``[V; -V; 0][G[P]]`` is A_P V, the sign
    folded in as the row block (J, ns + J, or the zero row 2 ns for no
    link); and the links themselves as (P, I, J, sign).  A_P is symmetric,
    so row (P, J) of G also gives V A_P by columns.
    """
    ns = len(strings)
    p, q, i_idx, j_idx, sign = _links(strings, n_orbitals)
    hi, lo = np.maximum(p, q), np.minimum(p, q)
    pair = hi * (hi + 1) // 2 + lo
    n_pairs = n_orbitals * (n_orbitals + 1) // 2
    gather = np.full((n_pairs, ns), 2 * ns, dtype=np.intp)
    gather[pair, i_idx] = np.where(sign > 0, j_idx, ns + j_idx)
    return gather, (pair, i_idx, j_idx, sign)


def _one_spin_operator(gather: np.ndarray, links: tuple[np.ndarray, ...],
                       g_ext: np.ndarray) -> np.ndarray:
    """M = sum_P h'_P A_P + 1/2 sum_PS (P|S) A_P A_S on one spin's strings.

    ``g_ext`` is (P|S) with h'_P as one more row.  Gathers the identity into
    every A_P (pairs x ns^2, the size of one sigma buffer), then one GEMM
    and one sparse product.
    """
    n_pairs, ns = gather.shape
    signed = np.vstack([np.eye(ns), -np.eye(ns), np.zeros((1, ns))])
    w = g_ext @ signed[gather].reshape(n_pairs, ns * ns)
    pair, i_idx, j_idx, sign = links
    f = csr_matrix((sign, (i_idx, pair * ns + j_idx)),
                   shape=(ns, n_pairs * ns))
    return w[n_pairs].reshape(ns, ns) \
        + 0.5 * (f @ w[:n_pairs].reshape(n_pairs * ns, ns))


@dataclass
class FCIResult:
    """Ground (or excited) state from determinant FCI.

    ``one_rdm`` (spin-summed gamma_pq = <E_pq>) and ``two_rdm`` (spin-summed
    Gamma_pqrs, chemists' pairing) of the ground root are built on first
    read, so an energy alone never pays for them.
    """

    energy: float
    civec: np.ndarray           # (n_alpha_strings, n_beta_strings)
    energies: np.ndarray        # all requested roots
    solver: FCISolver = field(repr=False, compare=False)

    @cached_property
    def _rdms(self) -> tuple[np.ndarray, np.ndarray]:
        return self.solver._rdms(self.civec)

    @property
    def one_rdm(self) -> np.ndarray:
        return self._rdms[0]

    @property
    def two_rdm(self) -> np.ndarray:
        return self._rdms[1]

    @property
    def n_determinants(self) -> int:
        return self.civec.size


class FCISolver:
    """Exact diagonalization of an :class:`MOIntegrals` Hamiltonian.

    The integrals are taken as real: (pq|rs) = (qp|rs) = (pq|sr) and h1
    symmetric, which the Davidson sigma's orbital-pair packing relies on.

    Parameters
    ----------
    mo:
        Active-space integrals (h1, h2 chemists', scalar constant).
    n_alpha, n_beta:
        Spin populations; default splits ``mo.n_electrons`` evenly.
    dense_cutoff:
        Determinant count up to which H is built and diagonalized densely;
        larger problems run Davidson.  The default is the crossover
        measured with the pair sigma (EXPERIMENTS.md, Ablation 25c):
        dense wins to 147 determinants on molecular integrals, Davidson
        from 224 (LiH's 225: 5.5 against 2.5 ms).
    """

    def __init__(self, mo: MOIntegrals, n_alpha: int | None = None,
                 n_beta: int | None = None, *, dense_cutoff: int = 150):
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
        self._same_spin_tables = (n_beta, tuple(self.beta_strings)) \
            == (n_alpha, tuple(self.alpha_strings))
        # effective one-body: h'_ps = h_ps - 1/2 sum_q (pq|qs)
        self._h_eff = mo.h1 - 0.5 * np.einsum("pqqs->ps", mo.h2)
        self._g = mo.h2.reshape(m * m, m * m)
        self._ea = self._fa = self._eb = self._fb = None
        self._m_alpha = None

    def _full_tables(self) -> None:
        """The per-spin e_pq tables of the dense H and the RDMs."""
        if self._ea is not None:
            return
        m = self.mo.n_orbitals
        self._ea, self._fa = _excitation_tables(self.alpha_strings, m)
        if self._same_spin_tables:
            self._eb, self._fb = self._ea, self._fa
        else:
            self._eb, self._fb = _excitation_tables(self.beta_strings, m)

    def _pair_setup(self) -> None:
        """One-spin blocks, the alpha-beta coupling's tables and buffers."""
        m = self.mo.n_orbitals
        na, nb = len(self.alpha_strings), len(self.beta_strings)
        hi, lo = np.tril_indices(m)
        g = self.mo.h2[hi, lo][:, hi, lo]
        g_ext = np.vstack([g, self._h_eff[hi, lo]])
        gather_a, links_a = _pair_tables(self.alpha_strings, m)
        self._m_alpha = _one_spin_operator(gather_a, links_a, g_ext)
        if self._same_spin_tables:
            self._gather_beta, self._m_beta = gather_a, self._m_alpha
        else:
            self._gather_beta, links_b = _pair_tables(self.beta_strings, m)
            self._m_beta = _one_spin_operator(self._gather_beta, links_b,
                                              g_ext)
        # the coupling 1/2 [(P|S) + (S|P)], as the dense H symmetrizes it
        self._g_cross = 0.5 * (g + g.T)
        # F with rows I by columns (J, P): ``F @ Z`` sums A_P Z[:, P, :]
        pair, i_idx, j_idx, sign = links_a
        n_pairs = g.shape[0]
        self._cross_f = csr_matrix((sign, (i_idx, j_idx * n_pairs + pair)),
                                   shape=(na, na * n_pairs))
        # gather source [V, -V, 0] by columns; the zero column written once
        self._signed_b = np.zeros((na, 2 * nb + 1))
        self._y = np.empty((na, n_pairs, nb))
        self._z = np.empty((na, n_pairs, nb))

    # -- sigma build ----------------------------------------------------------

    def _apply_e(self, v: np.ndarray) -> np.ndarray:
        """D[p,q] = E_pq |v> for all pq; shape (M, M, na, nb)."""
        # alpha: e[p,q] @ V ; beta: V @ e[p,q].T = (e[p,q] @ V.T).T
        self._full_tables()
        m = self.mo.n_orbitals
        na, nb = v.shape
        d = (self._ea @ v).reshape(m, m, na, nb)
        d += (self._eb @ v.T).reshape(m, m, nb, na).transpose(0, 1, 3, 2)
        return d

    def _sigma(self, v: np.ndarray) -> np.ndarray:
        """H|v> (without the scalar constant), over orbital pairs p >= q.

        Real integrals pack every sum over pq into one over the pairs
        P = (p >= q) with A_P = E_pq + E_qp (p > q), E_pp, so H is the
        closed form of :meth:`_dense_hamiltonian` in pairs:
        M_a (x) 1 + 1 (x) M_b + sum_PS 1/2[(P|S) + (S|P)] A^a_P (x) A^b_S.
        The one-spin blocks are two small GEMMs; the coupling is a gather
        Y[:, S] = v A^b_S, a GEMM over S and one sparse product with A^a_P.
        """
        if self._m_alpha is None:
            self._pair_setup()
        na, nb = v.shape
        signed = self._signed_b
        signed[:, :nb] = v
        np.negative(v, out=signed[:, nb:2 * nb])
        y = np.take(signed, self._gather_beta, axis=1, out=self._y,
                    mode="clip")
        z = np.matmul(self._g_cross, y, out=self._z)
        sigma = self._m_alpha @ v + v @ self._m_beta.T
        sigma += self._cross_f @ z.reshape(-1, nb)
        return sigma

    def _dense_hamiltonian(self) -> np.ndarray:
        """H over determinants in closed form (without the scalar constant).

        H = A (x) 1 + 1 (x) B + sum 1/2[(pq|rs) + (rs|pq)] e^a_pq (x) e^b_rs
        with A = sum h'_pq e^a_pq + 1/2 sum (pq|rs) e^a_pq e^a_rs (B the same
        for beta), from the densified per-spin tables; H is written one alpha
        row block at a time.
        """
        self._full_tables()
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
        return FCIResult(energy=float(energies[0]),
                         civec=civec.reshape(na, nb), energies=energies,
                         solver=self)

    def hamiltonian_diagonal(self) -> np.ndarray:
        """Slater-Condon diagonal over determinants: (na, nb) array.

        E_det = sum_p h_pp n_p + 1/2 sum_pq (pp|qq) n_p n_q
                - 1/2 sum_pq (pq|qp) (n_pa n_qa + n_pb n_qb)
        (spin-summed occupations n = n_alpha + n_beta; the exchange term is
        same-spin only).  Used as the Davidson preconditioner.
        """
        m = self.mo.n_orbitals
        h_diag = np.diag(self.mo.h1)
        jm = np.einsum("ppqq->pq", self.mo.h2)
        km = np.einsum("pqqp->pq", self.mo.h2)

        def one_spin(strings):
            """Occupations and each string's own-spin energy."""
            occ = ((np.array(strings)[:, None] >> np.arange(m)) & 1
                   ).astype(float)
            return occ, occ @ h_diag + 0.5 * ((occ @ (jm - km)) * occ).sum(1)

        occ_a, e_a = one_spin(self.alpha_strings)
        occ_b, e_b = one_spin(self.beta_strings)
        diag = e_a[:, None] + e_b[None, :] + occ_a @ jm @ occ_b.T
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
