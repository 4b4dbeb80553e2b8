"""Term-by-term ``np.einsum`` CCSD: the oracle of the GEMM-planned solver.

This is :class:`repro.chem.ccsd.CCSDSolver`'s former implementation, kept
as a test oracle: each Stanton-Gauss term is one ``np.einsum`` on slices of
the full <pq||rs> tensor, written exactly as the equations read.  It shares
the start, DIIS, convergence test and energy expression with the solver,
but no integral block, layout or contraction order.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError
from repro.chem.ccsd import AMPLITUDE_TOLERANCE, CCSDResult
from repro.chem.mo import MOIntegrals, spatial_to_spin_orbital, \
    antisymmetrized_physicist
from repro.chem.scf import DIIS


class ReferenceCCSD:
    """Spin-orbital CCSD with one unplanned ``np.einsum`` per term."""

    def __init__(self, mo: MOIntegrals, *, max_iterations: int = 100,
                 tolerance: float = 1e-9, level_shift: float = 0.0):
        self.mo = mo
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.level_shift = level_shift
        n_so = 2 * mo.n_orbitals
        n_occ = mo.n_electrons
        if n_occ < 1 or n_occ >= n_so:
            raise ValidationError(
                f"CCSD needs 1 <= n_electrons < {n_so}; got {n_occ}"
            )
        self.n_occ = n_occ
        self.n_virt = n_so - n_occ

        h1, h2, const = spatial_to_spin_orbital(mo)
        self.const = const
        # antisymmetrized physicists' integrals <pq||rs>
        self.v = antisymmetrized_physicist(h2)
        # spin-orbital Fock matrix of the reference determinant
        o = slice(0, n_occ)
        self.f = h1 + np.einsum("piqi->pq", self.v[:, o, :, o])
        self.hf_energy = (const + h1[o, o].trace()
                          + 0.5 * np.einsum("ijij->", self.v[o, o, o, o]))

    def run(self) -> CCSDResult:
        no, nv = self.n_occ, self.n_virt
        o = slice(0, no)
        u = slice(no, no + nv)
        f, v = self.f, self.v

        fo = np.diag(f)[o]
        fu = np.diag(f)[u]
        d1 = fo[:, None] - fu[None, :] - self.level_shift
        d2 = (fo[:, None, None, None] + fo[None, :, None, None]
              - fu[None, None, :, None] - fu[None, None, None, :]
              - self.level_shift)
        if np.min(np.abs(d1)) < 1e-8 or np.min(np.abs(d2)) < 1e-8:
            raise ValidationError(
                "vanishing denominator (degenerate HOMO/LUMO); "
                "use a level_shift"
            )

        # MP2 start
        t1 = f[o, u] / d1
        t2 = v[o, o, u, u] / d2

        accelerator = DIIS()
        e_old = 0.0
        for it in range(1, self.max_iterations + 1):
            t1n, t2n = self._update(t1, t2, d1, d2)
            vec = np.concatenate([t1n.ravel(), t2n.ravel()])
            err = vec - np.concatenate([t1.ravel(), t2.ravel()])
            residual = float(np.max(np.abs(err)))
            # DIIS on the stacked amplitude vector
            ext = accelerator.extrapolate(vec, err)
            if ext is not None:
                t1n = ext[: t1.size].reshape(t1.shape)
                t2n = ext[t1.size:].reshape(t2.shape)
            t1, t2 = t1n, t2n
            e_corr = self._energy(t1, t2)
            if (abs(e_corr - e_old) < self.tolerance
                    and residual < AMPLITUDE_TOLERANCE and it > 1):
                return CCSDResult(
                    energy=float(self.hf_energy + e_corr),
                    correlation_energy=float(e_corr),
                    hf_energy=float(self.hf_energy),
                    t1=t1, t2=t2, iterations=it,
                )
            e_old = e_corr
        raise ConvergenceError(
            f"CCSD did not converge in {self.max_iterations} iterations",
            iterations=self.max_iterations,
            residual=float(abs(e_corr - e_old)),
        )

    # -- pieces ----------------------------------------------------------------

    def _energy(self, t1: np.ndarray, t2: np.ndarray) -> float:
        no, nv = self.n_occ, self.n_virt
        o, u = slice(0, no), slice(no, no + nv)
        f, v = self.f, self.v
        e = np.einsum("ia,ia->", f[o, u], t1)
        e += 0.25 * np.einsum("ijab,ijab->", v[o, o, u, u], t2)
        e += 0.5 * np.einsum("ijab,ia,jb->", v[o, o, u, u], t1, t1)
        return float(e)

    def _update(self, t1: np.ndarray, t2: np.ndarray,
                d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Jacobi step of the Stanton-Gauss spin-orbital CCSD equations."""
        no, nv = self.n_occ, self.n_virt
        o, u = slice(0, no), slice(no, no + nv)
        f, v = self.f, self.v

        tau_t = t2 + 0.5 * (np.einsum("ia,jb->ijab", t1, t1)
                            - np.einsum("ib,ja->ijab", t1, t1))
        tau = t2 + (np.einsum("ia,jb->ijab", t1, t1)
                    - np.einsum("ib,ja->ijab", t1, t1))

        fae = (f[u, u] - np.diag(np.diag(f[u, u]))
               - 0.5 * np.einsum("me,ma->ae", f[o, u], t1)
               + np.einsum("mafe,mf->ae", v[o, u, u, u], t1)
               - 0.5 * np.einsum("mnef,mnaf->ae", v[o, o, u, u], tau_t))
        fmi = (f[o, o] - np.diag(np.diag(f[o, o]))
               + 0.5 * np.einsum("me,ie->mi", f[o, u], t1)
               + np.einsum("mnie,ne->mi", v[o, o, o, u], t1)
               + 0.5 * np.einsum("mnef,inef->mi", v[o, o, u, u], tau_t))
        fme = f[o, u] + np.einsum("mnef,nf->me", v[o, o, u, u], t1)

        wmnij = (v[o, o, o, o]
                 + np.einsum("mnie,je->mnij", v[o, o, o, u], t1)
                 - np.einsum("mnje,ie->mnij", v[o, o, o, u], t1)
                 + 0.25 * np.einsum("mnef,ijef->mnij", v[o, o, u, u], tau))
        wabef = (v[u, u, u, u]
                 - np.einsum("amef,mb->abef", v[u, o, u, u], t1)
                 + np.einsum("bmef,ma->abef", v[u, o, u, u], t1)
                 + 0.25 * np.einsum("mnef,mnab->abef", v[o, o, u, u], tau))
        wmbej = (v[o, u, u, o]
                 + np.einsum("mbef,jf->mbej", v[o, u, u, u], t1)
                 - np.einsum("mnej,nb->mbej", v[o, o, u, o], t1)
                 - np.einsum("mnef,jnfb->mbej", v[o, o, u, u],
                             0.5 * t2 + np.einsum("jf,nb->jnfb", t1, t1)))

        # T1 equation
        rhs1 = (f[o, u]
                + np.einsum("ie,ae->ia", t1, fae)
                - np.einsum("ma,mi->ia", t1, fmi)
                + np.einsum("imae,me->ia", t2, fme)
                - np.einsum("nf,naif->ia", t1, v[o, u, o, u])
                - 0.5 * np.einsum("imef,maef->ia", t2, v[o, u, u, u])
                - 0.5 * np.einsum("mnae,nmei->ia", t2, v[o, o, u, o]))
        t1_new = rhs1 / d1

        # T2 equation
        fae_h = fae - 0.5 * np.einsum("mb,me->be", t1, fme)
        fmi_h = fmi + 0.5 * np.einsum("je,me->mj", t1, fme)

        rhs2 = v[o, o, u, u].copy()
        tmp = np.einsum("ijae,be->ijab", t2, fae_h)
        rhs2 += tmp - tmp.transpose(0, 1, 3, 2)
        tmp = np.einsum("imab,mj->ijab", t2, fmi_h)
        rhs2 -= tmp - tmp.transpose(1, 0, 2, 3)
        rhs2 += 0.5 * np.einsum("mnab,mnij->ijab", tau, wmnij)
        rhs2 += 0.5 * np.einsum("ijef,abef->ijab", tau, wabef)
        tmp = (np.einsum("imae,mbej->ijab", t2, wmbej)
               - np.einsum("ie,ma,mbej->ijab", t1, t1, v[o, u, u, o]))
        tmp = tmp - tmp.transpose(0, 1, 3, 2)
        rhs2 += tmp - tmp.transpose(1, 0, 2, 3)
        tmp = np.einsum("ie,abej->ijab", t1, v[u, u, u, o])
        rhs2 += tmp - tmp.transpose(1, 0, 2, 3)
        tmp = np.einsum("ma,mbij->ijab", t1, v[o, u, o, o])
        rhs2 -= tmp - tmp.transpose(0, 1, 3, 2)
        t2_new = rhs2 / d2

        return t1_new, t2_new
