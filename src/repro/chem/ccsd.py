"""Spin-orbital coupled cluster with singles and doubles (CCSD).

The classical correlated baseline the paper compares DMET-VQE against in the
Fig. 7b experiment ("similar to the CCSD results ...").  Implements the
standard spin-orbital CCSD amplitude equations with intermediates (Stanton,
Gauss, Watts & Bartlett, J. Chem. Phys. 94, 4334 (1991)) and DIIS
acceleration on the amplitude vector.

For two-electron systems CCSD is exact (equals FCI), which the test-suite
uses as a strong cross-check of both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError
from repro.chem.mo import MOIntegrals, spatial_to_spin_orbital, \
    antisymmetrized_physicist
from repro.chem.scf import DIIS


@dataclass
class CCSDResult:
    """Converged CCSD state."""

    energy: float                 # total energy (constant + HF + correlation)
    correlation_energy: float
    hf_energy: float
    t1: np.ndarray                # (occ, virt)
    t2: np.ndarray                # (occ, occ, virt, virt)
    iterations: int


def _cut(block: np.ndarray, axes: tuple[int, ...], rows: int,
         cols: int) -> np.ndarray:
    """``block`` with its axes permuted, copied contiguous, as a matrix."""
    return np.ascontiguousarray(block.transpose(axes)).reshape(rows, cols)


#: Largest amplitude change of one Jacobi step at which the CC equations
#: count as solved.  The energy test alone stops on a DIIS iterate whose
#: energy is off by ~1e-12 Ha with either sign (H2, where CCSD is exact,
#: landed below FCI); at round-off level the energy is the fixed point's.
AMPLITUDE_TOLERANCE = 1e-14


class CCSDSolver:
    """Spin-orbital CCSD on an :class:`MOIntegrals` active space.

    The reference determinant fills the ``n_electrons`` lowest spin orbitals
    (aufbau in the MO ordering the integrals came in).
    """

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
        v = antisymmetrized_physicist(h2)
        # spin-orbital Fock matrix of the reference determinant
        o = slice(0, n_occ)
        u = slice(n_occ, n_so)
        self.f = h1 + np.einsum("piqi->pq", v[:, o, :, o])
        self.hf_energy = (const + h1[o, o].trace()
                          + 0.5 * np.einsum("ijij->", v[o, o, o, o]))
        # the blocks of <pq||rs> the update reads, each cut once and laid
        # out as the (rows, columns) matrix its GEMMs contract; a name
        # lists its indices in memory order, the comment the element there
        no, nv = n_occ, self.n_virt
        ov, vv = no * nv, nv * nv
        oovv, ooov, oovo = v[o, o, u, u], v[o, o, o, u], v[o, o, u, o]
        ovvv = v[o, u, u, u]
        self.v_oovv = np.ascontiguousarray(oovv)                   # <mn||ef>
        self.v_oooo = np.ascontiguousarray(v[o, o, o, o])          # <mn||ij>
        self.v_vvvv = np.ascontiguousarray(v[u, u, u, u])          # <ab||ef>
        self.v_menf = _cut(oovv, (0, 2, 1, 3), ov, ov)            # <mn||ef>
        self.v_maef = _cut(ovvv, (0, 1, 2, 3), no, nv * vv)       # <ma||ef>
        self.v_mfae = _cut(ovvv, (0, 2, 1, 3), ov, vv)            # <ma||fe>
        self.v_mefa = _cut(ovvv, (0, 2, 3, 1), ov * nv, nv)       # <ma||ef>
        self.v_mine = _cut(ooov, (0, 2, 1, 3), no * no, ov)       # <mn||ie>
        self.v_mnie = _cut(ooov, (0, 1, 2, 3), no * no * no, nv)  # <mn||ie>
        self.v_mejn = _cut(oovo, (0, 2, 3, 1), ov * no, no)       # <mn||ej>
        self.v_mnei = _cut(oovo, (1, 0, 2, 3), no * ov, no)       # <nm||ei>
        self.v_ainf = _cut(v[o, u, o, u], (1, 2, 0, 3), ov, ov)   # <na||if>
        self.v_mejb = _cut(v[o, u, u, o], (0, 2, 3, 1), ov, ov)   # <mb||ej>
        # <ab||ej> at [e, a, b, j] and <mb||ij> at [m, b, i, j]
        self.v_eabj = _cut(v[u, u, u, o], (2, 0, 1, 3), nv, vv * no)
        self.v_mbij = _cut(v[o, u, o, o], (0, 1, 2, 3), no, nv * no * no)

    def run(self) -> CCSDResult:
        no, nv = self.n_occ, self.n_virt
        o = slice(0, no)
        u = slice(no, no + nv)
        f = self.f

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
        t2 = self.v_oovv / d2

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
        f, v_oovv = self.f, self.v_oovv
        e = np.einsum("ia,ia->", f[o, u], t1)
        e += 0.25 * np.einsum("ijab,ijab->", v_oovv, t2)
        e += 0.5 * np.einsum("ijab,ia,jb->", v_oovv, t1, t1)
        return float(e)

    def _update(self, t1: np.ndarray, t2: np.ndarray,
                d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One Jacobi step of the Stanton-Gauss spin-orbital CCSD equations.

        Every contraction is one GEMM (or a batch of them) of a block cut in
        ``__init__`` against an amplitude array laid out to match; each
        comment gives the term in einsum form.
        """
        no, nv = self.n_occ, self.n_virt
        o, u = slice(0, no), slice(no, no + nv)
        f = self.f
        f_ov = f[o, u]
        oo, vv, ov = no * no, nv * nv, no * nv

        # t1_ia t1_jb and its (a, b)-antisymmetrized form
        t1t1 = t1[:, None, :, None] * t1[None, :, None, :]
        t1t1_a = t1t1 - t1t1.transpose(0, 1, 3, 2)
        tau_t = t2 + 0.5 * t1t1_a
        tau = t2 + t1t1_a
        tau_m = tau.reshape(oo, vv)
        # amplitudes as (i, a) x (m, e) matrices
        t2_iame = t2.transpose(0, 2, 1, 3).reshape(ov, ov)

        # me,ma->ae ; mafe,mf->ae ; mnef,mnaf->ae, read as + <mn||fe>
        # (antisymmetrization makes it the exact negative)
        fae = (f[u, u] - np.diag(np.diag(f[u, u]))
               - 0.5 * (t1.T @ f_ov)
               + (t1.reshape(ov) @ self.v_mfae).reshape(nv, nv)
               + 0.5 * (tau_t.transpose(0, 1, 3, 2).reshape(oo * nv, nv).T
                        @ self.v_oovv.reshape(oo * nv, nv)))
        # me,ie->mi ; mnie,ne->mi ; mnef,inef->mi
        fmi = (f[o, o] - np.diag(np.diag(f[o, o]))
               + 0.5 * (f_ov @ t1.T)
               + (self.v_mine @ t1.reshape(ov)).reshape(no, no)
               + 0.5 * (self.v_oovv.reshape(no, no * vv)
                        @ tau_t.reshape(no, no * vv).T))
        # mnef,nf->me
        fme = f_ov + (self.v_menf @ t1.reshape(ov)).reshape(no, nv)

        # mnie,je->mnij - (i <-> j) ; mnef,ijef->mnij
        x = (self.v_mnie @ t1.T).reshape(no, no, no, no)
        wmnij = (self.v_oooo + x - x.transpose(0, 1, 3, 2)
                 + 0.25 * (self.v_oovv.reshape(oo, vv) @ tau_m.T
                           ).reshape(no, no, no, no))
        # -amef,mb->abef + bmef,ma->abef with <am||ef> = -<ma||ef>:
        # y[b, a, e, f] = sum_m t1_mb <ma||ef> ; mnef,mnab->abef
        y = (t1.T @ self.v_maef).reshape(nv, nv, nv, nv)
        wabef = (self.v_vvvv + y.transpose(1, 0, 2, 3) - y
                 + 0.25 * (tau_m.T @ self.v_oovv.reshape(oo, vv)
                           ).reshape(nv, nv, nv, nv))
        # W_mbej laid out (m, e) x (j, b): mbej ; mbef,jf->mbej ;
        # mnej,nb->mbej ; mnef,jnfb->mbej with 1/2 t2_jnfb + t1_jf t1_nb;
        # v_mfae's memory is <mb||ef> laid out (m, e, b, f)
        z = 0.5 * t2 + t1t1
        wmbej = (self.v_mejb
                 + (self.v_mfae.reshape(ov * nv, nv) @ t1.T
                    ).reshape(no, nv, nv, no)
                 .transpose(0, 1, 3, 2).reshape(ov, ov)
                 - (self.v_mejn @ t1).reshape(ov, ov)
                 - self.v_menf @ z.transpose(1, 2, 0, 3).reshape(ov, ov))

        # T1 equation: ie,ae->ia ; ma,mi->ia ; imae,me->ia ; nf,naif->ia ;
        # imef,maef->ia ; mnae,nmei->ia
        rhs1 = (f_ov + t1 @ fae.T - fmi.T @ t1
                + (t2_iame @ fme.reshape(ov)).reshape(no, nv)
                - (self.v_ainf @ t1.reshape(ov)).reshape(nv, no).T
                - 0.5 * (t2.reshape(no, no * vv) @ self.v_mefa)
                - 0.5 * (self.v_mnei.T
                         @ t2.transpose(0, 1, 3, 2).reshape(oo * nv, nv)))
        t1_new = rhs1 / d1

        # T2 equation
        fae_h = fae - 0.5 * (t1.T @ fme)        # mb,me->be
        fmi_h = fmi + 0.5 * (fme @ t1.T)        # je,me->mj

        rhs2 = self.v_oovv.copy()
        # ijae,be->ijab
        tmp = (t2.reshape(oo * nv, nv) @ fae_h.T).reshape(no, no, nv, nv)
        rhs2 += tmp - tmp.transpose(0, 1, 3, 2)
        # imab,mj->ijab, one (j, m) x (m, ab) GEMM per i
        tmp = np.matmul(fmi_h.T, t2.reshape(no, no, vv)).reshape(
            no, no, nv, nv)
        rhs2 -= tmp - tmp.transpose(1, 0, 2, 3)
        # mnab,mnij->ijab ; ijef,abef->ijab
        rhs2 += 0.5 * (wmnij.reshape(oo, oo).T @ tau_m).reshape(
            no, no, nv, nv)
        rhs2 += 0.5 * (tau_m @ wabef.reshape(vv, vv).T).reshape(
            no, no, nv, nv)
        # imae,mbej->ijab - ie,ma,mbej->ijab, both as (i, a) x (j, b)
        t1_iame = t1[:, None, None, :] * t1.T[None, :, :, None]
        tmp = (t2_iame @ wmbej - t1_iame.reshape(ov, ov) @ self.v_mejb
               ).reshape(no, nv, no, nv).transpose(0, 2, 1, 3)
        tmp = tmp - tmp.transpose(0, 1, 3, 2)
        rhs2 += tmp - tmp.transpose(1, 0, 2, 3)
        # ie,abej->ijab
        tmp = (t1 @ self.v_eabj).reshape(no, nv, nv, no).transpose(0, 3, 1, 2)
        rhs2 += tmp - tmp.transpose(1, 0, 2, 3)
        # ma,mbij->ijab
        tmp = (t1.T @ self.v_mbij).reshape(nv, nv, no, no).transpose(
            2, 3, 0, 1)
        rhs2 -= tmp - tmp.transpose(0, 1, 3, 2)
        t2_new = rhs2 / d2

        return t1_new, t2_new
