"""Two-site DMRG ground-state search on the MPS/MPO machinery.

The paper (Sec. III-A) observes that since the MPS-VQE's expressiveness is
bounded by the underlying MPS, "one may well substitute the VQE simulator by
another MPS based optimization algorithm such as DMRG and a similar or even
higher precision would be expected if the same D is used" - while noting
DMRG parallelizes worse.  This module implements that substitution: a
standard two-site DMRG sweep over the qubit Hamiltonian's MPO, reusing the
kernel layer (fused contractions + truncated SVD) of the MPS simulator.

Gauge bookkeeping: each left-to-right sweep turns sites into left-canonical
A tensors behind the moving two-site window (sites ahead remain the
right-canonical B tensors of the stored MPS), and the state is
re-canonicalized to all-B + Schmidt-value form between sweeps.

Because a qubit Hamiltonian acts on the whole Fock space, the DMRG ground
state lives in whatever particle sector is globally lowest; pass
``n_electrons`` to add a quadratic number-penalty that pins the physical
sector (the same device used in DMRG quantum chemistry codes without
explicit symmetry handling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.operators.pauli import QubitOperator
from repro.simulators.kernels import svd_truncated, tensordot_fused
from repro.simulators.mpo import MPO
from repro.simulators.mps import MPS


@dataclass
class DMRGResult:
    """Converged DMRG state."""

    energy: float
    mps: MPS
    sweep_energies: list[float] = field(default_factory=list)
    n_sweeps: int = 0
    converged: bool = True


#: Weight (Ha per electron squared) of the particle-number penalty.
PENALTY_STRENGTH = 1.0


def _number_penalty(n_qubits: int, n_electrons: int) -> QubitOperator:
    """PENALTY_STRENGTH * (N_hat - n_electrons)^2 as a QubitOperator."""
    number = FermionOperator.zero()
    for p in range(n_qubits):
        number = number + FermionOperator.from_term([(p, 1), (p, 0)])
    n_op = jordan_wigner(number)
    shifted = n_op - float(n_electrons)
    return (shifted * shifted) * PENALTY_STRENGTH


class DMRG:
    """Two-site DMRG for a qubit Hamiltonian.

    Parameters
    ----------
    hamiltonian:
        Hermitian QubitOperator.
    n_qubits:
        Register width.
    max_bond_dimension:
        MPS bond cap D (the knob shared with the MPS-VQE comparison).
    n_electrons:
        Optional particle-number pinning (see module docstring).
    """

    def __init__(self, hamiltonian: QubitOperator, n_qubits: int, *,
                 max_bond_dimension: int = 32, cutoff: float = 1e-10,
                 n_electrons: int | None = None):
        if not hamiltonian.is_hermitian():
            raise ValidationError("DMRG needs a hermitian Hamiltonian")
        if n_qubits < 2:
            raise ValidationError("DMRG needs at least two sites")
        self.n_qubits = n_qubits
        self.max_bond_dimension = max_bond_dimension
        self.cutoff = cutoff
        op = hamiltonian
        if n_electrons is not None:
            op = (op + _number_penalty(n_qubits, n_electrons)).simplify()
        self.mpo = MPO.from_qubit_operator(op, n_qubits)

    # -- environments --------------------------------------------------------

    def _build_right_envs(self, mps: MPS) -> list[np.ndarray]:
        """right[k] = environment of sites >= k, indexed (ket, mpo, bra)."""
        n = self.n_qubits
        right: list[np.ndarray | None] = [None] * (n + 1)
        right[n] = np.ones((1, 1, 1), dtype=complex)
        for k in range(n - 1, -1, -1):
            b = mps.tensors[k]
            w = self.mpo.tensors[k]
            tmp = np.einsum("aib,bnc->ainc", b, right[k + 1], optimize=True)
            tmp = np.einsum("mjin,ainc->amjc", w, tmp, optimize=True)
            right[k] = np.einsum("djc,amjc->amd", np.conj(b), tmp,
                                 optimize=True)
        return right

    def _extend_left(self, left: np.ndarray, mps: MPS, k: int) -> np.ndarray:
        b = mps.tensors[k]
        w = self.mpo.tensors[k]
        tmp = np.einsum("amc,aib->micb", left, b, optimize=True)
        tmp = np.einsum("micb,mjin->jcbn", tmp, w, optimize=True)
        return np.einsum("jcbn,cjd->bnd", tmp, np.conj(b), optimize=True)

    # -- local problem ----------------------------------------------------------

    def _local_ground_state(self, left: np.ndarray, w1: np.ndarray,
                            w2: np.ndarray, right: np.ndarray,
                            dl: int, dr: int) -> tuple[float, np.ndarray]:
        """Lowest eigenpair of the two-site effective Hamiltonian."""
        # H[(c,q,s,e), (a,i,j,b)]: rows are bra indices, columns ket
        h = np.einsum("amc,mqip,psjn,bne->cqseaijb", left, w1, w2, right,
                      optimize=True)
        dim = dl * 2 * 2 * dr
        h = h.reshape(dim, dim)
        evals, evecs = np.linalg.eigh(h)
        return float(evals[0]), evecs[:, 0].reshape(dl, 2, 2, dr)

    # -- driver --------------------------------------------------------------------

    def run(self, *, n_sweeps: int = 20, tolerance: float = 1e-9,
            seed: int | None = None) -> DMRGResult:
        """Sweep from a random bond-2 state until the per-sweep energy
        change drops below tolerance."""
        n = self.n_qubits
        mps = MPS.random_state(n, bond_dimension=2, seed=seed)
        mps.max_bond_dimension = self.max_bond_dimension
        mps.cutoff = self.cutoff

        energies: list[float] = []
        e_prev = np.inf
        for sweep in range(1, n_sweeps + 1):
            right = self._build_right_envs(mps)
            left = np.ones((1, 1, 1), dtype=complex)
            e_sweep = np.inf
            for k in range(n - 1):
                b1, b2 = mps.tensors[k], mps.tensors[k + 1]
                dl, dr = b1.shape[0], b2.shape[2]
                w1, w2 = self.mpo.tensors[k], self.mpo.tensors[k + 1]
                e_sweep, theta = self._local_ground_state(
                    left, w1, w2, right[k + 2], dl, dr)
                u, s, vh, disc = svd_truncated(
                    theta.reshape(dl * 2, 2 * dr),
                    mps.max_bond_dimension, mps.cutoff)
                chi = s.size
                mps.stats.record(disc, chi)
                s = s / np.linalg.norm(s)
                # A_k (left-canonical) behind the window; lambda + B ahead
                mps.tensors[k] = u.reshape(dl, 2, chi)
                mps.lambdas[k + 1] = s
                mps.tensors[k + 1] = vh.reshape(chi, 2, dr)
                if k == n - 2:
                    # fold the center weights into the last tensor so the
                    # plain tensor product is the physical state again
                    mps.tensors[k + 1] = (s[:, None, None]
                                          * mps.tensors[k + 1])
                left = self._extend_left(left, mps, k)
            mps._canonicalize()  # back to all right-canonical + Schmidt
            energies.append(float(e_sweep))
            if abs(e_prev - e_sweep) < tolerance:
                return DMRGResult(energy=float(e_sweep), mps=mps,
                                  sweep_energies=energies, n_sweeps=sweep)
            e_prev = e_sweep
        raise ConvergenceError(
            f"DMRG did not converge in {n_sweeps} sweeps",
            iterations=n_sweeps,
            residual=float(abs(energies[-1] - energies[-2]))
            if len(energies) > 1 else None,
        )
