"""Davidson-Liu iterative eigensolver.

The standard workhorse for the lowest eigenpair of large sparse Hermitian
operators in quantum chemistry (the FCI matrices behind the paper's Fig. 7a
baselines).  Works matrix-free: the caller supplies a matvec and a diagonal
preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import ConvergenceError


#: Residual norm at which the lowest eigenpair counts as converged, the
#: iteration cap, and the subspace size at which the basis collapses onto
#: the Ritz vector.
TOLERANCE = 1e-9
MAX_ITERATIONS = 200
MAX_SUBSPACE = 16


@dataclass
class DavidsonResult:
    """Lowest eigenpair from a Davidson run."""

    eigenvalue: float
    eigenvector: np.ndarray  # (dim,)
    n_iterations: int
    n_matvecs: int
    residual_norm: float


def davidson(matvec: Callable[[np.ndarray], np.ndarray],
             diagonal: np.ndarray) -> DavidsonResult:
    """Find the lowest eigenpair of a Hermitian operator.

    Parameters
    ----------
    matvec:
        y = H @ x for a single vector x.
    diagonal:
        diag(H), used both for the initial guess (a unit vector at the
        lowest diagonal entry) and the Davidson preconditioner.

    The arithmetic is the block method's at one root: the guess, the Ritz
    vector and the residual are (dim, 1) blocks.
    """
    dim = diagonal.size
    capacity = min(dim, MAX_SUBSPACE)

    # the diagonal in increasing order: the guess, and where the
    # preconditioner looks for near-zero denominators
    order = np.argsort(diagonal)
    sorted_diagonal = diagonal[order]
    v = np.zeros((dim, 1))
    v[order[0], 0] = 1.0
    v, _ = np.linalg.qr(v)

    # the basis and its sigma vectors, one row each, in blocks allocated
    # once; rows [:n_basis] are live and [:n_sigma] have their sigma.
    # projected[i, j] = basis[i] . sigma[j] is kept for the live rows and
    # grows by the new rows' entries only
    basis = np.empty((capacity, dim))
    sigma = np.empty((capacity, dim))
    projected = np.empty((capacity, capacity))
    n_basis = 1
    basis[:n_basis] = v.T
    n_sigma = 0
    n_matvecs = 0
    for it in range(1, MAX_ITERATIONS + 1):
        # sigma vectors for any new basis rows
        n_known = n_sigma
        while n_sigma < n_basis:
            sigma[n_sigma] = matvec(basis[n_sigma])
            n_sigma += 1
            n_matvecs += 1
        v, s = basis[:n_basis], sigma[:n_basis]
        projected[:n_basis, n_known:n_basis] = v @ s[n_known:].T
        projected[n_known:n_basis, :n_known] = v[n_known:] @ s[:n_known].T
        h_sub = projected[:n_basis, :n_basis]
        h_sub = 0.5 * (h_sub + h_sub.T)
        evals, evecs = np.linalg.eigh(h_sub)
        theta = evals[:1]
        ritz = v.T @ evecs[:, :1]
        residuals = s.T @ evecs[:, :1] - ritz * theta[None, :]
        norms = np.linalg.norm(residuals, axis=0)
        if norms[0] < TOLERANCE:
            return DavidsonResult(
                eigenvalue=float(theta[0]),
                eigenvector=ritz[:, 0],
                n_iterations=it,
                n_matvecs=n_matvecs,
                residual_norm=float(norms[0]),
            )
        # collapse the subspace when it grows too large
        if n_basis + 1 > capacity:
            v, _ = np.linalg.qr(ritz)
            n_basis = 1
            basis[:n_basis] = v.T
            n_sigma = 0
            continue
        # the preconditioned correction, appended after two Gram-Schmidt
        # passes against the basis so far.  The old rows are never
        # re-factored: a QR of the whole basis may flip a vector's sign
        # (always so for a unit guess off index 0) and so desynchronize the
        # sigma vectors kept for it.
        # |denominator| < 1e-8 becomes +-1e-8: only entries whose diagonal
        # lies within 1e-8 of theta (found in the sorted diagonal, with
        # margin) can qualify
        denom = diagonal - theta[0]
        near = order[np.searchsorted(sorted_diagonal, theta[0] - 2e-8):
                     np.searchsorted(sorted_diagonal, theta[0] + 2e-8)]
        if near.size:
            d = denom[near]
            denom[near] = np.where(np.abs(d) < 1e-8,
                                   np.sign(d + 1e-30) * 1e-8, d)
        corr = residuals[:, 0] / denom
        before = np.linalg.norm(corr)
        v = basis[:n_basis]
        for _ in range(2):
            corr -= v.T @ (v @ corr)
        nrm = np.linalg.norm(corr)
        # relative test: near convergence a tiny correction is still a
        # valid new direction
        if nrm <= 1e-8 * before:
            # stagnation: residual above tolerance but no usable direction
            raise ConvergenceError(
                "Davidson stagnated (preconditioner produced no new "
                "direction)", iterations=it, residual=float(norms[0]),
            )
        basis[n_basis] = corr / nrm
        n_basis += 1
    raise ConvergenceError(
        f"Davidson did not converge in {MAX_ITERATIONS} iterations",
        iterations=MAX_ITERATIONS, residual=float(norms[0]),
    )
