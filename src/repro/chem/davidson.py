"""Davidson-Liu iterative eigensolver.

The standard workhorse for lowest eigenpairs of large sparse Hermitian
operators in quantum chemistry (the FCI matrices behind the paper's Fig. 7a
baselines).  Works matrix-free: the caller supplies a matvec and a diagonal
preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError


@dataclass
class DavidsonResult:
    """Lowest eigenpairs from a Davidson run."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (dim, n_roots)
    n_iterations: int
    n_matvecs: int
    residual_norms: np.ndarray


def davidson(matvec: Callable[[np.ndarray], np.ndarray],
             diagonal: np.ndarray, *, n_roots: int = 1,
             tolerance: float = 1e-9, max_iterations: int = 200,
             max_subspace: int | None = None,
             initial_guess: np.ndarray | None = None) -> DavidsonResult:
    """Find the ``n_roots`` lowest eigenpairs of a Hermitian operator.

    Parameters
    ----------
    matvec:
        y = H @ x for a single vector x.
    diagonal:
        diag(H), used both for the initial guesses (lowest diagonal
        entries) and the Davidson preconditioner.
    max_subspace:
        Subspace collapse threshold (default 8 * n_roots + 8).
    """
    dim = diagonal.size
    if n_roots < 1 or n_roots > dim:
        raise ValidationError(f"n_roots={n_roots} invalid for dim={dim}")
    if max_subspace is None:
        max_subspace = min(dim, 8 * n_roots + 8)
    if max_subspace < 2 * n_roots:
        raise ValidationError("max_subspace too small")

    # initial guesses: unit vectors at the lowest diagonal entries
    if initial_guess is not None:
        v = np.atleast_2d(np.asarray(initial_guess, dtype=float).T).T
        if v.shape[0] != dim:
            raise ValidationError("initial guess dimension mismatch")
    else:
        order = np.argsort(diagonal)
        v = np.zeros((dim, n_roots))
        for k in range(n_roots):
            v[order[k], k] = 1.0
    v, _ = np.linalg.qr(v)

    # the basis and its sigma vectors, one row each, in blocks allocated
    # once; rows [:n_basis] are live and [:n_sigma] have their sigma
    capacity = max(max_subspace, v.shape[1])
    basis = np.empty((capacity, dim))
    sigma = np.empty((capacity, dim))
    n_basis = v.shape[1]
    basis[:n_basis] = v.T
    n_sigma = 0
    n_matvecs = 0
    for it in range(1, max_iterations + 1):
        # sigma vectors for any new basis rows
        while n_sigma < n_basis:
            sigma[n_sigma] = matvec(basis[n_sigma])
            n_sigma += 1
            n_matvecs += 1
        v, s = basis[:n_basis], sigma[:n_basis]
        h_sub = v @ s.T
        h_sub = 0.5 * (h_sub + h_sub.T)
        evals, evecs = np.linalg.eigh(h_sub)
        theta = evals[:n_roots]
        ritz = v.T @ evecs[:, :n_roots]
        residuals = s.T @ evecs[:, :n_roots] - ritz * theta[None, :]
        norms = np.linalg.norm(residuals, axis=0)
        if np.all(norms < tolerance):
            return DavidsonResult(
                eigenvalues=theta.copy(),
                eigenvectors=ritz,
                n_iterations=it,
                n_matvecs=n_matvecs,
                residual_norms=norms,
            )
        # collapse the subspace when it grows too large
        if n_basis + n_roots > max_subspace:
            v, _ = np.linalg.qr(ritz)
            n_basis = v.shape[1]
            basis[:n_basis] = v.T
            n_sigma = 0
            continue
        # preconditioned corrections, each appended after two Gram-Schmidt
        # passes against the basis so far.  The old rows are never
        # re-factored: a QR of the whole basis may flip a vector's sign
        # (always so for a unit guess off index 0) and so desynchronize the
        # sigma vectors kept for it.
        n_old = n_basis
        for k in range(n_roots):
            if norms[k] < tolerance:
                continue
            denom = diagonal - theta[k]
            denom = np.where(np.abs(denom) < 1e-8,
                             np.sign(denom + 1e-30) * 1e-8, denom)
            corr = residuals[:, k] / denom
            before = np.linalg.norm(corr)
            v = basis[:n_basis]
            for _ in range(2):
                corr -= v.T @ (v @ corr)
            nrm = np.linalg.norm(corr)
            # relative test: near convergence a tiny correction is still a
            # valid new direction
            if nrm > 1e-8 * before:
                basis[n_basis] = corr / nrm
                n_basis += 1
        if n_basis == n_old:
            # stagnation: residuals above tolerance but no usable direction
            raise ConvergenceError(
                "Davidson stagnated (preconditioner produced no new "
                "directions)", iterations=it,
                residual=float(norms.max()),
            )
    raise ConvergenceError(
        f"Davidson did not converge in {max_iterations} iterations",
        iterations=max_iterations, residual=float(norms.max()),
    )
