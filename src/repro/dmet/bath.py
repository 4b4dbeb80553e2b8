"""Schmidt-decomposition bath construction (paper Sec. III-B step 3).

For an idempotent mean-field density, the entanglement between a fragment F
and its environment is carried by at most |F| bath orbitals: the left
singular vectors of the environment-fragment block of the density matrix.
The embedding space = fragment orbitals + bath orbitals; everything else is
the (unentangled) core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from repro.common.errors import ValidationError

#: Singular values of the environment-fragment density block at or below
#: this are unentangled: no bath orbital is kept for them.
BATH_TOLERANCE = 1e-8


@dataclass
class EmbeddingBasis:
    """Fragment + bath embedding basis for one fragment.

    Attributes
    ----------
    fragment:
        Orbital indices of the fragment (order defines the first block of the
        embedding space).
    transform:
        (N, n_emb) orthonormal map T from the full orthonormal basis to the
        embedding basis; columns 0..nf-1 are the fragment orbitals.
    n_fragment / n_bath:
        Block sizes (n_emb = n_fragment + n_bath).
    core_density:
        Spin-summed density of the frozen core: P - T (T^t P T) T^t.
    n_electrons:
        Electron count of the embedded problem (rounded trace of T^t P T).
    entanglement_spectrum:
        Singular values of the environment-fragment density block
        (diagnostic: how entangled the fragment is with its bath).
    """

    fragment: list[int]
    transform: np.ndarray
    n_fragment: int
    n_bath: int
    core_density: np.ndarray
    n_electrons: int
    entanglement_spectrum: np.ndarray

    @property
    def n_embedding(self) -> int:
        return self.n_fragment + self.n_bath


def _align_degenerate(u: np.ndarray, s: np.ndarray,
                      vt: np.ndarray) -> np.ndarray:
    """Fix the bath basis inside each group of equal singular values.

    Any rotation of a degenerate group's singular vectors is an equally
    valid SVD, so LAPACK's basis there follows last-bit rounding of the
    density (the fragments of a symmetric ring).  Each group is rotated so
    that its right vectors are as close as possible to the fragment
    orbitals they weigh most (orthogonal Procrustes): bath orbital k is
    then D_env,frag e_k / s_k whenever the group spans those axes.
    """
    start = 0
    while start < s.size:
        stop = start + 1
        while stop < s.size and s[start] - s[stop] <= 1e-10 * max(s[0], 1.0):
            stop += 1
        if stop - start > 1:
            v = vt[start:stop].T                      # (nf, k)
            axes = np.sort(np.argsort(-np.einsum("ik,ik->i", v, v))
                           [:stop - start])
            w, _, zt = np.linalg.svd(v[axes])
            u[:, start:stop] = u[:, start:stop] @ (w @ zt).T
        start = stop
    return u


def build_bath(density: np.ndarray, fragment: list[int]) -> EmbeddingBasis:
    """Construct the embedding basis for ``fragment``.

    Parameters
    ----------
    density:
        Spin-summed mean-field density in the orthonormal basis (idempotent
        after division by 2).
    fragment:
        Orbital indices belonging to the fragment.
    """
    n = density.shape[0]
    frag = sorted(set(int(f) for f in fragment))
    if frag != sorted(fragment) and len(frag) != len(fragment):
        raise ValidationError("duplicate orbitals in fragment")
    if not frag or frag[0] < 0 or frag[-1] >= n:
        raise ValidationError(f"fragment {fragment} out of range for N={n}")
    env = [i for i in range(n) if i not in set(frag)]
    nf = len(frag)

    if not env:
        # fragment covers the whole system: embedding = identity, no core
        t = np.eye(n)[:, frag] if frag != list(range(n)) else np.eye(n)
        return EmbeddingBasis(
            fragment=frag, transform=t, n_fragment=nf, n_bath=0,
            core_density=np.zeros_like(density),
            n_electrons=int(round(np.trace(density))),
            entanglement_spectrum=np.zeros(0),
        )

    # environment x fragment block of the density
    b = density[np.ix_(env, frag)]
    u, s, vt = sla.svd(b, full_matrices=False)
    u = _align_degenerate(u, s, vt)
    keep = s > BATH_TOLERANCE
    nb = int(np.count_nonzero(keep))
    bath_vectors = u[:, keep]

    t = np.zeros((n, nf + nb))
    for col, f in enumerate(frag):
        t[f, col] = 1.0
    for col in range(nb):
        t[env, nf + col] = bath_vectors[:, col]

    d_emb = t.T @ density @ t
    core = density - t @ d_emb @ t.T
    n_elec_f = float(np.trace(d_emb))
    n_elec = int(round(n_elec_f))
    if abs(n_elec - n_elec_f) > 1e-4:
        # mean-field density entangles the embedding with the core more than
        # numerically expected - typically a non-idempotent density
        raise ValidationError(
            f"non-integer electron count {n_elec_f:.6f} in embedding space; "
            "is the low-level density idempotent?"
        )
    if n_elec % 2:
        n_elec += 1 if n_elec_f > n_elec else -1

    return EmbeddingBasis(
        fragment=frag,
        transform=t,
        n_fragment=nf,
        n_bath=nb,
        core_density=core,
        n_electrons=n_elec,
        entanglement_spectrum=s,
    )
