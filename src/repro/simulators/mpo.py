"""Matrix Product Operators built from weighted Pauli strings.

Support for the DMRG extension (Sec. III-A of the paper notes the MPS-VQE
ansatz "may well [be] substitute[d] by another MPS based optimization
algorithm such as DMRG" at equal expressiveness).  A QubitOperator is first
laid out as an exact MPO of bond dimension = #terms, then compressed by
successive SVDs, which collapses the typical molecular Hamiltonian to a
modest bond dimension.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.operators.pauli import PAULI_MATRICES, QubitOperator
from repro.simulators.kernels import gemm, svd_truncated, tensordot_fused

#: Singular values at or below this are dropped when an MPO is compressed.
COMPRESS_CUTOFF = 1e-12


class MPO:
    """An MPO over qubits: tensors W[k] of shape (Dl, 2, 2, Dr)."""

    def __init__(self, tensors: list[np.ndarray]):
        if not tensors:
            raise ValidationError("empty MPO")
        for k, w in enumerate(tensors):
            if w.ndim != 4 or w.shape[1] != 2 or w.shape[2] != 2:
                raise ValidationError(f"bad MPO tensor shape at site {k}")
        self.tensors = tensors

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    def bond_dimensions(self) -> list[int]:
        return [w.shape[3] for w in self.tensors[:-1]]

    def __sizeof__(self) -> int:
        """Bytes held: the site tensors."""
        return sum(w.nbytes for w in self.tensors)

    @classmethod
    def from_qubit_operator(cls, op: QubitOperator, n_qubits: int) -> "MPO":
        """Sum-of-strings MPO, compressed incrementally while it is built.

        Each bond channel indexes a *distinct Pauli suffix* (the remaining
        string on the sites to the right), so terms sharing a tail merge
        immediately; the first site carries the coefficients and interior
        sites route every suffix class through its leading Pauli factor.
        After each site the left part is SVD-compressed, and because the
        carried matrix is exactly the prefix-basis x suffix-class
        coefficient matrix, its rank is the *minimal* MPO bond dimension
        at that cut - the build therefore truncates to the final bond
        dimensions on the fly instead of dragging O(#terms)-wide bonds
        through the chain.
        """
        terms = list(op.simplify(0.0).terms.items())
        if not terms:
            raise ValidationError("cannot build an MPO from the zero operator")
        if n_qubits < 1:
            raise ValidationError("n_qubits must be positive")
        labels = [term.label(n_qubits) for term, _ in terms]
        if n_qubits == 1:
            w = np.zeros((1, 2, 2, 1), dtype=complex)
            for (term, coeff), lab in zip(terms, labels):
                w[0, :, :, 0] += coeff * PAULI_MATRICES[lab[0]]
            return cls([w])
        tensors: list[np.ndarray] = []
        # suffixes[c]: the Pauli string on sites k.. carried by channel c;
        # carry[r, c]: weight of channel c in compressed left-bond state r.
        suffixes: list[str] = labels
        carry = np.array([[coeff for _, coeff in terms]], dtype=complex)
        for k in range(n_qubits - 1):
            r = carry.shape[0]
            rest_index: dict[str, int] = {}
            col_char: list[str] = []
            col_new: list[int] = []
            for s in suffixes:
                rest = s[1:]
                col_char.append(s[0])
                col_new.append(rest_index.setdefault(rest, len(rest_index)))
            m_new = len(rest_index)
            w = np.zeros((r, 2, 2, m_new), dtype=complex)
            for ch, mat in PAULI_MATRICES.items():
                old = [c for c, cc in enumerate(col_char) if cc == ch]
                if old:
                    # (ch, rest) determines the old channel, so within one
                    # character group the old->new map is injective.
                    new = [col_new[c] for c in old]
                    w[:, :, :, new] += (mat[None, :, :, None]
                                        * carry[:, None, None, old])
            u, s, vh, _ = svd_truncated(w.reshape(r * 4, m_new),
                                        cutoff=COMPRESS_CUTOFF)
            tensors.append(u.reshape(r, 2, 2, s.size))
            carry = s[:, None] * vh
            suffixes = sorted(rest_index, key=rest_index.get)
        wl = np.zeros((carry.shape[0], 2, 2, 1), dtype=complex)
        for ch, mat in PAULI_MATRICES.items():
            cols = [c for c, s in enumerate(suffixes) if s == ch]
            if cols:
                wl[:, :, :, 0] += carry[:, cols].sum(axis=1)[:, None, None] \
                    * mat[None, :, :]
        tensors.append(wl)
        mpo = cls(tensors)
        mpo._compress()
        return mpo

    def _compress(self) -> None:
        """Two SVD sweeps shrinking redundant bond dimensions."""
        n = self.n_qubits
        # left-to-right
        for k in range(n - 1):
            w = self.tensors[k]
            dl, _, _, dr = w.shape
            mat = w.reshape(dl * 4, dr)
            u, s, vh, _ = svd_truncated(mat, cutoff=COMPRESS_CUTOFF)
            self.tensors[k] = u.reshape(dl, 2, 2, s.size)
            carry = (s[:, None] * vh)
            self.tensors[k + 1] = tensordot_fused(
                carry, self.tensors[k + 1], axes=((1,), (0,)))
        # right-to-left
        for k in range(n - 1, 0, -1):
            w = self.tensors[k]
            dl, _, _, dr = w.shape
            mat = w.reshape(dl, 4 * dr)
            u, s, vh, _ = svd_truncated(mat, cutoff=COMPRESS_CUTOFF)
            self.tensors[k] = vh.reshape(s.size, 2, 2, dr)
            carry = u * s[None, :]
            self.tensors[k - 1] = tensordot_fused(
                self.tensors[k - 1], carry, axes=((3,), (0,)))

    def apply(self, mps, *, cutoff: float = 1e-13):
        """``O|psi>`` as a normalized right-canonical MPS plus its norm.

        A left-to-right *zip-up* sweep contracts one MPO tensor into one
        site tensor at a time - two GEMMs of fixed layout on the state's
        kernel backend - and immediately SVD-splits the result, so the
        working bond never exceeds ``(previous rank) * 2`` instead of the
        naive ``D_psi * D_mpo`` product; with ``cutoff`` at numerical noise
        the kept rank is the exact Schmidt rank of ``O|psi>`` (capped at
        ``min(2^b, 2^(n-b))``).  The sweep leaves left-canonical tensors
        whose norm sits entirely in the last site, so ``||O|psi>||`` is
        read off before the standard canonicalization sweeps restore the
        right-canonical form + Schmidt values the gate/measurement kernels
        require.  Returns ``(mps_out, norm)`` with ``mps_out`` normalized;
        the caller carries the scalar.
        """
        from repro.simulators.mps import MPS, TruncationStats

        n = self.n_qubits
        if mps.n_qubits != n:
            raise ValidationError(
                f"MPO register {n} != state register {mps.n_qubits}"
            )
        be = mps.backend
        carry = np.ones((1, 1, 1), dtype=complex)  # (new bond, ket, mpo)
        tensors: list[np.ndarray] = []
        for k, (b, w) in enumerate(zip(mps.tensors, self.tensors)):
            # t[x, j, c, d] = carry[x, a, m] B[a, i, c] W[m, j, i, d]
            x, a, mb = carry.shape
            ac, mc = b.shape[2], w.shape[3]
            t = gemm(carry.transpose(0, 2, 1).reshape(x * mb, a),
                     b.reshape(a, -1), be)                   # x m, i c
            t = gemm(t.reshape(x, mb, 2, ac).transpose(0, 3, 1, 2)
                     .reshape(x * ac, mb * 2),
                     w.transpose(0, 2, 1, 3).reshape(mb * 2, 2 * mc),
                     be)                                     # x c, j d
            t = t.reshape(x, ac, 2, mc).transpose(0, 2, 1, 3)  # x j c d
            if k == n - 1:
                tensors.append(t.reshape(x, 2, ac * mc))
                break
            u, s, vh, _ = svd_truncated(t.reshape(x * 2, ac * mc),
                                        cutoff=cutoff, backend=be)
            tensors.append(u.reshape(x, 2, s.size))
            carry = (s[:, None] * vh).reshape(s.size, ac, mc)
        norm = float(np.linalg.norm(tensors[-1]))
        if norm == 0.0:
            raise ValidationError("operator annihilates the state")
        out = MPS(n, cutoff=cutoff, backend=be)
        out.tensors = tensors
        out._canonicalize()
        out.stats = TruncationStats()  # construction is not evolution
        return out, norm

    def matrix(self) -> np.ndarray:
        """Dense matrix (tests only)."""
        if self.n_qubits > 12:
            raise ValidationError("refusing dense MPO expansion")
        out = self.tensors[0]  # (1, 2, 2, D)
        for k in range(1, self.n_qubits):
            out = tensordot_fused(out, self.tensors[k], axes=((3,), (0,))
                                  ).transpose(0, 1, 3, 2, 4, 5)  # a i k j l c
            s = out.shape
            out = out.reshape(s[0], s[1] * s[2], s[3] * s[4], s[5])
        return out[0, :, :, 0]

    def expectation(self, mps) -> float:
        """<psi| MPO |psi> via the standard three-layer transfer contraction.

        Each site is three fused permute+GEMM contractions through the
        kernel plan cache (:func:`repro.simulators.kernels.tensordot_fused`)
        instead of per-call einsum path searches - the site shapes repeat
        across the chain and across VQE iterations, so the compiled plans
        amortize exactly like the gate kernels' do.
        """
        env = np.ones((1, 1, 1), dtype=complex)  # (ket, mpo, bra)
        for k in range(self.n_qubits):
            b = mps.tensors[k]
            w = self.tensors[k]
            # env[a, m, c] B[a, i, a'] W[m, i', i, m'] conj(B)[c, i', c']
            t = tensordot_fused(env, b, axes=((0,), (0,)))       # m c i a'
            t = tensordot_fused(t, w, axes=((0, 2), (0, 2)))     # c a' j m'
            env = tensordot_fused(t, b.conj(),
                                  axes=((0, 2), (0, 1)))         # a' m' c'
        return float(np.real(env[0, 0, 0]))
