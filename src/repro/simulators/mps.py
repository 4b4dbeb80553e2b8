"""Matrix Product State with right-canonical tensors and bond Schmidt values.

Implements the paper's Sec. III-A verbatim:

* the state is stored as right-canonical site tensors B_n (Eq. 6) plus the
  Schmidt values lambda_b on every bond;
* a nearest-neighbour two-qubit gate contracts into the rank-4 tensor M
  (Eq. 7), is pre-scaled by the *left* bond's Schmidt values (Eq. 8),
  economy-SVD'd (Eq. 9) and truncated to the bond dimension D keeping the
  largest Schmidt values;
* the left tensor is restored with the Hastings trick B = M V+ (Eq. 10),
  which avoids dividing by small Schmidt values and keeps both tensors
  right-canonical;
* a Pauli rotation exp(-i a/2 P) over any span is applied whole, as its
  bond-dimension-2 MPO cos(a/2) 1 - i sin(a/2) P followed by one
  compression sweep that runs Eqs. 8-10 once per bond of the span
  (:meth:`MPS.apply_pauli_rotation`) - no CNOT staircase, no routing swaps;
* local expectation values close with lambda^2 on the left and the
  right-canonical identity on the right (Eq. 11);
* the cumulative discarded Schmidt weight is tracked as the truncation-error
  monitor the paper describes, with an optional hard ceiling that raises
  :class:`repro.common.errors.TruncationOverflowError`.

Bond convention: ``lambdas[b]`` lives on the bond *left of* site ``b``
(``lambdas[0]`` and ``lambdas[n]`` are the trivial edge bonds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.gates import GATE_MATRICES
from repro.common.errors import TruncationOverflowError, ValidationError
from repro.common.rng import default_rng
from repro.obs import metrics as _obs
from repro.simulators.kernels import (
    KernelBackend,
    get_backend,
    svd_truncated,
    tensordot_fused,
)

# observability instruments (no-ops unless `repro.obs` is enabled); counter
# values are deterministic functions of the gate stream, which the
# tests/regression/ budgets pin
_M_GATE_1Q = _obs.counter(
    "mps.gate_1q", "single-qubit gate applications")
_M_GATE_2Q = _obs.counter(
    "mps.gate_2q", "two-qubit gate applications (before routing)")
_M_SWAP = _obs.counter(
    "mps.swap", "adjacent SWAPs inserted by routing plans")
_M_ROTATION = _obs.counter(
    "mps.pauli_rotation",
    "Pauli rotations applied as one bond-2 MPO update + compression sweep "
    "(spans of two or more sites; one SVD per bond of the span)")
_M_SVD = _obs.counter(
    "mps.svd", "truncated SVDs (Eq. 9 updates and canonicalization sweeps)")
_M_DISCARDED = _obs.counter(
    "mps.discarded_weight",
    "discarded Schmidt weight (Eq. 11 truncation error), labelled per bond",
    unit="weight")
_M_TRUNC_EVENTS = _obs.counter(
    "mps.truncation_events", "truncations with nonzero discarded weight")
_M_MAX_BOND = _obs.gauge(
    "mps.max_bond_dimension", "largest bond dimension reached")
_M_ROUTE_REQUESTS = _obs.counter(
    "mps.routing_plan.requests",
    "two-qubit gates routed onto the chain (one routing plan each)")

_SWAP = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)

#: P.B on a (left, physical, right) site tensor without a GEMM, as (flip
#: the physical index?, scale of its two entries after the flip)
_PAULI_ACTION = {
    "X": (True, None),
    "Y": (True, np.array([-1j, 1j]).reshape(1, 2, 1)),
    "Z": (False, np.array([1.0, -1.0]).reshape(1, 2, 1)),
}


def _pauli_times(ch: str, b: np.ndarray) -> np.ndarray:
    """P.B for P in X/Y/Z acting on the physical (middle) index of ``b``."""
    flip, phase = _PAULI_ACTION[ch]
    if flip:
        b = b[:, ::-1, :]
    return b if phase is None else b * phase


@dataclass
class TruncationStats:
    """Accumulated truncation diagnostics for one MPS evolution.

    ``per_bond_discarded_weight`` resolves the total by bond index (the
    bond *left of* the site carrying the new Schmidt vector), which is
    the Eq. 11 truncation-error budget the property suite checks against
    exact-state fidelity and ``repro.obs`` exports per bond.
    """

    total_discarded_weight: float = 0.0
    max_discarded_weight: float = 0.0
    truncation_events: int = 0
    max_bond_dimension_reached: int = 1
    per_bond_discarded_weight: dict[int, float] = field(default_factory=dict)

    def record(self, discarded: float, bond_dim: int,
               bond: int | None = None) -> None:
        self.total_discarded_weight += discarded
        self.max_discarded_weight = max(self.max_discarded_weight, discarded)
        if discarded > 0.0:
            self.truncation_events += 1
            if bond is not None:
                self.per_bond_discarded_weight[bond] = \
                    self.per_bond_discarded_weight.get(bond, 0.0) + discarded
        if bond_dim > self.max_bond_dimension_reached:
            self.max_bond_dimension_reached = bond_dim
        if _obs.REGISTRY.enabled:
            if discarded > 0.0:
                _M_TRUNC_EVENTS.inc()
                if bond is not None:
                    _M_DISCARDED.inc(discarded, bond=bond)
            _M_MAX_BOND.set_max(bond_dim)


class MPS:
    """A right-canonical matrix product state over qubits (d=2).

    Parameters
    ----------
    n_qubits:
        Chain length.
    max_bond_dimension:
        Truncation threshold D; ``None`` means unbounded (exact evolution).
    cutoff:
        Relative singular-value cutoff applied before the D cap.
    max_truncation_error:
        Optional hard ceiling on accumulated discarded weight - exceeded
        means the simulation is no longer trustworthy at this D and a
        :class:`TruncationOverflowError` is raised.
    """

    def __init__(self, n_qubits: int, *, max_bond_dimension: int | None = None,
                 cutoff: float = 1e-12,
                 max_truncation_error: float | None = None,
                 backend: KernelBackend | None = None,
                 update_scheme: str = "hastings"):
        if n_qubits < 1:
            raise ValidationError("MPS needs at least one site")
        if max_bond_dimension is not None and max_bond_dimension < 1:
            raise ValidationError("max_bond_dimension must be >= 1")
        if update_scheme not in ("hastings", "vidal"):
            raise ValidationError(
                f"unknown update scheme {update_scheme!r}"
            )
        self.n_qubits = n_qubits
        self.max_bond_dimension = max_bond_dimension
        self.cutoff = cutoff
        self.max_truncation_error = max_truncation_error
        #: "hastings" restores B_q = M V+ (Eq. 10, no division); "vidal"
        #: divides U S by the left Schmidt values - the numerically fragile
        #: alternative the paper's scheme avoids (kept for the ablation
        #: benchmark).
        self.update_scheme = update_scheme
        self.backend = backend or get_backend()
        self.stats = TruncationStats()
        #: monotone state-revision counter, bumped by every mutating
        #: operation; measurement-side environment caches key on it so a
        #: stale environment can never be read against an evolved state
        self.revision = 0
        # |0...0> product state
        self.tensors: list[np.ndarray] = []
        for _ in range(n_qubits):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.lambdas: list[np.ndarray] = [
            np.ones(1) for _ in range(n_qubits + 1)
        ]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bitstring(cls, bits: str, **kwargs) -> "MPS":
        """Product state |b_0 b_1 ...> with qubit 0 leftmost."""
        mps = cls(len(bits), **kwargs)
        for q, b in enumerate(bits):
            if b not in "01":
                raise ValidationError(f"bad bit {b!r}")
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, int(b), 0] = 1.0
            mps.tensors[q] = t
        mps.revision += 1
        return mps

    @classmethod
    def random_state(cls, n_qubits: int, bond_dimension: int,
                     seed: int | None = None, **kwargs) -> "MPS":
        """Random MPS with the requested bond dimension, canonicalized.

        This is the Sec. IV-B benchmark initial state ("the initial quantum
        state is generated randomly according to a bond dimension
        threshold").
        """
        rng = default_rng(seed)
        mps = cls(n_qubits, **kwargs)
        dims = [1]
        for b in range(1, n_qubits):
            dims.append(int(min(bond_dimension, 2 ** b,
                                2 ** (n_qubits - b))))
        dims.append(1)
        for q in range(n_qubits):
            shape = (dims[q], 2, dims[q + 1])
            mps.tensors[q] = (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        mps._canonicalize()
        mps.stats = TruncationStats()  # construction is not evolution
        return mps

    @classmethod
    def from_attached(cls, n_qubits: int, tensors, lambdas, *,
                      revision: int = 0, **kwargs) -> "MPS":
        """Wrap externally owned tensor buffers as an MPS (no copies).

        The worker-side entry point of the ``mps_shm`` state transport
        (:mod:`repro.parallel.transport`): ``tensors`` and ``lambdas`` are
        typically read-only views into a shared-memory segment the parent
        process owns, and ``revision`` restores the exporter's revision
        counter so measurement-side caches key consistently.  The wrapped
        state is only safe to *measure*; applying gates to read-only
        buffers raises.
        """
        if len(tensors) != n_qubits or len(lambdas) != n_qubits + 1:
            raise ValidationError(
                f"attached buffers do not describe {n_qubits} sites: "
                f"{len(tensors)} tensors, {len(lambdas)} bond vectors"
            )
        mps = cls(n_qubits, **kwargs)
        mps.tensors = list(tensors)
        mps.lambdas = list(lambdas)
        mps.revision = int(revision)
        return mps

    # -- canonical form -------------------------------------------------------

    def _canonicalize(self) -> None:
        """Restore right-canonical form + Schmidt values via two sweeps."""
        n = self.n_qubits
        # left-to-right QR sweep -> left-canonical, accumulates norm
        for q in range(n - 1):
            dl, d, dr = self.tensors[q].shape
            mat = self.tensors[q].reshape(dl * d, dr)
            qm, rm = np.linalg.qr(mat)
            self.tensors[q] = qm.reshape(dl, d, qm.shape[1])
            self.tensors[q + 1] = tensordot_fused(
                rm, self.tensors[q + 1], axes=((1,), (0,)),
                backend=self.backend)
        # right-to-left SVD sweep -> right-canonical + Schmidt values
        for q in range(n - 1, 0, -1):
            dl, d, dr = self.tensors[q].shape
            mat = self.tensors[q].reshape(dl, d * dr)
            u, s, vh, disc = svd_truncated(
                mat, self.max_bond_dimension, self.cutoff,
                backend=self.backend)
            if _obs.REGISTRY.enabled:
                _M_SVD.inc()
            self.stats.record(disc, s.size, bond=q)
            norm = np.linalg.norm(s)
            s = s / norm
            self.lambdas[q] = s
            self.tensors[q] = vh.reshape(s.size, d, dr)
            carry = u * (s * norm)[None, :]
            self.tensors[q - 1] = tensordot_fused(
                self.tensors[q - 1], carry, axes=((2,), (0,)),
                backend=self.backend)
        # overall normalization sits in tensor 0
        nrm = np.linalg.norm(self.tensors[0])
        if nrm == 0.0:
            raise ValidationError("zero-norm MPS")
        self.tensors[0] = self.tensors[0] / nrm
        self.lambdas[0] = np.ones(1)
        self.lambdas[n] = np.ones(1)
        self.revision += 1

    # -- properties --------------------------------------------------------------

    def bond_dimensions(self) -> list[int]:
        return [lam.size for lam in self.lambdas[1:-1]]

    def max_bond(self) -> int:
        dims = self.bond_dimensions()
        return max(dims) if dims else 1

    def memory_bytes(self) -> int:
        return sum(t.nbytes for t in self.tensors) + \
            sum(l.nbytes for l in self.lambdas)

    def entanglement_entropy(self, bond: int) -> float:
        """Von Neumann entropy of the Schmidt spectrum on ``bond``."""
        if bond < 1 or bond > self.n_qubits - 1:
            raise ValidationError(f"bond {bond} out of range")
        lam2 = self.lambdas[bond] ** 2
        lam2 = lam2[lam2 > 1e-16]
        return float(-np.sum(lam2 * np.log(lam2)))

    def norm(self) -> float:
        """State norm (1 up to accumulated truncation loss)."""
        # right-canonical: norm^2 = sum_i |tensor_0|^2 contracted... the
        # full contraction reduces to Frobenius norm of the first tensor
        return float(np.linalg.norm(self.tensors[0]))

    def check_right_canonical(self, tolerance: float = 1e-9) -> bool:
        """Verify the right-canonical invariant on every site."""
        for q in range(self.n_qubits):
            b = self.tensors[q]
            g = tensordot_fused(b, b.conj(), axes=((1, 2), (1, 2)),
                                backend=self.backend)
            if not np.allclose(g, np.eye(b.shape[0]), atol=tolerance):
                return False
        return True

    # -- gate application ---------------------------------------------------------

    def apply_one_qubit(self, mat: np.ndarray, q: int) -> None:
        """Apply a 2x2 unitary on site q (right-canonical preserved)."""
        if q < 0 or q >= self.n_qubits:
            raise ValidationError(f"qubit {q} out of range")
        if _obs.REGISTRY.enabled:
            _M_GATE_1Q.inc()
        self.tensors[q] = tensordot_fused(
            mat.astype(complex), self.tensors[q], axes=((1,), (1,)),
            backend=self.backend).transpose(1, 0, 2)
        self.revision += 1

    def apply_two_qubit(self, mat: np.ndarray, q1: int, q2: int) -> None:
        """Apply a 4x4 unitary on (q1, q2); routes non-adjacent pairs.

        The matrix is in the |q1 q2> basis (first qubit = MSB).  Non-adjacent
        pairs are handled by swapping q1 next to q2 and back, as the paper's
        simulator does for the Hadamard-test ancilla couplings.  The swap
        schedule is the flat :func:`routing_plan` of the pair.
        """
        if q1 == q2:
            raise ValidationError("two-qubit gate needs distinct qubits")
        for q in (q1, q2):
            if q < 0 or q >= self.n_qubits:
                raise ValidationError(f"qubit {q} out of range")
        plan = routing_plan(q1, q2)
        if _obs.REGISTRY.enabled:
            _M_GATE_2Q.inc()
            _M_ROUTE_REQUESTS.inc()
            if plan.n_swaps:
                _M_SWAP.inc(plan.n_swaps)
        gate = np.asarray(mat, complex)
        if plan.permute:
            gate = _permute4(gate)
        for lo in plan.swaps_in:
            self._apply_adjacent(_SWAP, lo)
        self._apply_adjacent(gate, plan.gate_site)
        for lo in plan.swaps_out:
            self._apply_adjacent(_SWAP, lo)

    def _apply_adjacent(self, mat: np.ndarray, q: int) -> None:
        """Gate on sites (q, q+1) via Eqs. 7-10 of the paper."""
        b1, b2 = self.tensors[q], self.tensors[q + 1]
        gate = mat.reshape(2, 2, 2, 2)  # [i_out, j_out, i_in, j_in]
        # Eq. 7: M[l, i, j, r]
        theta = tensordot_fused(b1, b2, axes=((2,), (0,)),
                                backend=self.backend)      # l i' j' r
        m = tensordot_fused(gate, theta, axes=((2, 3), (1, 2)),
                            backend=self.backend)          # i j l r
        m = m.transpose(2, 0, 1, 3)                        # l i j r
        # Eq. 8: scale by the left bond's Schmidt values
        lam_left = self.lambdas[q]
        m_scaled = m * lam_left[:, None, None, None]
        dl, _, _, dr = m.shape
        # Eq. 9: SVD + truncation
        u, s, vh, disc = self._split_bond(
            m_scaled.reshape(dl * 2, 2 * dr), q + 1)
        chi = s.size
        new_b2 = vh.reshape(chi, 2, dr)
        self.tensors[q + 1] = new_b2
        if self.update_scheme == "vidal":
            # divide the left Schmidt values back out of U S - correct in
            # exact arithmetic but amplifies noise when lambdas are small
            lam_safe = np.where(lam_left > 1e-14, lam_left, 1.0)
            new_b1 = ((u * s[None, :] / np.linalg.norm(s))
                      .reshape(dl, 2, chi)
                      / lam_safe[:, None, None])
        else:
            # Eq. 10 (Hastings): B_q = M V+, right-canonical by construction
            new_b1 = tensordot_fused(m, new_b2.conj(), axes=((2, 3), (1, 2)),
                                     backend=self.backend)  # l i chi
        if disc > 0.0:
            new_b1 = _renormalized(new_b1, lam_left)
        self.tensors[q] = new_b1
        self.revision += 1

    def _split_bond(self, scaled: np.ndarray, bond: int):
        """Eq. 9 on one bond: SVD of the lambda-scaled unfolding, truncated.

        Books the discarded weight against ``bond``, enforces the
        truncation-error ceiling and stores the new (unit-norm) Schmidt
        values; returns ``(u, s, vh, discarded)`` for the caller to
        rebuild its site tensors from.
        """
        u, s, vh, disc = svd_truncated(
            scaled, self.max_bond_dimension, self.cutoff,
            backend=self.backend)
        if _obs.REGISTRY.enabled:
            _M_SVD.inc()
        self.stats.record(disc, s.size, bond=bond)
        if (self.max_truncation_error is not None
                and self.stats.total_discarded_weight
                > self.max_truncation_error):
            raise TruncationOverflowError(
                f"accumulated truncation error "
                f"{self.stats.total_discarded_weight:.3e} exceeds limit "
                f"{self.max_truncation_error:.3e} (D="
                f"{self.max_bond_dimension})",
                accumulated_error=self.stats.total_discarded_weight,
            )
        self.lambdas[bond] = s / np.linalg.norm(s)
        return u, s, vh, disc

    def apply_pauli_rotation(self, ops, angle: float) -> None:
        """Apply exp(-i angle/2 P) for a Pauli string P in one sweep.

        ``ops`` is the sparse ``(qubit, 'X'|'Y'|'Z')`` list of the string
        (:meth:`repro.operators.pauli.PauliTerm.ops`); the angle convention
        is the ``PR``/``RZ`` gate's.  The rotation is the bond-dimension-2
        MPO cos(a/2) 1 - i sin(a/2) P over the span [lo, hi] of the string:

        1. *stack*: every site tensor of the span becomes the pair
           (B_q, P_q B_q) - identity on gap sites, cos and -i sin folded
           into site lo - which doubles the bonds lo+1..hi.  P_q B_q is an
           index flip and/or sign, no GEMM;
        2. *QR sweep*, right to left over hi..lo+1: restores right-canonical
           form on those sites and pushes the non-orthogonal remainder
           into site lo;
        3. *compression sweep*, left to right: Eqs. 8-10 once per bond -
           scale by the left Schmidt values, truncated SVD at the state's D
           and cutoff, Hastings B_q = M V+, renormalize after a truncation.

        That is hi - lo SVDs and no swaps, against 2(k - 1) two-site
        updates plus the routing swaps of every identity gap for the CNOT
        staircase of a weight-k string, and it truncates less: the
        staircase's mid-ladder states carry more entanglement than the
        states before and after the rotation, this sweep only ever
        truncates the rotated state itself.  A one-site span is a plain
        single-qubit gate.
        """
        ops = list(ops)
        factors = dict(ops)
        if not factors or len(factors) != len(ops):
            raise ValidationError(
                f"Pauli rotation needs distinct qubits, got {ops}")
        lo, hi = min(factors), max(factors)
        if lo < 0 or hi >= self.n_qubits:
            raise ValidationError(f"Pauli support {ops} out of range")
        if any(ch not in _PAULI_ACTION for ch in factors.values()):
            raise ValidationError(f"bad Pauli string {ops}")
        if self.update_scheme != "hastings":
            raise ValidationError(
                "apply_pauli_rotation implements the Hastings update only; "
                f"run the decomposed() gate stream on a "
                f"{self.update_scheme!r} state")
        c, sn = np.cos(0.5 * angle), np.sin(0.5 * angle)
        if lo == hi:
            self.apply_one_qubit(
                c * GATE_MATRICES["I"] - 1j * sn * GATE_MATRICES[factors[lo]],
                lo)
            return
        if _obs.REGISTRY.enabled:
            _M_ROTATION.inc()
        be = self.backend

        def stacked_pair(q, carry):
            """(B_q . carry[0], P_q B_q . carry[1]): the two MPO blocks."""
            top = bot = self.tensors[q]
            if carry is not None:
                # one GEMM for both blocks: (l, i, block, new right bond)
                prod = tensordot_fused(top, carry, axes=((2,), (1,)),
                                       backend=be)
                top, bot = prod[:, :, 0, :], prod[:, :, 1, :]
            ch = factors.get(q)
            return top, bot if ch is None else _pauli_times(ch, bot)

        # steps 1 + 2, from hi down to lo + 1; ``carry`` is the (block,
        # old right bond, new right bond) remainder each QR hands left
        carry = None
        canon: dict[int, np.ndarray] = {}
        for q in range(hi, lo, -1):
            top, bot = stacked_pair(q, carry)
            dl, _, k = top.shape
            rows = np.concatenate((top, bot), axis=0).reshape(2 * dl, 2 * k)
            qm, rm = np.linalg.qr(rows.conj().T)
            canon[q] = qm.conj().T.reshape(-1, 2, k)
            carry = rm.conj().T.reshape(2, dl, -1)
        top, bot = stacked_pair(lo, carry)
        cur = c * top - 1j * sn * bot
        # step 3: Eqs. 8-10 once per bond, left to right
        for q in range(lo, hi):
            lam_left = self.lambdas[q]
            dl, _, k = cur.shape
            _, _, vh, disc = self._split_bond(
                (cur * lam_left[:, None, None]).reshape(dl * 2, k), q + 1)
            new_b = tensordot_fused(cur, vh.conj(), axes=((2,), (1,)),
                                    backend=be)
            if disc > 0.0:
                new_b = _renormalized(new_b, lam_left)
            self.tensors[q] = new_b
            cur = tensordot_fused(vh, canon[q + 1], axes=((1,), (0,)),
                                  backend=be)
        self.tensors[hi] = cur
        self.revision += 1

    # -- measurement -----------------------------------------------------------------

    def expectation_local(self, ops: dict[int, np.ndarray]) -> complex:
        """<psi| prod_q O_q |psi> for single-site operators O_q (Eq. 11).

        The transfer contraction runs over the contiguous range spanning the
        support; identity is used on gap sites; the right-canonical identity
        closes the contraction past the last site.
        """
        if not ops:
            return 1.0 + 0.0j
        sites = sorted(ops)
        if sites[0] < 0 or sites[-1] >= self.n_qubits:
            raise ValidationError("operator support out of range")
        s0 = sites[0]
        lam = self.lambdas[s0]
        env = np.diag((lam * lam).astype(complex))  # [ket, bra]
        for q in range(s0, sites[-1] + 1):
            b = self.tensors[q]
            op = ops.get(q)
            if op is None:
                bk = b
            else:
                bk = tensordot_fused(np.asarray(op, complex), b,
                                     axes=((1,), (1,)),
                                     backend=self.backend).transpose(1, 0, 2)
            # env'[r, s] = sum_{l, m, i} env[l, m] bk[l, i, r] conj(b[m, i, s])
            tmp = tensordot_fused(env, bk, axes=((0,), (0,)),
                                  backend=self.backend)      # m i r
            env = tensordot_fused(tmp, b.conj(), axes=((0, 1), (0, 1)),
                                  backend=self.backend)      # r s
        return complex(np.trace(env))

    def expectation_pauli(self, term) -> float:
        """<psi| P |psi> for a Pauli string (uses the local-op contraction)."""
        ops = {q: GATE_MATRICES[ch] for q, ch in term.ops()}
        return float(np.real(self.expectation_local(ops)))

    def amplitude(self, bits: str) -> complex:
        """Amplitude <b|psi> of one computational basis state."""
        if len(bits) != self.n_qubits:
            raise ValidationError("bitstring length mismatch")
        vec = np.ones((1,), dtype=complex)
        for q, b in enumerate(bits):
            vec = tensordot_fused(vec, self.tensors[q][:, int(b), :],
                                  axes=((0,), (0,)), backend=self.backend)
        return complex(vec[0])

    def to_statevector(self) -> np.ndarray:
        """Dense amplitudes (small n only), qubit 0 = most significant bit."""
        if self.n_qubits > 22:
            raise ValidationError(
                f"refusing dense expansion of {self.n_qubits} qubits"
            )
        out = self.tensors[0]  # (1, 2, D)
        for q in range(1, self.n_qubits):
            out = tensordot_fused(out, self.tensors[q], axes=((out.ndim - 1,),
                                                              (0,)),
                                  backend=self.backend)
        return out.reshape(-1)

    def sample(self, n_samples: int, seed: int | None = None) -> list[str]:
        """Draw computational-basis samples by sequential conditioning.

        Exploits the right-canonical form: sweeping left to right, the
        conditional distribution of qubit k given the already-sampled
        prefix comes from one small contraction per site, never
        materializing the 2^n distribution.  All samples advance together:
        their left-bond environment vectors are stacked into one
        (n_samples, D) matrix, so each site costs two GEMMs for the whole
        batch instead of a Python-level loop per sample.  (This is the
        measurement primitive a sampling-based benchmark like the paper's
        RQC references would use.)
        """
        if n_samples < 1:
            raise ValidationError("need at least one sample")
        rng = default_rng(seed)
        # env: one amplitude row per in-flight sample over the left bond
        env = np.ones((n_samples, 1), dtype=complex)
        bits = np.empty((n_samples, self.n_qubits), dtype=np.uint8)
        for k in range(self.n_qubits):
            b = self.tensors[k]
            dl, _, dr = b.shape
            # unnormalized amplitudes of extending every prefix by 0/1:
            # both branches in ONE fused GEMM against the (dl, 2*dr)
            # unfolding instead of two half-width multiplies
            both = env @ b.reshape(dl, 2 * dr)
            vec0, vec1 = both[:, :dr], both[:, dr:]
            # right-canonicality: P(prefix+i) = |vec_i|^2; squared-modulus
            # row sums avoid the complex einsum products
            p0 = (vec0.real ** 2 + vec0.imag ** 2).sum(axis=1)
            p1 = (vec1.real ** 2 + vec1.imag ** 2).sum(axis=1)
            total = p0 + p1
            if np.any(total <= 0.0):
                raise ValidationError("zero-norm branch while sampling")
            take1 = rng.random(n_samples) >= p0 / total
            bits[:, k] = take1
            env = np.where(take1[:, None], vec1, vec0)
            norm = np.sqrt(np.where(take1, p1, p0))
            env = env / np.where(norm > 0.0, norm, 1.0)[:, None]
        return ["".join("1" if v else "0" for v in row) for row in bits]

    def copy(self) -> "MPS":
        other = MPS(self.n_qubits,
                    max_bond_dimension=self.max_bond_dimension,
                    cutoff=self.cutoff,
                    max_truncation_error=self.max_truncation_error,
                    backend=self.backend,
                    update_scheme=self.update_scheme)
        other.tensors = [t.copy() for t in self.tensors]
        other.lambdas = [l.copy() for l in self.lambdas]
        other.stats = TruncationStats(
            self.stats.total_discarded_weight,
            self.stats.max_discarded_weight,
            self.stats.truncation_events,
            self.stats.max_bond_dimension_reached,
            dict(self.stats.per_bond_discarded_weight),
        )
        return other


def _renormalized(new_b: np.ndarray, lam_left: np.ndarray) -> np.ndarray:
    """Restore unit norm after a truncation removed Schmidt weight.

    Uses the local norm sum_l lambda_l^2 |B_q[l,:,:]|^2 (left part is
    canonical, right part is isometric); |.|^2 row sums beat the
    three-operand einsum here - no complex multiplies.
    """
    row_norms = (new_b.real ** 2 + new_b.imag ** 2) \
        .reshape(new_b.shape[0], -1).sum(axis=1)
    local = float((lam_left * lam_left) @ row_norms)
    if local <= 0.0:
        raise ValidationError("state collapsed during truncation")
    return new_b / np.sqrt(local)


def _permute4(mat: np.ndarray) -> np.ndarray:
    """Reverse qubit order of a 4x4 matrix: |ab> -> |ba> relabelling."""
    perm = [0, 2, 1, 3]
    return mat[np.ix_(perm, perm)]


@dataclass(frozen=True)
class RoutingPlan:
    """Precomputed adjacent-gate schedule for one (q1, q2) gate pair.

    ``swaps_in`` moves q1's content next to q2, the (possibly permuted)
    gate is applied on the adjacent pair at ``gate_site``, and
    ``swaps_out`` restores the original qubit order.
    """

    swaps_in: tuple[int, ...]
    gate_site: int
    permute: bool
    swaps_out: tuple[int, ...]

    @property
    def n_swaps(self) -> int:
        """Total adjacent SWAP applications the plan costs."""
        return len(self.swaps_in) + len(self.swaps_out)


def routing_plan(q1: int, q2: int) -> RoutingPlan:
    """The swap schedule routing a (q1, q2) gate onto the chain.

    Matches the recursive route the simulator historically produced: q1's
    content walks site by site until adjacent to q2, the gate acts there
    (permuted when the pair arrives in (high, low) order), and the walk is
    retraced.
    """
    if q1 == q2:
        raise ValidationError("two-qubit gate needs distinct qubits")
    if q1 < q2:
        swaps_in = tuple(range(q1, q2 - 1))
        return RoutingPlan(swaps_in=swaps_in, gate_site=q2 - 1,
                           permute=False, swaps_out=swaps_in[::-1])
    swaps_in = tuple(range(q1 - 1, q2, -1))
    return RoutingPlan(swaps_in=swaps_in, gate_site=q2,
                       permute=True, swaps_out=swaps_in[::-1])
