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
* a gate that is a short sum of product operators over any span is applied
  whole, as that sum's MPO followed by one compression sweep that runs
  Eqs. 8-10 once per bond of the span - no CNOT staircase, no routing
  swaps: a fermionic excitation exp(a (T - T+)) is five product operators
  (:meth:`MPS.apply_excitation`), a Pauli rotation exp(-i a/2 P) two
  (:meth:`MPS.apply_pauli_rotation`);
* local expectation values close with the environments of the support's
  two end bonds - lambda^2 on the left and the right-canonical identity on
  the right (Eq. 11) while nothing has been truncated, the exact
  contractions always (:meth:`MPS.environments`);
* the cumulative discarded Schmidt weight is tracked as the truncation-error
  monitor the paper describes, with an optional hard ceiling that raises
  :class:`repro.common.errors.TruncationOverflowError`.

Bond convention: ``lambdas[b]`` lives on the bond *left of* site ``b``
(``lambdas[0]`` and ``lambdas[n]`` are the trivial edge bonds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.gates import GATE_MATRICES, LADDER_MATRICES
from repro.common.errors import TruncationOverflowError, ValidationError
from repro.common.rng import default_rng
from repro.obs import metrics as _obs
from repro.simulators.kernels import (
    KernelBackend,
    gemm,
    get_backend,
    qr_reduced,
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
_M_EXCITATION = _obs.counter(
    "mps.excitation",
    "fermionic excitations exp(a (T - T+)) applied as one bond-5 MPO update "
    "+ compression sweep (spans of two or more sites; one SVD per bond of "
    "the span)")
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

#: O.B on the physical (middle) index of a site tensor without a GEMM:
#: every one-site operator the sweeps and overlaps use has one nonzero per
#: row, so (O B)[:, i, :] = v_i B[:, j_i, :] - an index selection and a
#: scale, stored as ((j_0, j_1), (v_0, v_1)).  "+" = |1><0| and
#: "-" = |0><1| are the ladder factors of an excitation, "0" / "1" the
#: projectors |0><0| / |1><1| their products leave behind
_SITE_ACTION = {
    ch: (np.array(source), np.array(scale).reshape(1, 2, 1))
    for ch, source, scale in (
        ("I", (0, 1), (1.0, 1.0)),
        ("X", (1, 0), (1.0, 1.0)),
        ("Y", (1, 0), (-1j, 1j)),
        ("Z", (0, 1), (1.0, -1.0)),
        ("+", (0, 0), (0.0, 1.0)),
        ("-", (1, 1), (1.0, 0.0)),
        ("0", (0, 1), (1.0, 0.0)),
        ("1", (0, 1), (0.0, 1.0)),
    )}


def site_operator_times(ch: str, b: np.ndarray) -> np.ndarray:
    """O.B for a one-site operator O named in ``_SITE_ACTION``."""
    source, scale = _SITE_ACTION[ch]
    return b.take(source, axis=1) * scale


def _stacking_tables(channels: dict) -> dict:
    """Site actions of a sum of w product operators, ready to stack.

    ``channels`` names, for each character of a gate's string (None: a
    site the string skips), the one-site operator of every product
    operator in the sum.  The sweep holds the w blocks of a site as one
    (left, w x physical, right) array; per character this returns what
    builds it: the source index of every (block, physical) row in the bare
    site tensor (the first site, where every block starts from the same
    tensor), the same in a (physical, block)-ordered product with the
    carry (every later site), and the row scales (None when all are 1).
    """
    tables = {}
    for ch, ops in channels.items():
        w = len(ops)
        source = np.array([_SITE_ACTION[op][0] for op in ops])
        scale = np.array([_SITE_ACTION[op][1].ravel() for op in ops])
        tables[ch] = (
            source.ravel(),
            (source * w + np.arange(w)[:, None]).ravel(),
            None if np.all(scale == 1.0) else scale.reshape(1, 2 * w, 1))
    return tables


#: cos(a/2) 1 - i sin(a/2) P: the blocks 1, P
_ROTATION_TABLES = _stacking_tables(
    {"X": "IX", "Y": "IY", "Z": "IZ", None: "II"})
#: 1 + sin(a) (T - T+) + (cos(a) - 1) (T T+ + T+ T): the blocks 1, T, T+,
#: T T+, T+ T
_EXCITATION_TABLES = _stacking_tables(
    {"+": "I+-10", "-": "I-+01", "Z": "IZZII", None: "IIIII"})


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
                 backend: KernelBackend | None = None):
        if n_qubits < 1:
            raise ValidationError("MPS needs at least one site")
        if max_bond_dimension is not None and max_bond_dimension < 1:
            raise ValidationError("max_bond_dimension must be >= 1")
        self.n_qubits = n_qubits
        self.max_bond_dimension = max_bond_dimension
        self.cutoff = cutoff
        self.max_truncation_error = max_truncation_error
        self.backend = backend or get_backend()
        self.stats = TruncationStats()
        #: monotone state-revision counter, bumped by every mutating
        #: operation; measurement-side environment caches key on it so a
        #: stale environment can never be read against an evolved state
        self.revision = 0
        #: (revision, left, right) of the last :meth:`environments` call
        self._environments: tuple | None = None
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

        The adjoint gradient's working view of the ket
        (:func:`repro.vqe.gradients._adjoint_mps`): the new state gets its
        own site lists over the caller's arrays, so un-evolving it replaces
        list entries without touching the state the arrays came from.
        ``revision`` carries over the owner's revision counter so
        measurement-side caches key consistently.
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
        be = self.backend
        # left-to-right QR sweep -> left-canonical, accumulates norm
        for q in range(n - 1):
            dl, d, dr = self.tensors[q].shape
            mat = self.tensors[q].reshape(dl * d, dr)
            qm, rm = qr_reduced(mat, be)
            self.tensors[q] = qm.reshape(dl, d, qm.shape[1])
            nxt = self.tensors[q + 1]
            self.tensors[q + 1] = gemm(
                rm, nxt.reshape(dr, -1), be).reshape(rm.shape[0], d, -1)
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
            norm = np.sqrt(s.dot(s))
            s = s / norm
            self.lambdas[q] = s
            self.tensors[q] = vh.reshape(s.size, d, dr)
            carry = u * (s * norm)[None, :]
            prev = self.tensors[q - 1]
            self.tensors[q - 1] = gemm(
                prev.reshape(-1, dl), carry, be).reshape(-1, d, s.size)
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

    def environments(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Exact ``(left, right)`` environments of every bond, as
        ``[ket, bra]`` matrices: ``left[b]`` contracts sites < b of
        <psi|psi>, ``right[b]`` sites >= b.

        On an exactly canonical state they are diag(lambda_b^2) and the
        identity (Eq. 11).  A truncating Hastings update keeps that only
        up to the weight it discards - B_q = M V+ stops being an isometry
        once V+ drops columns, and the Schmidt bases of every other bond
        move with the truncated state - so <H> closed with lambda^2 and 1
        is an estimate inside the truncation bound, not a Rayleigh
        quotient (an optimizer finds parameters where it reads below the
        ground state).  Measurements close with these instead: two chain
        sweeps of two small GEMMs per site, kept until the state changes.
        """
        if self._environments is None \
                or self._environments[0] != self.revision:
            n = self.n_qubits
            left = [np.ones((1, 1), dtype=complex)]
            for b in self.tensors:
                dl, _, dr = b.shape
                a = left[-1].T @ b.reshape(dl, 2 * dr)
                left.append(a.reshape(dl * 2, dr).T
                            @ b.conj().reshape(dl * 2, dr))
            right = [np.ones((1, 1), dtype=complex)] * (n + 1)
            for q in range(n - 1, -1, -1):
                b = self.tensors[q]
                dl, _, dr = b.shape
                t = b.reshape(dl * 2, dr) @ right[q + 1]
                right[q] = t.reshape(dl, 2 * dr) \
                    @ b.conj().reshape(dl, 2 * dr).T
            self._environments = (self.revision, left, right)
        return self._environments[1], self._environments[2]

    def norm(self) -> float:
        """State norm (1 up to accumulated truncation loss)."""
        left, _ = self.environments()
        return float(np.sqrt(left[-1][0, 0].real))

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
        be = self.backend
        b1, b2 = self.tensors[q], self.tensors[q + 1]
        dl, dr = b1.shape[0], b2.shape[2]
        # [i_out j_out, i_in j_in], C-ordered whatever layout ``mat`` has
        gate = mat.reshape(2, 2, 2, 2).reshape(4, 4)
        # Eq. 7: M[l, i, j, r]
        theta = gemm(b1.reshape(dl * 2, -1), b2.reshape(-1, 2 * dr), be)
        m = gemm(gate, theta.reshape(dl, 4, dr).transpose(1, 0, 2)
                 .reshape(4, dl * dr), be)                  # i j, l r
        m = m.reshape(2, 2, dl, dr).transpose(2, 0, 1, 3)  # l i j r
        # Eq. 8: scale by the left bond's Schmidt values
        lam_left = self.lambdas[q]
        m_scaled = m * lam_left[:, None, None, None]
        # Eq. 9: SVD + truncation
        _, s, vh, disc = self._split_bond(
            m_scaled.reshape(dl * 2, 2 * dr), q + 1)
        new_b2 = vh.reshape(s.size, 2, dr)
        self.tensors[q + 1] = new_b2
        # Eq. 10 (Hastings): B_q = M V+, right-canonical by construction
        new_b1 = gemm(m.reshape(dl * 2, 2 * dr),
                      new_b2.conj().transpose(1, 2, 0).reshape(2 * dr, -1),
                      be).reshape(dl, 2, -1)                # l i chi
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
        self.lambdas[bond] = s / np.sqrt(s.dot(s))
        return u, s, vh, disc

    def apply_pauli_rotation(self, ops, angle: float) -> None:
        """Apply exp(-i angle/2 P) for a Pauli string P in one sweep.

        ``ops`` is the sparse ``(qubit, 'X'|'Y'|'Z')`` list of the string
        (:meth:`repro.operators.pauli.PauliTerm.ops`); the angle convention
        is the ``PR``/``RZ`` gate's.  The rotation is the sum of two product
        operators cos(a/2) 1 - i sin(a/2) P, a bond-dimension-2 MPO over the
        span of the string (:meth:`_apply_product_sum`): hi - lo SVDs and no
        swaps, against 2(k - 1) two-site updates plus the routing swaps of
        every identity gap for the CNOT staircase of a weight-k string, and
        it truncates less: the staircase's mid-ladder states carry more
        entanglement than the states before and after the rotation, the
        sweep only ever truncates the rotated state itself.  A one-site
        span is a plain single-qubit gate.
        """
        factors = self._string_factors(ops, _ROTATION_TABLES)
        c, sn = np.cos(0.5 * angle), np.sin(0.5 * angle)
        if len(factors) == 1:
            (q, ch), = factors.items()
            self.apply_one_qubit(
                c * GATE_MATRICES["I"] - 1j * sn * GATE_MATRICES[ch], q)
            return
        if _obs.REGISTRY.enabled:
            _M_ROTATION.inc()
        self._apply_product_sum(factors, _ROTATION_TABLES,
                                np.array([c, -1j * sn]))

    def apply_excitation(self, ops, angle: float) -> None:
        """Apply exp(angle (T - T+)) for a ladder product T in one sweep.

        ``ops`` is the sparse ``(qubit, '+'|'-'|'Z')`` list of T, the
        ``EX`` gate's string: "+" = |1><0|, "-" = |0><1|, at least one of
        them.  kappa = T - T+ obeys kappa^3 = -kappa, so the exponential is
        exactly 1 + sin(a) (T - T+) + (cos(a) - 1) (T T+ + T+ T): five
        product operators, a bond-dimension-5 MPO over the span of T
        (:meth:`_apply_product_sum`), whose site actions are index
        selections and signs.  That is one sweep - hi - lo SVDs - for what
        is 2 (a single) or 8 (a double) Pauli rotations over the same span.
        When T conserves particle number (as many "+" as "-": every UCC
        excitation) so does the gate, and the sweep never leaves the
        sector: a single Pauli rotation of the 2 or 8 does, so the states
        between them carry entanglement the state before and after the
        excitation does not, which a capped bond then truncates.
        """
        factors = self._string_factors(ops, _EXCITATION_TABLES)
        if "+" not in factors.values() and "-" not in factors.values():
            raise ValidationError(
                f"excitation {list(factors.items())} has no ladder factor")
        sn, c = np.sin(angle), np.cos(angle)
        if len(factors) == 1:
            (q, ch), = factors.items()
            t = LADDER_MATRICES[ch]
            self.apply_one_qubit(
                c * GATE_MATRICES["I"] + sn * (t - t.conj().T), q)
            return
        if _obs.REGISTRY.enabled:
            _M_EXCITATION.inc()
        self._apply_product_sum(factors, _EXCITATION_TABLES,
                                np.array([1.0, sn, -sn, c - 1.0, c - 1.0]))

    def _string_factors(self, ops, tables: dict) -> dict[int, str]:
        """Validated ``{qubit: character}`` of an n-qubit gate's string."""
        ops = list(ops)
        factors = dict(ops)
        if not factors or len(factors) != len(ops):
            raise ValidationError(
                f"a gate string needs distinct qubits, got {ops}")
        if min(factors) < 0 or max(factors) >= self.n_qubits:
            raise ValidationError(f"gate string {ops} out of range")
        if any(ch is None or ch not in tables for ch in factors.values()):
            raise ValidationError(f"bad gate string {ops}")
        return factors

    def _apply_product_sum(self, factors: dict[int, str], tables: dict,
                           coeffs: np.ndarray) -> None:
        """Apply sum_c coeffs[c] (x)_q O_q^c over the span of ``factors``.

        ``tables`` (:func:`_stacking_tables`) holds the one-site operators
        O^c of the w product operators for every character of ``factors``;
        sites of the span [lo, hi] that ``factors`` skips carry the
        identity.  The sum is a bond-dimension-w MPO:

        1. *stack*: every site tensor of the span becomes its w blocks
           O_q^c B_q, which multiplies the bonds lo+1..hi by w.  O_q^c B_q
           is an index selection and a scale, no GEMM; the coefficients
           are folded into site lo, where the blocks are summed;
        2. *QR sweep*, right to left over hi..lo+1: restores right-canonical
           form on those sites and pushes the non-orthogonal remainder
           into site lo;
        3. *compression sweep*, left to right: Eqs. 8-10 once per bond -
           scale by the left Schmidt values, truncated SVD at the state's D
           and cutoff, Hastings B_q = M V+, renormalize after a truncation.
        """
        lo, hi = min(factors), max(factors)
        be = self.backend
        w = coeffs.size

        def stacked(q, carry, weights=None):
            """The w blocks of site q as (left, block x physical, right),
            each row times ``weights`` if given."""
            first, later, scale = tables[factors.get(q)]
            b = self.tensors[q]
            if carry is None:
                blocks = b.take(first, axis=1)
            else:
                # one GEMM for all blocks: (left, physical, block x new right)
                blocks = gemm(b.reshape(-1, b.shape[2]), carry, be).reshape(
                    b.shape[0], 2 * w, -1).take(later, axis=1)
            if weights is not None:
                scale = weights if scale is None else scale * weights
            if scale is not None:
                blocks *= scale
            return blocks

        # steps 1 + 2, from hi down to lo + 1; ``carry`` is the (old left
        # bond, block x new left bond) remainder each QR hands left
        carry = None
        canon: dict[int, np.ndarray] = {}
        for q in range(hi, lo, -1):
            blocks = stacked(q, carry)
            dl, _, k = blocks.shape
            # rows = R^T Q^T with Q^T Q^* = 1: an LQ without conjugations
            qm, rm = qr_reduced(blocks.reshape(dl * w, 2 * k).T, be)
            canon[q] = qm.T.reshape(-1, 2, k)
            carry = rm.T.reshape(dl, -1)
        blocks = stacked(lo, carry, np.repeat(coeffs, 2).reshape(1, 2 * w, 1))
        dl, _, k = blocks.shape
        cur = blocks.reshape(dl, w, 2, k).sum(axis=1)
        # step 3: Eqs. 8-10 once per bond, left to right
        for q in range(lo, hi):
            lam_left = self.lambdas[q]
            dl, _, k = cur.shape
            _, _, vh, disc = self._split_bond(
                (cur * lam_left[:, None, None]).reshape(dl * 2, k), q + 1)
            new_b = gemm(cur.reshape(dl * 2, k), vh.conj().T,
                         be).reshape(dl, 2, -1)
            if disc > 0.0:
                new_b = _renormalized(new_b, lam_left)
            self.tensors[q] = new_b
            cur = gemm(vh, canon[q + 1].reshape(k, -1), be).reshape(
                vh.shape[0], 2, -1)
        self.tensors[hi] = cur
        self.revision += 1

    # -- measurement -----------------------------------------------------------------

    def expectation_local(self, ops: dict[int, np.ndarray]) -> complex:
        """<psi| prod_q O_q |psi> for single-site operators O_q (Eq. 11).

        The transfer contraction runs over the contiguous range spanning the
        support, between the exact environments of its end bonds
        (:meth:`environments`), and is divided by <psi|psi>; identity is
        used on gap sites.
        """
        if not ops:
            return 1.0 + 0.0j
        sites = sorted(ops)
        if sites[0] < 0 or sites[-1] >= self.n_qubits:
            raise ValidationError("operator support out of range")
        s0 = sites[0]
        left, right = self.environments()
        env = left[s0]  # [ket, bra]
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
        return complex(np.sum(env * right[sites[-1] + 1])
                       / left[-1][0, 0].real)

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

    def copy(self) -> "MPS":
        other = MPS(self.n_qubits,
                    max_bond_dimension=self.max_bond_dimension,
                    cutoff=self.cutoff,
                    max_truncation_error=self.max_truncation_error,
                    backend=self.backend)
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
