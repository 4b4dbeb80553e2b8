"""Dense state-vector simulator (the qiskit-SV baseline of Figs. 2c and 8).

Stores the full 2^n amplitude vector.  A one- or two-qubit gate reshapes
the state into a rank-n tensor and contracts the gate on the target axes.
The two composite gates (:data:`repro.circuits.gates.COMPOSITE`) are
applied whole, never as their CNOT staircases:

* ``EX``, exp(a (T - T+)), is one rotation of each amplitude pair its
  ladder product T couples (:func:`ladder_pairs`, T|src> = s|dst>):
  psi[src] <- cos a psi[src] - s sin a psi[dst] and
  psi[dst] <- cos a psi[dst] + s sin a psi[src], one gather and one
  scatter; every other amplitude is untouched;
* ``PR`` wider than two qubits, exp(-i a/2 P), is
  cos(a/2) psi - i sin(a/2) P psi with P the signed permutation of
  :class:`repro.simulators.pauli_kernels.PauliAction`.

This is the one dense UCCSD engine: every dense evaluation, energy and
adjoint gradient runs it.  Run ``circuit.decomposed()`` to simulate gate
by gate instead, as the independent-reference tests and the Fig. 8
qiskit-SV stand-in do.  Memory is the paper's point: 16 bytes * 2^n means
~45 qubits saturate a supercomputer, which is why the MPS simulator
exists.

Qubit 0 is the most significant index bit (matching
:meth:`repro.operators.pauli.PauliTerm.matrix`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.operators.pauli import PAULI_MATRICES, PauliTerm, QubitOperator
from repro.simulators.pauli_kernels import (
    PauliAction,
    compile_observable,
    dense_term_expectations,
)

#: widest dense register (1 GiB of amplitudes at 26)
MAX_QUBITS = 26


# Both caches hold one entry per distinct gate of a circuit: an ansatz
# applies the same gates at every evaluation, and 1024 entries cover every
# UCCSD circuit a dense state is used for (H6: 135 EX gates, H8: 432).

@lru_cache(maxsize=1024)
def ladder_pairs(n_qubits: int, qubits: tuple[int, ...], ladder: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, partners, signs)`` of kappa = T - T+ for an ``EX`` string.

    T is the ladder product of ``ladder`` on ``qubits``.  It maps the
    2^(n - k) basis states src it does not annihilate (k ladder sites; at
    each, src holds the bit T acts on: 0 under "+" = |1><0|, 1 under "-")
    to dst = src with those bits flipped, times s = the parity sign of src
    on the Z sites.  ``rows`` lists every src then every dst, ``partners``
    the other state of each pair and ``signs`` -s then s, so that
    (kappa psi)[rows] = signs * psi[partners] and kappa psi is zero off
    ``rows``.  Read-only: every caller shares the arrays.
    """
    flips = lowers = zbits = 0
    for q, ch in zip(qubits, ladder):
        bit = 1 << (n_qubits - 1 - q)  # qubit 0 = most significant
        if ch == "Z":
            zbits |= bit
        else:
            flips |= bit
            if ch == "-":
                lowers |= bit
    basis = np.arange(1 << n_qubits)
    src = basis[(basis & flips) == lowers]
    dst = src ^ flips
    s = 1.0 - 2.0 * (np.bitwise_count(src & zbits) & 1)
    pairs = (np.concatenate([src, dst]), np.concatenate([dst, src]),
             np.concatenate([-s, s]))
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


@lru_cache(maxsize=1024)
def pauli_action(n_qubits: int, qubits: tuple[int, ...],
                 pauli: str) -> PauliAction:
    """The :class:`PauliAction` of the string ``pauli`` on ``qubits``."""
    return PauliAction(PauliTerm.from_ops(zip(qubits, pauli)), n_qubits)


class StatevectorSimulator:
    """Exact dense simulation of bound circuits.

    Parameters
    ----------
    n_qubits:
        Register width (refused above :data:`MAX_QUBITS`).
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValidationError("need at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise ValidationError(
                f"{n_qubits} qubits need {16 * 2 ** n_qubits / 1e9:.1f} GB; "
                f"the dense register stops at {MAX_QUBITS}"
            )
        self.n_qubits = n_qubits
        self.state = np.zeros((2,) * n_qubits, dtype=complex)
        self.state[(0,) * n_qubits] = 1.0

    # -- state management -----------------------------------------------------

    def reset(self) -> None:
        self.state.fill(0.0)
        self.state[(0,) * self.n_qubits] = 1.0

    def set_state(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=complex)
        if vec.size != 2 ** self.n_qubits:
            raise ValidationError(
                f"state size {vec.size} != 2^{self.n_qubits}"
            )
        self.state = vec.reshape((2,) * self.n_qubits).copy()

    def statevector(self) -> np.ndarray:
        """Flat copy of the amplitudes (qubit 0 = most significant bit)."""
        return self.state.reshape(-1).copy()

    def copy(self) -> "StatevectorSimulator":
        """Independent snapshot of the current state (same width)."""
        clone = StatevectorSimulator(self.n_qubits)
        clone.state = self.state.copy()
        return clone

    def norm(self) -> float:
        return float(np.linalg.norm(self.state))

    # -- gates ---------------------------------------------------------------------

    def apply_gate(self, gate) -> None:
        """Apply one bound gate: ``EX`` and a ``PR`` wider than two qubits
        whole, anything else as its matrix on the target axes."""
        if gate.name == "EX":
            self._apply_excitation(gate)
        elif gate.n_qubits > 2:  # only a PR rotation is this wide
            self._apply_pauli_rotation(gate)
        elif gate.name == "X":
            # a permutation: the reversed view along the qubit's axis, no
            # arithmetic (a contraction costs 7x more at 8 qubits)
            self.state = np.flip(self.state, gate.qubits[0])
        else:
            k = gate.n_qubits
            self._apply_matrix(gate.matrix().reshape((2,) * (2 * k)),
                               gate.qubits)

    def _apply_matrix(self, mat: np.ndarray, qubits: tuple[int, ...]) -> None:
        k = len(qubits)
        axes_in = list(range(k, 2 * k))
        moved = np.tensordot(mat, self.state, axes=(axes_in, list(qubits)))
        # tensordot puts the gate's output axes first; move them back
        self.state = np.moveaxis(moved, list(range(k)), list(qubits))

    def _apply_excitation(self, gate) -> None:
        # exp(a kappa) = cos a + sin a kappa on the pairs kappa couples
        rows, partners, signs = ladder_pairs(self.n_qubits, gate.qubits,
                                             gate.pauli)
        # a view, unless an earlier gate left the axes permuted or reversed
        psi = self.state.reshape(-1)
        psi[rows] = (math.cos(gate.angle) * psi[rows]
                     + (math.sin(gate.angle) * signs) * psi[partners])
        self.state = psi.reshape(self.state.shape)

    def _apply_pauli_rotation(self, gate) -> None:
        action = pauli_action(self.n_qubits, gate.qubits, gate.pauli)
        psi = self.state.reshape(-1)
        half = 0.5 * gate.angle
        psi = math.cos(half) * psi - 1j * math.sin(half) * action.apply(psi)
        self.state = psi.reshape(self.state.shape)

    def run(self, circuit: Circuit) -> "StatevectorSimulator":
        """Apply all gates of a bound circuit (in place; returns self)."""
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register {self.n_qubits}"
            )
        for g in circuit.gates:
            self.apply_gate(g)
        return self

    # -- measurement -------------------------------------------------------------------

    def expectation_pauli(self, term: PauliTerm) -> float:
        """<psi| P |psi> for a Pauli string (real by hermiticity)."""
        psi = self.state
        phi = psi
        for q, ch in term.ops():
            mat = PAULI_MATRICES[ch]
            moved = np.tensordot(mat, phi, axes=([1], [q]))
            phi = np.moveaxis(moved, 0, q)
        return float(np.real(np.vdot(psi, phi)))

    def expectation(self, op: QubitOperator) -> float:
        """<psi| H |psi>, batched through the compiled Pauli kernels.

        Terms sharing an X/Y flip mask are evaluated as one gather + one
        diagonal multiply (see :mod:`repro.simulators.pauli_kernels`);
        compiled observables are cached, so repeated measurement of the
        same operator pays compilation once.
        """
        compiled = compile_observable(op, self.n_qubits)
        return compiled.expectation(self.state.reshape(-1))

    def term_expectations(self, terms) -> np.ndarray:
        """<psi| P |psi> of every Pauli string, one gather per flip mask."""
        return dense_term_expectations(terms, self.n_qubits,
                                       self.state.reshape(-1))

    def expectation_per_term(self, op: QubitOperator) -> float:
        """Reference per-term contraction loop (the unbatched baseline)."""
        total = 0.0 + 0.0j
        for term, coeff in op:
            if term.is_identity():
                total += coeff
            else:
                total += coeff * self.expectation_pauli(term)
        return float(np.real(total))

    def probability_of_bit(self, qubit: int, value: int) -> float:
        """Probability of measuring ``qubit`` in ``value`` (0/1)."""
        idx = [slice(None)] * self.n_qubits
        idx[qubit] = value
        return float(np.sum(np.abs(self.state[tuple(idx)]) ** 2))

    def amplitude(self, bits: str) -> complex:
        """Amplitude of a computational basis state given as a bitstring."""
        if len(bits) != self.n_qubits:
            raise ValidationError("bitstring length mismatch")
        return complex(self.state[tuple(int(b) for b in bits)])

    def sample(self, n_samples: int, seed: int | None = None) -> list[str]:
        """Computational-basis samples from |amplitudes|^2 (qubit 0 first)."""
        if n_samples < 1:
            raise ValidationError("need at least one sample")
        from repro.common.rng import default_rng

        probs = np.abs(self.state.reshape(-1)) ** 2
        probs = probs / probs.sum()
        draws = default_rng(seed).choice(probs.size, size=n_samples, p=probs)
        return [format(int(d), f"0{self.n_qubits}b") for d in draws]
