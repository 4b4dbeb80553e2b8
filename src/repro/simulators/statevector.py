"""Dense state-vector simulator (the qiskit-SV baseline of Figs. 2c and 8).

Stores the full 2^n amplitude vector; gate application reshapes the state
into a rank-n tensor and contracts the gate on the target axes.  Memory is
the paper's point: 16 bytes * 2^n means ~45 qubits saturate a supercomputer,
which is why the MPS simulator exists.

Qubit 0 is the most significant index bit (matching
:meth:`repro.operators.pauli.PauliTerm.matrix`).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.operators.pauli import PAULI_MATRICES, PauliTerm, QubitOperator
from repro.simulators.pauli_kernels import (
    MAX_COMPILED_QUBITS,
    compile_observable,
    dense_term_expectations,
)


class StatevectorSimulator:
    """Exact dense simulation of bound circuits.

    Parameters
    ----------
    n_qubits:
        Register width (memory check refuses > ``max_qubits``).
    max_qubits:
        Hard safety limit on the dense representation.
    """

    #: dense amplitude access is native, so batched Pauli kernels apply
    natively_dense = True

    def __init__(self, n_qubits: int, *, max_qubits: int = 26):
        if n_qubits < 1:
            raise ValidationError("need at least one qubit")
        if n_qubits > max_qubits:
            raise ValidationError(
                f"{n_qubits} qubits need {16 * 2 ** n_qubits / 1e9:.1f} GB; "
                f"raise max_qubits to allow"
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
        clone = StatevectorSimulator(self.n_qubits,
                                     max_qubits=max(self.n_qubits, 26))
        clone.state = self.state.copy()
        return clone

    def norm(self) -> float:
        return float(np.linalg.norm(self.state))

    # -- gates ---------------------------------------------------------------------

    def apply_gate(self, gate) -> None:
        mat = gate.matrix()
        if gate.n_qubits == 1:
            self._apply_matrix(mat, gate.qubits)
        else:
            self._apply_matrix(mat.reshape(2, 2, 2, 2), gate.qubits)

    def _apply_matrix(self, mat: np.ndarray, qubits: tuple[int, ...]) -> None:
        k = len(qubits)
        axes_in = list(range(k, 2 * k))
        moved = np.tensordot(mat, self.state, axes=(axes_in, list(qubits)))
        # tensordot puts the gate's output axes first; move them back
        self.state = np.moveaxis(moved, list(range(k)), list(qubits))

    def run(self, circuit: Circuit) -> "StatevectorSimulator":
        """Apply all gates of a bound circuit (in place; returns self)."""
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register {self.n_qubits}"
            )
        for g in circuit.decomposed().gates:
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
        if self.n_qubits > MAX_COMPILED_QUBITS:
            return self.expectation_per_term(op)
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
