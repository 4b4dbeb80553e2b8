"""Dense density-matrix simulator (the 2^{2n}-memory baseline of Fig. 2c).

Stores rho as a rank-2n tensor and applies U rho U+ gate by gate.  Exists to
reproduce the paper's three-way simulator comparison; its quadratically
worse memory wall (2^{2n} amplitudes) is the measured quantity.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.operators.pauli import PAULI_MATRICES, PauliTerm, QubitOperator
from repro.simulators.pauli_kernels import dense_term_expectations

#: widest register held as a dense 4^n density matrix (1 GiB at 13)
MAX_QUBITS = 13


class DensityMatrixSimulator:
    """Exact mixed-state simulation of bound circuits."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValidationError("need at least one qubit")
        if n_qubits > MAX_QUBITS:
            raise ValidationError(
                f"{n_qubits} qubits need {16 * 4 ** n_qubits / 1e9:.1f} GB "
                f"as a density matrix; it stops at {MAX_QUBITS}"
            )
        self.n_qubits = n_qubits
        dim = 2 ** n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        # tensor layout: first n axes = ket, last n axes = bra
        self.rho = rho.reshape((2,) * (2 * n_qubits))

    def reset(self) -> None:
        self.rho.fill(0.0)
        self.rho[(0,) * (2 * self.n_qubits)] = 1.0

    def density_matrix(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        return self.rho.reshape(dim, dim).copy()

    def copy(self) -> "DensityMatrixSimulator":
        """Independent snapshot of the current mixed state."""
        clone = DensityMatrixSimulator(self.n_qubits)
        clone.rho = self.rho.copy()
        return clone

    def purity(self) -> float:
        r = self.density_matrix()
        return float(np.real(np.trace(r @ r)))

    def apply_gate(self, gate) -> None:
        k = gate.n_qubits
        mat = gate.matrix().reshape((2,) * (2 * k))
        ket_axes = list(gate.qubits)
        bra_axes = [self.n_qubits + q for q in gate.qubits]
        # U rho
        moved = np.tensordot(mat, self.rho, axes=(list(range(k, 2 * k)),
                                                  ket_axes))
        rho = np.moveaxis(moved, list(range(k)), ket_axes)
        # ... U+ : contract conj(U) on the bra axes
        moved = np.tensordot(np.conj(mat), rho, axes=(list(range(k, 2 * k)),
                                                      bra_axes))
        self.rho = np.moveaxis(moved, list(range(k)), bra_axes)

    def run(self, circuit: Circuit) -> "DensityMatrixSimulator":
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register {self.n_qubits}"
            )
        for g in circuit.decomposed().gates:
            self.apply_gate(g)
        return self

    def expectation_pauli(self, term: PauliTerm) -> float:
        """tr(rho P)."""
        rho = self.rho
        for q, ch in term.ops():
            mat = PAULI_MATRICES[ch]
            moved = np.tensordot(mat, rho, axes=([1], [q]))
            rho = np.moveaxis(moved, 0, q)
        dim = 2 ** self.n_qubits
        return float(np.real(np.trace(rho.reshape(dim, dim))))

    def expectation(self, op: QubitOperator) -> float:
        """tr(rho H) for a weighted Pauli-string operator."""
        total = 0.0 + 0.0j
        for term, coeff in op:
            if term.is_identity():
                total += coeff
            else:
                total += coeff * self.expectation_pauli(term)
        return float(np.real(total))

    def term_expectations(self, terms) -> np.ndarray:
        """tr(rho P) of every Pauli string, one gather per flip mask."""
        dim = 2 ** self.n_qubits
        return dense_term_expectations(terms, self.n_qubits,
                                       self.rho.reshape(dim, dim))

    def sample(self, n_samples: int, seed: int | None = None) -> list[str]:
        """Computational-basis samples from the diagonal of rho."""
        if n_samples < 1:
            raise ValidationError("need at least one sample")
        from repro.common.rng import default_rng

        probs = np.real(np.diag(self.density_matrix())).clip(min=0.0)
        probs = probs / probs.sum()
        draws = default_rng(seed).choice(probs.size, size=n_samples, p=probs)
        return [format(int(d), f"0{self.n_qubits}b") for d in draws]
