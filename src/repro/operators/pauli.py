"""Pauli-string algebra in symplectic representation.

A Pauli string is stored as a pair of bitmasks ``(x, z)``: qubit ``j`` carries
X if bit ``j`` of ``x`` is set, Z if bit ``j`` of ``z`` is set, Y if both
(with the canonical phase convention Y = i X Z).  The product of two strings
is then two XORs plus a phase determined by popcounts - no per-qubit loops.

:class:`QubitOperator` is a complex linear combination of Pauli strings; this
is the form of the electronic Hamiltonian the VQE evaluates term by term
(Eq. 2 of the paper), with each term measured by its own circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.common.bits import popcount as _popcount
from repro.common.errors import ValidationError

_PAULI_CHARS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_CHAR_FROM_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

#: the one table of 2x2 Pauli matrices (the simulators import it)
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli string (no coefficient) in symplectic form."""

    x: int
    z: int

    @classmethod
    def from_label(cls, label: str) -> "PauliTerm":
        """Parse e.g. ``"XIZY"`` - leftmost char acts on qubit 0."""
        x = z = 0
        for j, ch in enumerate(label.upper()):
            if ch not in _PAULI_CHARS:
                raise ValidationError(f"bad Pauli character {ch!r} in {label!r}")
            bx, bz = _PAULI_CHARS[ch]
            x |= bx << j
            z |= bz << j
        return cls(x, z)

    @classmethod
    def from_ops(cls, ops: Iterable[tuple[int, str]]) -> "PauliTerm":
        """Build from sparse ``(qubit, 'X'|'Y'|'Z')`` pairs."""
        x = z = 0
        for q, ch in ops:
            if q < 0:
                raise ValidationError(f"negative qubit index {q}")
            bx, bz = _PAULI_CHARS[ch.upper()]
            if (x >> q) & 1 or (z >> q) & 1:
                raise ValidationError(f"duplicate operator on qubit {q}")
            x |= bx << q
            z |= bz << q
        return cls(x, z)

    def label(self, n_qubits: int) -> str:
        """Dense label over ``n_qubits`` qubits, qubit 0 first."""
        return "".join(
            _CHAR_FROM_BITS[((self.x >> j) & 1, (self.z >> j) & 1)]
            for j in range(n_qubits)
        )

    def ops(self) -> list[tuple[int, str]]:
        """Sparse ``(qubit, char)`` list of the non-identity factors."""
        out = []
        mask = self.x | self.z
        j = 0
        m = mask
        while m:
            if m & 1:
                out.append((j, _CHAR_FROM_BITS[((self.x >> j) & 1,
                                                (self.z >> j) & 1)]))
            m >>= 1
            j += 1
        return out

    @property
    def support(self) -> int:
        """Bitmask of qubits acted on non-trivially."""
        return self.x | self.z

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return _popcount(self.x | self.z)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def commutes_with(self, other: "PauliTerm") -> bool:
        """True iff the two strings commute (symplectic inner product even)."""
        return (_popcount(self.x & other.z) - _popcount(self.z & other.x)) % 2 == 0

    def multiply(self, other: "PauliTerm") -> tuple[complex, "PauliTerm"]:
        """Product ``self * other`` -> (phase, term).

        With the canonical convention Y = iXZ the phase exponent is
        c1 + c2 - c12 + 2*popcount(z1 & x2) (mod 4) where c = popcount(x&z).
        """
        x12 = self.x ^ other.x
        z12 = self.z ^ other.z
        e = (_popcount(self.x & self.z) + _popcount(other.x & other.z)
             - _popcount(x12 & z12) + 2 * _popcount(self.z & other.x)) % 4
        return (1j ** e, PauliTerm(x12, z12))

    def matrix(self, n_qubits: int) -> np.ndarray:
        """Dense matrix over ``n_qubits`` qubits (qubit 0 = most significant
        factor in the Kronecker chain, matching the statevector simulator)."""
        out = np.array([[1.0 + 0j]])
        for j in range(n_qubits):
            ch = _CHAR_FROM_BITS[((self.x >> j) & 1, (self.z >> j) & 1)]
            out = np.kron(out, PAULI_MATRICES[ch])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = self.ops()
        if not ops:
            return "I"
        return " ".join(f"{c}{q}" for q, c in ops)


def pauli_string(spec: str | Iterable[tuple[int, str]]) -> PauliTerm:
    """Convenience constructor: dense label or sparse op list."""
    if isinstance(spec, str):
        return PauliTerm.from_label(spec)
    return PauliTerm.from_ops(spec)


class QubitOperator:
    """Complex linear combination of Pauli strings.

    Supports +, -, *, scalar multiplication, hermitian conjugation and dense
    matrix embedding.  Terms with |coefficient| below ``tolerance`` are
    dropped during simplification.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PauliTerm, complex] | None = None):
        self.terms: dict[PauliTerm, complex] = dict(terms) if terms else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "QubitOperator":
        return cls({PauliTerm(0, 0): coeff})

    @classmethod
    def zero(cls) -> "QubitOperator":
        return cls({})

    @classmethod
    def from_term(cls, term: PauliTerm | str, coeff: complex = 1.0) -> "QubitOperator":
        if isinstance(term, str):
            term = PauliTerm.from_label(term)
        return cls({term: coeff})

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "QubitOperator | complex") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            other = QubitOperator.identity(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0.0) + c
        return QubitOperator(out)

    __radd__ = __add__

    def __sub__(self, other: "QubitOperator | complex") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            other = QubitOperator.identity(other)
        return self + (other * -1.0)

    def __rsub__(self, other: complex) -> "QubitOperator":
        return QubitOperator.identity(other) - self

    def __mul__(self, other: "QubitOperator | complex") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            return QubitOperator({t: c * other for t, c in self.terms.items()})
        out: dict[PauliTerm, complex] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                phase, t12 = t1.multiply(t2)
                out[t12] = out.get(t12, 0.0) + phase * c1 * c2
        return QubitOperator(out)

    def __rmul__(self, other: complex) -> "QubitOperator":
        return self * other

    def __neg__(self) -> "QubitOperator":
        return self * -1.0

    def dagger(self) -> "QubitOperator":
        """Hermitian conjugate (Pauli strings are hermitian: conj coeffs)."""
        return QubitOperator({t: c.conjugate() if isinstance(c, complex) else c
                              for t, c in self.terms.items()})

    def simplify(self, tolerance: float = 1e-12) -> "QubitOperator":
        """Drop negligible terms (returns a new operator)."""
        return QubitOperator({t: c for t, c in self.terms.items()
                              if abs(c) > tolerance})

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[PauliTerm, complex]]:
        return iter(self.terms.items())

    def n_qubits(self) -> int:
        """Smallest register size containing every term's support."""
        n = 0
        for t in self.terms:
            if t.support:
                n = max(n, t.support.bit_length())
        return n

    def constant(self) -> complex:
        """Coefficient of the identity term."""
        return self.terms.get(PauliTerm(0, 0), 0.0)

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        return all(abs(c.imag) < tolerance for c in self.terms.values())

    def norm(self) -> float:
        """Sum of absolute coefficients (induced 1-norm)."""
        return float(sum(abs(c) for c in self.terms.values()))

    def matrix(self, n_qubits: int | None = None) -> np.ndarray:
        """Dense matrix (test-sized registers only)."""
        n = n_qubits if n_qubits is not None else self.n_qubits()
        if n > 14:
            raise ValidationError(f"refusing dense matrix for {n} qubits")
        dim = 2 ** n
        out = np.zeros((dim, dim), dtype=complex)
        for t, c in self.terms.items():
            out += c * t.matrix(n)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.terms:
            return "0"
        parts = []
        for t, c in list(self.terms.items())[:8]:
            parts.append(f"({c:+.4g}) {t!r}")
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return " + ".join(parts) + more
