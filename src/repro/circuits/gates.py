"""Gate definitions and matrices.

Gates are lightweight records; their unitaries are built on demand.  Two-qubit
matrices use the convention that the *first* listed qubit is the most
significant factor of the 4x4 kron ordering, i.e. basis order
|q_a q_b> = |00>, |01>, |10>, |11> with q_a = gate.qubits[0].

One gate is not elementary: ``PR``, the Pauli rotation
exp(-i angle/2 P) over any number of qubits, which is what every UCCSD
factor is.  The MPS simulator applies it whole
(:meth:`repro.simulators.mps.MPS.apply_pauli_rotation`); every consumer
that wants one- and two-qubit gates gets its CNOT staircase from
:meth:`Gate.decompose` / :meth:`repro.circuits.circuit.Circuit.decomposed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.common.errors import ValidationError

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CX": np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=complex),
    "CY": np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, -1j],
                    [0, 0, 1j, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=complex),
}

#: gates whose unitary depends on ``angle`` (and so may carry a ``param``)
PARAMETRIC = frozenset({"RX", "RY", "RZ", "RZZ", "PR"})
_CUSTOM = {"U1", "U2"}
_HALF_PI = 0.5 * math.pi


def _rotation_matrix(name: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
    if name == "RZZ":  # exp(-i angle/2 Z (x) Z)
        e = np.exp(-0.5j * angle)
        return np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
    raise ValidationError(f"unknown rotation gate {name!r}")


@dataclass(frozen=True)
class Gate:
    """One gate application.

    Attributes
    ----------
    name:
        Gate mnemonic ("H", "CX", "RZ", "U2", ...).
    qubits:
        Target qubits (control first for controlled gates).
    angle:
        Rotation angle for parametric gates, either fixed at construction or
        filled in by :meth:`repro.circuits.circuit.Circuit.bind`.
    param:
        Optional ``(parameter_index, multiplier)``: the bound angle is
        ``multiplier * theta[parameter_index]``.  The multiplier carries the
        Pauli coefficient of the UCC term the rotation came from.
    unitary:
        Explicit matrix for custom gates ("U1": 2x2, "U2": 4x4).
    pauli:
        For "PR" only: the Pauli string, one of X/Y/Z per entry of
        ``qubits`` (ascending), e.g. ``Gate("PR", (0, 2, 3), pauli="XZY")``
        is exp(-i angle/2 X0 Z2 Y3).
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    param: tuple[int, float] | None = None
    unitary: np.ndarray | None = None
    pauli: str | None = None

    def __post_init__(self) -> None:
        nm = self.name.upper()
        if nm != self.name:
            object.__setattr__(self, "name", nm)
        if nm in GATE_MATRICES:
            need = 1 if GATE_MATRICES[nm].shape[0] == 2 else 2
        elif nm == "PR":
            need = self._check_pauli()
        elif nm in PARAMETRIC:
            need = 2 if nm == "RZZ" else 1
        elif nm == "U1":
            need = 1
        elif nm == "U2":
            need = 2
        else:
            raise ValidationError(f"unknown gate {nm!r}")
        if len(self.qubits) != need:
            raise ValidationError(
                f"{nm} needs {need} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"duplicate qubits in {self.qubits}")
        if nm in _CUSTOM and self.unitary is None:
            raise ValidationError(f"{nm} requires an explicit unitary")

    def _check_pauli(self) -> int:
        """Validate a PR gate's string; returns its qubit count."""
        pauli = (self.pauli or "").upper()
        if not pauli or any(ch not in "XYZ" for ch in pauli):
            raise ValidationError(
                f"PR needs a non-empty string over X/Y/Z, got {self.pauli!r}"
            )
        if list(self.qubits) != sorted(self.qubits):
            raise ValidationError(
                f"PR qubits must be ascending, got {self.qubits}"
            )
        object.__setattr__(self, "pauli", pauli)
        return len(pauli)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def is_parametric(self) -> bool:
        return self.param is not None

    def bound(self, theta: np.ndarray) -> "Gate":
        """Resolve the angle from a parameter vector."""
        if self.param is None:
            return self
        idx, mult = self.param
        return replace(self, angle=float(mult * theta[idx]), param=None)

    def matrix(self) -> np.ndarray:
        """The gate unitary; parametric gates must be bound first."""
        if self.unitary is not None:
            return self.unitary
        if self.name in GATE_MATRICES:
            return GATE_MATRICES[self.name]
        if self.name in PARAMETRIC:
            if self.angle is None:
                raise ValidationError(
                    f"unbound parametric gate {self.name} on {self.qubits}"
                )
            if self.name == "PR":
                return self._pauli_rotation_matrix()
            return _rotation_matrix(self.name, self.angle)
        raise ValidationError(f"no matrix for gate {self.name!r}")

    def _pauli_rotation_matrix(self) -> np.ndarray:
        """cos(a/2) 1 - i sin(a/2) P over the gate's own qubits (MSB first)."""
        p = np.ones((1, 1), dtype=complex)
        for ch in self.pauli:
            p = np.kron(p, GATE_MATRICES[ch])
        c, s = math.cos(self.angle / 2.0), math.sin(self.angle / 2.0)
        return c * np.eye(p.shape[0], dtype=complex) - 1j * s * p

    def decompose(self) -> list["Gate"]:
        """Elementary (one- and two-qubit) gates equal to this gate.

        Every gate but ``PR`` is elementary already.  exp(-i angle/2 P)
        compiles to the textbook CNOT staircase: single-qubit basis changes
        bringing every factor to Z (H for X; RX(pi/2) maps Y -> Z), a CNOT
        ladder accumulating the joint parity on the last support qubit,
        RZ(angle) there, and the mirror image back.  The ladder couples
        consecutive *support* qubits, so a string with identity gaps (every
        Jordan-Wigner double excitation) emits non-adjacent CNOTs that a
        linear-topology simulator must route with swaps.
        """
        if self.name != "PR":
            return [self]
        pre: list[Gate] = []
        post: list[Gate] = []
        for q, ch in zip(self.qubits, self.pauli):
            if ch == "X":
                pre.append(Gate("H", (q,)))
                post.append(Gate("H", (q,)))
            elif ch == "Y":
                pre.append(Gate("RX", (q,), angle=_HALF_PI))
                post.append(Gate("RX", (q,), angle=-_HALF_PI))
        ladder = [Gate("CX", (a, b))
                  for a, b in zip(self.qubits[:-1], self.qubits[1:])]
        rz = Gate("RZ", (self.qubits[-1],), angle=self.angle,
                  param=self.param)
        return pre + ladder + [rz] + ladder[::-1] + post[::-1]


def controlled_pauli_gate(control: int, target: int, pauli: str) -> Gate:
    """Controlled-X/Y/Z gate used by the Hadamard-test measurement circuits."""
    pauli = pauli.upper()
    if pauli not in ("X", "Y", "Z"):
        raise ValidationError(f"no controlled gate for Pauli {pauli!r}")
    return Gate(name=f"C{pauli}", qubits=(control, target))
