"""Gate definitions and matrices.

Gates are lightweight records; their unitaries are built on demand.  Two-qubit
matrices use the convention that the *first* listed qubit is the most
significant factor of the 4x4 kron ordering, i.e. basis order
|q_a q_b> = |00>, |01>, |10>, |11> with q_a = gate.qubits[0].

Two gates are not elementary (:data:`COMPOSITE`); both span any number of
qubits and the MPS simulator applies both whole, in one sweep
(:meth:`repro.simulators.mps.MPS.apply_excitation`,
:meth:`repro.simulators.mps.MPS.apply_pauli_rotation`):

* ``EX``, exp(angle (T - T+)) for a ladder product T of |1><0|, |0><1|
  and Z factors - under Jordan-Wigner, one spin-orbital excitation, which
  is what every UCCSD factor is;
* ``PR``, the Pauli rotation exp(-i angle/2 P).

Every consumer that wants one- and two-qubit gates reads them through
:meth:`Gate.decompose`, which goes one level down (``EX`` -> its ``PR``
rotations, ``PR`` -> its CNOT staircase), or
:meth:`repro.circuits.circuit.Circuit.decomposed`, which goes all the way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

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
PARAMETRIC = frozenset({"RX", "RY", "RZ", "RZZ", "PR", "EX"})
#: the n-qubit gates, with the alphabet of their ``pauli`` string; every
#: other gate is elementary (one or two qubits)
COMPOSITE = {"PR": "XYZ", "EX": "+-Z"}
#: the ladder factors of an ``EX`` string: "+" = |1><0| raises an
#: occupation (a Jordan-Wigner creation operator), "-" = |0><1| lowers it
LADDER_MATRICES = {
    "+": np.array([[0, 0], [1, 0]], dtype=complex),
    "-": np.array([[0, 1], [0, 0]], dtype=complex),
    "Z": GATE_MATRICES["Z"],
}
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
        coefficient of the UCC term the gate came from.
    unitary:
        Explicit matrix for custom gates ("U1": 2x2, "U2": 4x4).
    pauli:
        The string of a :data:`COMPOSITE` gate, one character per entry of
        ``qubits`` (ascending).  "PR": X/Y/Z, e.g.
        ``Gate("PR", (0, 2, 3), pauli="XZY")`` is exp(-i angle/2 X0 Z2 Y3).
        "EX": +/-/Z with at least one ladder factor, e.g.
        ``Gate("EX", (0, 1, 2), pauli="-Z+")`` is exp(angle (T - T+)) with
        T = |0><1|_0 Z_1 |1><0|_2, the Jordan-Wigner image of a+_2 a_0.
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
        elif nm in COMPOSITE:
            need = self._check_string()
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

    def _check_string(self) -> int:
        """Validate a PR/EX gate's string; returns its qubit count."""
        nm, alphabet = self.name, COMPOSITE[self.name]
        pauli = (self.pauli or "").upper()
        if not pauli or any(ch not in alphabet for ch in pauli):
            raise ValidationError(
                f"{nm} needs a non-empty string over {'/'.join(alphabet)}, "
                f"got {self.pauli!r}"
            )
        if nm == "EX" and "+" not in pauli and "-" not in pauli:
            raise ValidationError(
                f"EX needs a ladder factor (+ or -): T = {pauli!r} is "
                f"hermitian, so T - T+ vanishes"
            )
        if list(self.qubits) != sorted(self.qubits):
            raise ValidationError(
                f"{nm} qubits must be ascending, got {self.qubits}"
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
            if self.name == "EX":
                return self._excitation_matrix()
            return _rotation_matrix(self.name, self.angle)
        raise ValidationError(f"no matrix for gate {self.name!r}")

    def _pauli_rotation_matrix(self) -> np.ndarray:
        """cos(a/2) 1 - i sin(a/2) P over the gate's own qubits (MSB first)."""
        p = reduce(np.kron, (GATE_MATRICES[ch] for ch in self.pauli))
        c, s = math.cos(self.angle / 2.0), math.sin(self.angle / 2.0)
        return c * np.eye(p.shape[0], dtype=complex) - 1j * s * p

    def _excitation_matrix(self) -> np.ndarray:
        """exp(a kappa) for kappa = T - T+ over the gate's own qubits.

        T^2 = 0 and T T+ T = T make kappa^3 = -kappa, so the series closes:
        exp(a kappa) = 1 + sin(a) kappa + (1 - cos(a)) kappa^2 with
        kappa^2 = -(T T+ + T+ T).
        """
        t = reduce(np.kron, (LADDER_MATRICES[ch] for ch in self.pauli))
        td = t.conj().T
        return (np.eye(t.shape[0], dtype=complex)
                + math.sin(self.angle) * (t - td)
                + (math.cos(self.angle) - 1.0) * (t @ td + td @ t))

    def decompose(self) -> list["Gate"]:
        """This gate one level down: ``EX`` -> ``PR`` -> elementary gates.

        An elementary gate is its own decomposition.

        ``EX`` becomes the ``PR`` rotations of :func:`ladder_pauli_terms`,
        exp(a kappa) = prod_k exp(i a c_k P_k): two for a single excitation,
        eight for a double; they commute.  The strings are derived from
        the ladder string, not stored beside it.

        ``PR``, exp(-i angle/2 P), compiles to the textbook CNOT staircase:
        single-qubit basis changes bringing every factor to Z (H for X;
        RX(pi/2) maps Y -> Z), a CNOT ladder accumulating the joint parity
        on the last support qubit, RZ(angle) there, and the mirror image
        back.  The ladder couples consecutive *support* qubits, so a string
        with identity gaps (every Jordan-Wigner double excitation) emits
        non-adjacent CNOTs that a linear-topology simulator must route with
        swaps.
        """
        if self.name == "EX":
            # PR(b) = exp(-i b/2 P), so exp(i a c P) is PR(-2 c a)
            return [
                Gate("PR", self.qubits, pauli=pauli,
                     angle=None if self.angle is None
                     else -2.0 * c * self.angle,
                     param=None if self.param is None
                     else (self.param[0], -2.0 * c * self.param[1]))
                for pauli, c in ladder_pauli_terms(self.pauli)]
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


def ladder_pauli_terms(ladder: str) -> list[tuple[str, float]]:
    """The Pauli form of kappa = T - T+ for a ladder product T.

    ``ladder`` is an ``EX`` string; returns ``(pauli string, c)`` pairs
    with kappa = sum_k i c_k P_k.  Expanding |1><0| = (X - iY)/2 and
    |0><1| = (X + iY)/2 over the k ladder sites gives every X/Y pattern
    there (Z factors stay Z); T - T+ keeps the anti-hermitian half - the
    2^(k-1) patterns with an odd number of Y - with
    c = 2^(1-k) (-1)^((#Y - 1)/2) prod_{Y sites} (+1 for "-", -1 for "+").
    The strings share one flip mask and so commute pairwise.

    They come in the order the Jordan-Wigner product of the k ladder
    operators expands in, highest qubit first: X before Y on each site,
    except that the parity string of every operator above turns a site's X
    into Y, so sites with an odd number of ladder sites above them read Y
    first.  Any order is the same gate; this one makes the decomposed
    form of a closed-shell Jordan-Wigner UCCSD circuit, gate for gate, the
    circuit that emits one rotation per string of
    ``Excitation.pauli_terms``.
    """
    sites = [j for j, ch in enumerate(ladder) if ch != "Z"]
    k = len(sites)
    orders = ["XY" if above % 2 == 0 else "YX" for above in range(k)]
    terms = []
    for pattern in itertools.product(*orders):
        # pattern[0] sits on the highest ladder site
        ys = [j for j, ch in zip(reversed(sites), pattern) if ch == "Y"]
        if len(ys) % 2 == 0:
            continue
        chars = ["Z" if ch == "Z" else "X" for ch in ladder]
        for j in ys:
            chars[j] = "Y"
        minus = (len(ys) - 1) // 2 + sum(ladder[j] == "+" for j in ys)
        terms.append(("".join(chars), (-1.0) ** minus * 2.0 ** (1 - k)))
    return terms


def controlled_pauli_gate(control: int, target: int, pauli: str) -> Gate:
    """Controlled-X/Y/Z gate used by the Hadamard-test measurement circuits."""
    pauli = pauli.upper()
    if pauli not in ("X", "Y", "Z"):
        raise ValidationError(f"no controlled gate for Pauli {pauli!r}")
    return Gate(name=f"C{pauli}", qubits=(control, target))
