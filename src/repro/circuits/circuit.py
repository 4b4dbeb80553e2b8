"""Circuit intermediate representation.

A :class:`Circuit` is an ordered gate list over a fixed register plus a
parameter count.  Binding a parameter vector produces a new circuit with all
rotation angles resolved; transformation passes (fusion, routing) and the
simulators consume bound circuits.

The memory-accounting helpers back the Fig. 9 experiment (memory-efficient
circuit storage): a VQE over M Pauli strings needs M measurement circuits
that share one ansatz prefix, and storing the prefix once instead of M times
is the paper's ~20x memory saving.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.gates import COMPOSITE, PARAMETRIC, Gate

#: Reference to an optimizer parameter: (index, multiplier).
ParamRef = tuple[int, float]


@dataclass
class Circuit:
    """An ordered sequence of gates on ``n_qubits`` qubits."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    n_parameters: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValidationError("circuit needs at least one qubit")
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, gate: Gate) -> None:
        if any(q >= self.n_qubits or q < 0 for q in gate.qubits):
            raise ValidationError(
                f"gate {gate.name} on {gate.qubits} outside register of "
                f"{self.n_qubits}"
            )
        if gate.param is not None and gate.param[0] >= self.n_parameters:
            raise ValidationError(
                f"gate references parameter {gate.param[0]} but circuit has "
                f"{self.n_parameters}"
            )

    # -- construction -------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append a gate in place (returns self for chaining)."""
        self._check_gate(gate)
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def compose(self, other: "Circuit") -> "Circuit":
        """New circuit running ``self`` then ``other`` (registers must match).

        Parameter indices of ``other`` are preserved (shared parameter
        space), so composing an ansatz with a measurement circuit keeps the
        ansatz parameters addressable.
        """
        if other.n_qubits != self.n_qubits:
            raise ValidationError(
                f"register mismatch: {self.n_qubits} vs {other.n_qubits}"
            )
        return Circuit(
            n_qubits=self.n_qubits,
            gates=list(self.gates) + list(other.gates),
            n_parameters=max(self.n_parameters, other.n_parameters),
            name=self.name,
        )

    def bind(self, theta: np.ndarray) -> "Circuit":
        """Resolve all parametric gates against a parameter vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.size < self.n_parameters:
            raise ValidationError(
                f"need {self.n_parameters} parameters, got {theta.size}"
            )
        # every gate was checked against the register when it was added
        # and binding moves only angles, so the copy is not checked again
        bound = copy.copy(self)
        bound.gates = [g.bound(theta) for g in self.gates]
        bound.n_parameters = 0
        return bound

    def decomposed(self) -> "Circuit":
        """Equivalent circuit of one- and two-qubit gates only.

        :meth:`repro.circuits.gates.Gate.decompose` is applied until no
        composite gate is left (``EX`` -> its ``PR`` rotations -> their CNOT
        staircases), bound or not - parameter references move to the
        central RZ of each staircase, so binding and decomposing commute.
        This is the form the dense simulators, the routing pass and
        gate-count reports consume; a circuit without composite gates is
        returned as is.
        """
        gates = self.gates
        while any(g.name in COMPOSITE for g in gates):
            gates = [e for g in gates for e in g.decompose()]
        if gates is self.gates:
            return self
        return Circuit(n_qubits=self.n_qubits, gates=gates,
                       n_parameters=self.n_parameters, name=self.name)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def is_bound(self) -> bool:
        return all(g.param is None and
                   (g.angle is not None or g.name not in PARAMETRIC)
                   for g in self.gates)

    def count_gates(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates:
            out[g.name] = out.get(g.name, 0) + 1
        return out

    def n_two_qubit_gates(self) -> int:
        return sum(1 for g in self.gates if g.n_qubits == 2)

    def depth(self) -> int:
        """Circuit depth (longest chain of gates per qubit timeline)."""
        level = [0] * self.n_qubits
        for g in self.gates:
            start = max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = start + 1
        return max(level) if level else 0

    def memory_bytes(self) -> int:
        """Approximate storage footprint of this circuit description.

        Counts the gate records and any explicit unitaries; used by the
        Fig. 9 memory-reduction benchmark.
        """
        total = 0
        for g in self.gates:
            total += 64 + 8 * len(g.qubits)  # record overhead
            if g.unitary is not None:
                total += g.unitary.nbytes
        return total

    def parameter_indices(self) -> set[int]:
        return {g.param[0] for g in self.gates if g.param is not None}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Circuit({self.name or 'anon'}, n_qubits={self.n_qubits}, "
                f"gates={len(self.gates)}, params={self.n_parameters})")
