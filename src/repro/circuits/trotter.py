"""Pauli-string exponentials: the ``PR`` gate and its elementary-gate form.

exp(i phi P) for a Pauli string P is the Suzuki-Trotter building block of
the UCCSD ansatz (Sec. II-A of the paper).  :func:`pauli_rotation_gate`
builds it as one ``PR`` gate, which the MPS simulator applies whole;
:func:`pauli_rotation_circuit` is that gate's
:meth:`repro.circuits.gates.Gate.decompose` - the textbook CNOT staircase -
for every consumer that wants one- and two-qubit gates.

The staircase is *not* nearest-neighbour in general.  Its ladder couples
consecutive support qubits, and while a Jordan-Wigner single excitation has
contiguous support, every double excitation X/Y_p Z.. X/Y_q  X/Y_r Z.. X/Y_s
has an identity gap between q and r (and the Hadamard-test ancilla couples
to arbitrary qubits), so a linear-topology simulator routes those CNOTs
with swap chains: 1,088 of the 2,464 adjacent two-site updates of one
frozen-core LiH pass were such swaps.  That is why the MPS path applies
``PR`` directly and only ``decompose()`` emits staircases.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.circuits.gates import Gate
from repro.circuits.circuit import Circuit
from repro.operators.pauli import PauliTerm


def pauli_rotation_gate(term: PauliTerm, n_qubits: int, *,
                        angle: float | None = None,
                        param: tuple[int, float] | None = None
                        ) -> Gate | None:
    """exp(i phi P) as one ``PR`` gate (None for the identity string).

    Exactly one of ``angle`` (fixed phi) or ``param`` ((index, multiplier)
    with phi = multiplier * theta[index]) must be given.  The PR convention
    PR(a) = exp(-i a P / 2), shared with RZ, means the gate angle is -2 phi.
    """
    if (angle is None) == (param is None):
        raise ValidationError("give exactly one of angle/param")
    ops = term.ops()
    if not ops:
        # exp(i phi I) is a global phase; nothing to emit
        return None
    if any(q >= n_qubits for q, _ in ops):
        raise ValidationError("Pauli support outside register")
    qubits = tuple(q for q, _ in ops)
    pauli = "".join(ch for _, ch in ops)
    if param is not None:
        idx, mult = param
        return Gate("PR", qubits, param=(idx, -2.0 * mult), pauli=pauli)
    return Gate("PR", qubits, angle=-2.0 * angle, pauli=pauli)


def pauli_rotation_circuit(term: PauliTerm, n_qubits: int, *,
                           angle: float | None = None,
                           param: tuple[int, float] | None = None) -> list[Gate]:
    """Elementary gate list implementing exp(i phi P) (the CNOT staircase)."""
    gate = pauli_rotation_gate(term, n_qubits, angle=angle, param=param)
    return [] if gate is None else gate.decompose()


def pauli_exponential(term: PauliTerm, n_qubits: int, angle: float) -> Circuit:
    """Standalone circuit for exp(i angle P)."""
    c = Circuit(n_qubits=n_qubits)
    c.extend(pauli_rotation_circuit(term, n_qubits, angle=angle))
    return c
