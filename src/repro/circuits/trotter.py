"""Pauli-string exponentials: the ``PR`` and ``EX`` gates.

exp(i phi P) for a Pauli string P is the Suzuki-Trotter building block of
the UCCSD ansatz (Sec. II-A of the paper).  :func:`pauli_rotation_gate`
builds it as one ``PR`` gate, which the MPS simulator applies whole;
:func:`pauli_rotation_circuit` is that gate's
:meth:`repro.circuits.gates.Gate.decompose` - the textbook CNOT staircase -
for every consumer that wants one- and two-qubit gates.
:func:`excitation_gate` recognises a commuting run of such exponentials
that is one fermionic excitation and builds it as one ``EX`` gate.

The staircase is *not* nearest-neighbour in general.  Its ladder couples
consecutive support qubits, and while a Jordan-Wigner single excitation has
contiguous support, every double excitation X/Y_p Z.. X/Y_q  X/Y_r Z.. X/Y_s
has an identity gap between q and r (and the Hadamard-test ancilla couples
to arbitrary qubits), so a linear-topology simulator routes those CNOTs
with swap chains: 1,088 of the 2,464 adjacent two-site updates of one
frozen-core LiH pass were such swaps.  That is why the MPS path applies
``PR`` (and ``EX``) directly and only ``decompose()`` emits staircases.
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


def excitation_gate(terms: list[tuple[PauliTerm, float]],
                    index: int) -> Gate | None:
    """exp(theta[index] sum_k i c_k P_k) as one ``EX`` gate, if it is one.

    ``terms`` are the ``(P_k, c_k)`` of the generator.  It is an ``EX``
    gate when sum_k i c_k P_k = t (T - T+) for a ladder product T and a
    real t, which goes into the multiplier: the strings share one flip
    mask and one Z pattern off it, and their coefficients are those of
    :func:`repro.circuits.gates.ladder_pauli_terms` times t.  Of the two
    ways to write that (T, t or T+, -t) the one with t > 0 is returned.
    Every flip-mask group of a closed-shell Jordan-Wigner UCCSD excitation
    qualifies; None comes back for a generator that does not (a
    Bravyi-Kitaev group holds two ladder products, and strings whose Z
    patterns differ off the flip mask are no single ladder product).
    """
    first = terms[0][0]
    flips, zs = first.x, first.z & ~first.x
    if not flips or any(pt.x != flips or pt.z & ~flips != zs
                        for pt, _ in terms):
        return None
    coeffs = dict(terms)
    ops = first.ops()
    # the string whose only Y sits on q carries t 2^(1-k) (+1 for "-")
    lone_y = {q: coeffs.get(PauliTerm(flips, zs | (1 << q)), 0.0)
              for q, ch in ops if ch != "Z"}
    if not all(lone_y.values()):
        return None
    qubits = tuple(q for q, _ in ops)
    ladder = "".join("Z" if ch == "Z" else "-" if lone_y[q] > 0.0 else "+"
                     for q, ch in ops)
    t = abs(lone_y[min(lone_y)]) * 2.0 ** (len(lone_y) - 1)
    gate = Gate("EX", qubits, pauli=ladder, param=(index, t))
    derived = {PauliTerm.from_ops(zip(qubits, rot.pauli)): -0.5 * rot.param[1]
               for rot in gate.decompose()}
    if derived.keys() != coeffs.keys() or any(
            abs(derived[pt] - c) > 1e-12 for pt, c in coeffs.items()):
        return None
    return gate


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
