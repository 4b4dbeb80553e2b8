"""Gate fusion: absorb single-qubit gates into neighbouring two-qubit gates.

The paper (Sec. III-A) notes that explicit single-qubit gate application on
the MPS "is not necessary since single-qubit gates can be absorbed into
two-qubit gates using gate fusion".  This pass walks a *bound* circuit,
accumulates pending single-qubit unitaries per qubit, and folds them into the
next two-qubit gate touching that qubit; leftovers at the end of the circuit
are folded backwards into the last two-qubit gate, or emitted as U1 gates on
qubits no two-qubit gate ever touches.

Consecutive two-qubit gates acting on the same pair are merged.
The output circuit contains only U2 (and possibly U1) gates, which is the
densest form for the simulators.

A composite gate (``EX`` excitation, ``PR`` Pauli rotation) is already one
unit for the MPS simulator and passes through unchanged.  It is a barrier
on its qubits: single-qubit gates pending there are emitted as U1 gates in
front of it, and nothing after it is folded backwards across it.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.gates import COMPOSITE, Gate
from repro.circuits.circuit import Circuit

_ID2 = np.eye(2, dtype=complex)


def _expand_single(u: np.ndarray, position: int) -> np.ndarray:
    """Embed a 1q unitary into the 4x4 space of a 2q gate (position 0 = MSB)."""
    return np.kron(u, _ID2) if position == 0 else np.kron(_ID2, u)


def fuse_single_qubit_gates(circuit: Circuit) -> Circuit:
    """Return an equivalent circuit of fused U2 (+ residual U1, + composite)
    gates."""
    if not circuit.is_bound():
        raise ValidationError("fusion requires a bound circuit")

    pending: dict[int, np.ndarray] = {}
    fused: list[Gate] = []
    # last fused-gate index touching each qubit (for backward absorption)
    last_touch: dict[int, int] = {}

    for gate in circuit.gates:
        if gate.name in COMPOSITE:
            for q in gate.qubits:
                if q in pending:
                    fused.append(Gate("U1", (q,), unitary=pending.pop(q)))
                last_touch.pop(q, None)
            fused.append(gate)
            continue
        if gate.n_qubits == 1:
            u = gate.matrix()
            q = gate.qubits[0]
            pending[q] = u @ pending.get(q, _ID2)
            continue
        # two-qubit gate: fold pending unitaries of both qubits in front
        mat = gate.matrix().copy()
        for pos, q in enumerate(gate.qubits):
            if q in pending:
                mat = mat @ _expand_single(pending.pop(q), pos)
        merge = fused and fused[-1].name == "U2"
        if merge and fused[-1].qubits == gate.qubits:
            mat = mat @ fused[-1].matrix()
            fused[-1] = Gate("U2", gate.qubits, unitary=mat)
        elif merge and fused[-1].qubits == gate.qubits[::-1]:
            # same pair, swapped order: permute previous into this ordering
            prev = _permute_two_qubit(fused[-1].matrix())
            fused[-1] = Gate("U2", gate.qubits, unitary=mat @ prev)
        else:
            fused.append(Gate("U2", gate.qubits, unitary=mat))
        for q in gate.qubits:
            last_touch[q] = len(fused) - 1

    # flush leftovers
    residual: list[Gate] = []
    for q, u in pending.items():
        idx = last_touch.get(q)
        if idx is None:
            residual.append(Gate("U1", (q,), unitary=u))
            continue
        g = fused[idx]
        pos = g.qubits.index(q)
        fused[idx] = Gate("U2", g.qubits,
                          unitary=_expand_single(u, pos) @ g.matrix())
    out = Circuit(n_qubits=circuit.n_qubits, name=circuit.name + "+fused")
    out.extend(fused + residual)
    return out


def _permute_two_qubit(mat: np.ndarray) -> np.ndarray:
    """Reverse the qubit order of a 4x4 unitary (|ab> -> |ba> relabelling)."""
    perm = [0, 2, 1, 3]
    return mat[np.ix_(perm, perm)]
