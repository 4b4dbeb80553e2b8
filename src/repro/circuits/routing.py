"""SWAP routing onto a linear (MPS-friendly) topology.

The staircases of Jordan-Wigner double excitations have identity gaps (see
:mod:`repro.circuits.trotter`) and the Hadamard-test measurement circuits
couple an ancilla to arbitrary qubits.  This pass rewrites any circuit so
every two-qubit gate acts on adjacent qubits, by swapping the first operand
next to the second and back; composite gates (``EX``, ``PR``) are
decomposed into their staircases first.  All simulators accept the routed circuit
unchanged, which keeps cross-simulator comparisons (Fig. 8)
apples-to-apples.
"""

from __future__ import annotations

from repro.circuits.gates import Gate
from repro.circuits.circuit import Circuit


def route_to_nearest_neighbour(circuit: Circuit) -> Circuit:
    """Equivalent circuit whose two-qubit gates are all on adjacent qubits."""
    out = Circuit(n_qubits=circuit.n_qubits,
                  n_parameters=circuit.n_parameters,
                  name=circuit.name + "+routed")
    for gate in circuit.decomposed().gates:
        if gate.n_qubits != 2:
            out.append(gate)
            continue
        a, b = gate.qubits
        if abs(a - b) == 1:
            out.append(gate)
            continue
        # move a next to b with a swap chain, apply, undo
        step = 1 if b > a else -1
        chain = []
        pos = a
        while abs(pos - b) > 1:
            chain.append((pos, pos + step))
            pos += step
        for (x, y) in chain:
            out.append(Gate("SWAP", (min(x, y), max(x, y))))
        moved = Gate(gate.name, (pos, b), angle=gate.angle,
                     param=gate.param, unitary=gate.unitary)
        out.append(moved)
        for (x, y) in reversed(chain):
            out.append(Gate("SWAP", (min(x, y), max(x, y))))
    return out
