"""Hardware-efficient / MPS-inspired ansatz circuits.

:func:`brick_ansatz` reproduces the circuit of the paper's Fig. 2(c): a
sequence of unitaries each entangling ``window`` consecutive qubits, applied
in sliding order.  A state prepared by such a sequential circuit has exact
MPS bond dimension at most 2^(window-1) - 8 for the paper's 4-qubit windows -
which is why the MPS simulator beats SV/DM on it at any qubit count.

:func:`random_brick_circuit` generates Haar-random nearest-neighbour
two-qubit-gate circuits for the kernel and simulator micro-benchmarks
(Sec. IV-B's x86-vs-SW comparison workload).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import default_rng
from repro.circuits.gates import Gate
from repro.circuits.circuit import Circuit


def _haar_unitary(dim: int, rng) -> np.ndarray:
    """One Haar-random unitary.  ``scipy.stats`` is imported here, by the
    two generators that draw, because it is a third of ``import repro``."""
    from scipy.stats import unitary_group

    return np.asarray(unitary_group.rvs(dim, random_state=rng), complex)


def brick_ansatz(n_qubits: int, window: int = 4, sweeps: int = 1) -> Circuit:
    """Parametric sliding-window entangler (Fig. 2c circuit).

    Each window [i, i+window) is entangled with a ladder of
    RY-RY-CX blocks on neighbouring pairs; windows slide by one qubit so the
    prepared state is a sequential MPS of bond dimension <= 2^(window-1).
    """
    if window < 2 or window > n_qubits:
        raise ValidationError(
            f"window={window} invalid for {n_qubits} qubits"
        )
    c = Circuit(n_qubits=n_qubits, name=f"brick_w{window}")
    m = 0
    gates: list[Gate] = []
    for _ in range(sweeps):
        for start in range(0, n_qubits - window + 1):
            for q in range(start, start + window - 1):
                gates.append(Gate("RY", (q,), param=(m, 1.0)))
                gates.append(Gate("RY", (q + 1,), param=(m + 1, 1.0)))
                gates.append(Gate("CX", (q, q + 1)))
                m += 2
    c.n_parameters = m
    c.extend(gates)
    return c


def random_brick_circuit(n_qubits: int, n_layers: int,
                         seed: int | None = None) -> Circuit:
    """Brick-pattern circuit of Haar-random two-qubit gates.

    Layer parity alternates between (0,1),(2,3),... and (1,2),(3,4),...
    pairings; all gates are nearest-neighbour, matching the Sec. IV-B
    benchmark ("2-qubit gates acting on neighbouring qubits").
    """
    if n_qubits < 2:
        raise ValidationError("need at least 2 qubits")
    rng = default_rng(seed)
    c = Circuit(n_qubits=n_qubits, name="random_brick")
    for layer in range(n_layers):
        first = layer % 2
        for q in range(first, n_qubits - 1, 2):
            c.append(Gate("U2", (q, q + 1), unitary=_haar_unitary(4, rng)))
    return c


def random_product_layer(n_qubits: int, seed: int | None = None) -> Circuit:
    """One layer of Haar-random single-qubit gates (fusion-pass tests)."""
    rng = default_rng(seed)
    c = Circuit(n_qubits=n_qubits, name="random_1q_layer")
    for q in range(n_qubits):
        c.append(Gate("U1", (q,), unitary=_haar_unitary(2, rng)))
    return c
