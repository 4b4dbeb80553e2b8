"""Circuit execution on the MPS state (the paper's MPS-VQE simulator core).

Two operating modes reproduce the Fig. 8 software comparison:

* ``optimized`` - the paper's pipeline: every ``EX`` excitation and ``PR``
  Pauli rotation is applied whole
  (:meth:`repro.simulators.mps.MPS.apply_excitation` /
  ``apply_pauli_rotation``: one SVD per bond of its span, no swaps),
  single-qubit gates are absorbed into two-qubit gates by the fusion pass,
  contractions run through the fused permute+GEMM kernels, and the
  Hastings update avoids dividing by Schmidt values;
* ``naive`` - the quimb-like reference: the circuit is decomposed into
  elementary gates and every one of them (each CNOT of a rotation's
  staircase, each single-qubit rotation) is applied individually,
  triggering one SVD per two-qubit gate and per routing swap.

Both modes produce identical states at unbounded bond dimension (the
test-suite checks against the dense statevector simulator); their cost
differs, and under truncation the naive stream discards more weight.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.fusion import fuse_single_qubit_gates
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators.mps import MPS
from repro.simulators.mps_measure import MPSMeasurementEngine


#: most bytes of replaced site tensors one :class:`ForwardTrail` retains.
#: Frozen-core LiH at D = 8 replaced 1.1 MB over 144 Pauli rotations, full
#: LiH at unbounded D 78 MB (its excitation gates replace less); past the bound the oldest entries are dropped and
#: the backward sweep un-evolves the ket over those gates instead
TRAIL_MAX_BYTES = 64 * 2**20


def apply_gate(state: MPS, gate) -> tuple[int, int]:
    """Apply one bound gate to an MPS; returns the site span it touched."""
    if gate.name == "EX":
        state.apply_excitation(zip(gate.qubits, gate.pauli), gate.angle)
    elif gate.name == "PR":
        state.apply_pauli_rotation(zip(gate.qubits, gate.pauli), gate.angle)
    elif gate.n_qubits == 1:
        state.apply_one_qubit(gate.matrix(), gate.qubits[0])
    else:
        state.apply_two_qubit(gate.matrix(), *gate.qubits)
    return min(gate.qubits), max(gate.qubits)


class ForwardTrail:
    """What a forward pass leaves behind for the adjoint backward sweep.

    ``gates`` is the applied stream.  ``saved[k]`` is what gate ``k``
    replaced - ``(lo, tensors[lo..hi], lambdas[lo+1..hi])`` over its span -
    so :meth:`rewind` turns the state after gate ``k`` back into the state
    before it without un-evolving anything.  Every MPS kernel rebinds
    ``tensors[q]`` / ``lambdas[b]`` to new arrays and never writes into the
    old ones, so an entry holds references, not copies, and each replaced
    array sits in exactly one entry: ``nbytes`` is the memory the trail
    keeps alive.  Entries are dropped oldest first (``saved[k] = None``)
    once that exceeds :data:`TRAIL_MAX_BYTES`.
    """

    def __init__(self) -> None:
        self.gates: list = []
        self.saved: list = []
        self.nbytes = 0
        self._oldest = 0   # saved[:_oldest] have been dropped

    def record(self, state: MPS, gate) -> None:
        """Note ``gate`` and keep what it is about to replace."""
        lo, hi = min(gate.qubits), max(gate.qubits)
        replaced = state.tensors[lo:hi + 1]
        self.gates.append(gate)
        self.saved.append((lo, replaced, state.lambdas[lo + 1:hi + 1]))
        self.nbytes += sum(t.nbytes for t in replaced)
        while self.nbytes > TRAIL_MAX_BYTES:
            _, dropped, _ = self.saved[self._oldest]
            self.saved[self._oldest] = None
            self._oldest += 1
            self.nbytes -= sum(t.nbytes for t in dropped)

    @staticmethod
    def rewind(state: MPS, entry) -> None:
        """Put back what the entry's gate replaced."""
        lo, tensors, lambdas = entry
        state.tensors[lo:lo + len(tensors)] = tensors
        state.lambdas[lo + 1:lo + 1 + len(lambdas)] = lambdas
        state.revision += 1


def evolve(state: MPS, gates, trail: ForwardTrail | None = None) -> None:
    """Apply bound gates in order (the one forward loop); ``trail``
    records each gate before it runs."""
    for gate in gates:
        if trail is not None:
            trail.record(state, gate)
        apply_gate(state, gate)


class MPSSimulator:
    """Run bound circuits on an MPS with bounded bond dimension.

    Parameters
    ----------
    n_qubits:
        Register width.
    max_bond_dimension:
        Truncation threshold D (None = exact).
    mode:
        "optimized" (Pauli rotations applied whole, gate fusion on) or
        "naive" (reference pipeline on the decomposed gate stream).
    cutoff, max_truncation_error:
        Forwarded to :class:`repro.simulators.mps.MPS`.
    """

    def __init__(self, n_qubits: int, *, max_bond_dimension: int | None = None,
                 mode: str = "optimized", cutoff: float = 1e-12,
                 max_truncation_error: float | None = None):
        if mode not in ("optimized", "naive"):
            raise ValidationError(f"unknown MPS simulator mode {mode!r}")
        self.n_qubits = n_qubits
        self.mode = mode
        self._engine = MPSMeasurementEngine()
        self._mps_kwargs = dict(
            max_bond_dimension=max_bond_dimension,
            cutoff=cutoff,
            max_truncation_error=max_truncation_error,
        )
        if mode == "naive":
            # generic-library kernels: unfused einsum + gesvd SVD
            from repro.simulators.kernels import KernelBackend

            self._mps_kwargs["backend"] = KernelBackend(name="plain")
        self.state = MPS(n_qubits, **self._mps_kwargs)

    # -- state management ------------------------------------------------------

    def reset(self) -> None:
        self.state = MPS(self.n_qubits, **self._mps_kwargs)

    def set_state(self, mps: MPS) -> None:
        if mps.n_qubits != self.n_qubits:
            raise ValidationError("MPS width mismatch")
        self.state = mps

    def copy(self) -> "MPSSimulator":
        """Independent snapshot (same truncation controls and mode).

        The clone gets a fresh measurement engine: environment caches are
        keyed on state identity + revision, so sharing one across snapshots
        would only ever miss.
        """
        clone = MPSSimulator(self.n_qubits, mode=self.mode)
        clone._mps_kwargs = dict(self._mps_kwargs)
        clone.state = self.state.copy()
        return clone

    # -- execution ----------------------------------------------------------------

    def run(self, circuit: Circuit,
            trail: ForwardTrail | None = None) -> "MPSSimulator":
        """Apply a bound circuit to the current state (returns self).

        ``trail`` receives the gate stream actually applied (fused or
        decomposed) and what each gate replaced.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register {self.n_qubits}"
            )
        if self.mode == "optimized":
            circuit = fuse_single_qubit_gates(circuit)
        else:
            circuit = circuit.decomposed()
        evolve(self.state, circuit.gates, trail)
        return self

    # -- measurement ------------------------------------------------------------------

    def expectation_pauli(self, term: PauliTerm) -> float:
        return self.state.expectation_pauli(term)

    def expectation(self, op: QubitOperator) -> float:
        """Batched <H>: one shared-environment sweep of the measurement
        engine.

        <P> is real for every Pauli string; complex coefficients (e.g. in
        non-hermitian excitation operators measured for RDMs) are combined
        before the final real part is taken.
        """
        return self._engine.expectation_sweep(self.state, op, self.n_qubits)

    def term_expectations(self, terms) -> np.ndarray:
        """<P> of every Pauli string from one shared-environment sweep,
        memoised per state revision like :meth:`expectation`'s."""
        return self._engine.term_expectations(self.state, terms)

    def statevector(self) -> np.ndarray:
        """Dense expansion (small registers; for cross-simulator tests)."""
        return self.state.to_statevector()

    # -- diagnostics -----------------------------------------------------------------

    @property
    def truncation_stats(self):
        return self.state.stats

    def max_bond(self) -> int:
        return self.state.max_bond()

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()
