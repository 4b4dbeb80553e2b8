"""Circuit execution on the MPS state (the paper's MPS-VQE simulator core).

Two operating modes reproduce the Fig. 8 software comparison:

* ``optimized`` - the paper's pipeline: every ``PR`` Pauli rotation is
  applied whole (:meth:`repro.simulators.mps.MPS.apply_pauli_rotation`: one
  SVD per bond of its span, no swaps), single-qubit gates are absorbed into
  two-qubit gates by the fusion pass, contractions run through the fused
  permute+GEMM kernels, and the Hastings update avoids dividing by Schmidt
  values;
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
from repro.simulators.mps_measure import MEASUREMENT_MODES, MPSMeasurementEngine


def apply_gate(state: MPS, gate) -> tuple[int, int]:
    """Apply one bound gate to an MPS; returns the site span it touched."""
    if gate.name == "PR":
        state.apply_pauli_rotation(zip(gate.qubits, gate.pauli), gate.angle)
    elif gate.n_qubits == 1:
        state.apply_one_qubit(gate.matrix(), gate.qubits[0])
    else:
        state.apply_two_qubit(gate.matrix(), *gate.qubits)
    return min(gate.qubits), max(gate.qubits)


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
    measurement:
        Observable-evaluation strategy: "auto" (cost-model pick between the
        shared-environment sweep and the compressed-MPO contraction),
        "sweep", "mpo", or "per_term" (the independent-contraction oracle).
    cutoff, max_truncation_error:
        Forwarded to :class:`repro.simulators.mps.MPS`.
    """

    #: the state lives in tensor-train form; expectations go through the
    #: transfer-matrix path rather than the dense Pauli kernels
    natively_dense = False

    def __init__(self, n_qubits: int, *, max_bond_dimension: int | None = None,
                 mode: str = "optimized", measurement: str = "auto",
                 cutoff: float = 1e-12,
                 max_truncation_error: float | None = None):
        if mode not in ("optimized", "naive"):
            raise ValidationError(f"unknown MPS simulator mode {mode!r}")
        if measurement not in MEASUREMENT_MODES:
            raise ValidationError(
                f"unknown measurement mode {measurement!r}; "
                f"expected one of {MEASUREMENT_MODES}"
            )
        self.n_qubits = n_qubits
        self.mode = mode
        self.measurement = measurement
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
        clone = MPSSimulator(self.n_qubits, mode=self.mode,
                             measurement=self.measurement)
        clone._mps_kwargs = dict(self._mps_kwargs)
        clone.state = self.state.copy()
        return clone

    # -- execution ----------------------------------------------------------------

    def run(self, circuit: Circuit) -> "MPSSimulator":
        """Apply a bound circuit to the current state (returns self)."""
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register {self.n_qubits}"
            )
        if self.mode == "optimized":
            circuit = fuse_single_qubit_gates(circuit)
        else:
            circuit = circuit.decomposed()
        for gate in circuit.gates:
            apply_gate(self.state, gate)
        return self

    # -- measurement ------------------------------------------------------------------

    def expectation_pauli(self, term: PauliTerm) -> float:
        return self.state.expectation_pauli(term)

    def expectation(self, op: QubitOperator) -> float:
        """Batched <H> through the measurement engine.

        The route is picked by the simulator's ``measurement`` mode: shared
        environment sweep, compressed-MPO contraction, cost-model "auto", or
        the per-term oracle.  <P> is real for every Pauli string; complex
        coefficients (e.g. in non-hermitian excitation operators measured
        for RDMs) are combined before the final real part is taken.
        """
        return self._engine.expectation(self.state, op, self.n_qubits,
                                        mode=self.measurement)

    def statevector(self) -> np.ndarray:
        """Dense expansion (small registers; for cross-simulator tests)."""
        return self.state.to_statevector()

    def sample(self, n_samples: int, seed: int | None = None) -> list[str]:
        """Sequential-conditioning samples (delegates to the MPS state)."""
        return self.state.sample(n_samples, seed=seed)

    # -- diagnostics -----------------------------------------------------------------

    @property
    def truncation_stats(self):
        return self.state.stats

    def max_bond(self) -> int:
        return self.state.max_bond()

    def memory_bytes(self) -> int:
        return self.state.memory_bytes()
