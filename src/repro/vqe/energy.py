"""Energy evaluation strategies for VQE.

Two measurement paths, both returning <psi(theta)|H|psi(theta)>:

* ``direct`` - run the ansatz once, measure the whole Hamiltonian on the
  final state in one batched call.  On dense backends the operator is
  compiled once (terms grouped by flip mask, see
  :mod:`repro.simulators.pauli_kernels`) and reused across optimizer
  iterations; the MPS backend evaluates every term in one
  shared-environment sweep (:mod:`repro.simulators.mps_measure`).
  This is the fast path used inside optimization loops.
* ``hadamard`` - the paper-faithful path (Fig. 5): one circuit per Pauli
  string, an ancilla qubit, controlled-Pauli gates and <Z_ancilla> = Re<P>.
  Exactly mimics what a quantum computer (and the paper's simulator) does.

The test-suite asserts both paths agree to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import backend_spec, resolve_backend
from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import COMPOSITE, Gate, controlled_pauli_gate
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators.pauli_kernels import (
    MAX_COMPILED_QUBITS,
    CompiledObservable,
)

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_ENERGY_EVALS = _obs.counter(
    "vqe.energy_evaluations",
    "energy evaluations, labelled by measurement method")
_M_ANSATZ_RUNS = _obs.counter(
    "vqe.ansatz_runs", "ansatz state preparations")


def finite_parameters(theta) -> np.ndarray:
    """``theta`` as a float array, or a ``ValidationError`` naming its first
    non-finite entry.

    Called where an evaluator binds theta: a NaN or inf would otherwise
    surface as a bare LAPACK ``ValueError`` (MPS) or as a silent ``nan``
    energy (dense backends) that a gradient optimizer carries into the
    result.
    """
    theta = np.asarray(theta, dtype=float)
    finite = np.isfinite(theta)
    if not finite.all():
        from repro.obs.flight import attach_flight

        bad = int(np.argmin(finite))
        raise attach_flight(ValidationError(
            f"parameter {bad} is {theta.flat[bad]}; ansatz parameters "
            f"must be finite"))
    return theta


def hadamard_test_circuit(term: PauliTerm, n_qubits: int,
                          ancilla: int | None = None) -> Circuit:
    """Measurement gadget computing Re<P> as <Z_ancilla>.

    The returned circuit acts on ``n_qubits + 1`` qubits (ancilla defaults to
    the last), mirroring the paper's Fig. 5 layout where q4 is the H2
    Hadamard-test ancilla.
    """
    anc = ancilla if ancilla is not None else n_qubits
    width = max(n_qubits, anc + 1)
    c = Circuit(n_qubits=width, name="hadamard_test")
    c.append(Gate("H", (anc,)))
    for q, ch in term.ops():
        if q == anc:
            raise ValidationError("Pauli support overlaps the ancilla")
        c.append(controlled_pauli_gate(anc, q, ch))
    c.append(Gate("H", (anc,)))
    return c


@dataclass(frozen=True)
class PreparedState:
    """|psi(theta)> on the MPS backend, as one forward pass left it.

    ``sim`` holds the final state and is only ever measured.
    ``trail`` is the pass's :class:`repro.simulators.mps_circuit.ForwardTrail`
    and ``refs[k]`` the ``(index, multiplier)`` of ``trail.gates[k]``
    (None for a gate no parameter drives) - what the adjoint backward
    sweep unwinds.
    """

    key: bytes
    sim: object
    trail: object
    refs: list


class EnergyEvaluator:
    """Evaluates VQE energies for a Hamiltonian / parametric ansatz pair.

    Parameters
    ----------
    hamiltonian:
        Qubit Hamiltonian (weighted Pauli strings, hermitian).
    ansatz:
        Parametric circuit preparing |psi(theta)>.
    simulator:
        Name of any registered circuit backend (see
        :func:`repro.backends.available_backends`), e.g. "mps",
        "statevector" or "density_matrix".
    method:
        "direct" or "hadamard" (see module docstring).
    max_bond_dimension, cutoff:
        Cross-backend options forwarded to the backend factory (the MPS
        backend consumes them; dense backends ignore them).
    """

    def __init__(self, hamiltonian: QubitOperator, ansatz: Circuit, *,
                 simulator: str = "mps", method: str = "direct",
                 max_bond_dimension: int | None = None,
                 cutoff: float = 1e-12, shots: int | None = None,
                 seed: int | None = None):
        if not hamiltonian.is_hermitian():
            raise ValidationError("Hamiltonian must be hermitian")
        if method not in ("direct", "hadamard"):
            raise ValidationError(f"unknown method {method!r}")
        spec = backend_spec(simulator)
        if spec.kind != "circuit":
            raise ValidationError(
                f"backend {simulator!r} does not execute circuits; "
                f"construct its evaluator through repro.backends instead"
            )
        if shots is not None and (method != "hadamard" or shots < 1):
            raise ValidationError(
                "shots requires method='hadamard' and shots >= 1"
            )
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        #: the circuit every evaluation binds and runs.  The MPS backend
        #: applies composite gates (``EX``, ``PR``) whole; every other
        #: backend runs elementary gates, so the staircases are laid out
        #: once here, not on each evaluation (binding re-creates only
        #: parametric gates)
        self.program = ansatz if spec.name == "mps" else ansatz.decomposed()
        #: the MPS backend runs the fused stream, and fusion passes a
        #: composite gate through whole but absorbs other parametric
        #: gates into opaque U2 blocks: when every parametric gate is
        #: composite, the state energy() measures is one the adjoint sweep
        #: can unwind, and energy / gradient / final_state share it
        self.shares_prepared_state = spec.name == "mps" and all(
            g.name in COMPOSITE for g in self.program.gates
            if g.param is not None)
        self._prepared: PreparedState | None = None
        self.simulator = simulator
        self.method = method
        self.max_bond_dimension = max_bond_dimension
        self.cutoff = cutoff
        #: finite measurement budget per Pauli string: the exact ancilla
        #: <Z> is replaced by a binomial estimate, modelling what a real
        #: quantum computer returns (the noiseless-expectation default is
        #: what the paper's simulator computes)
        self.shots = shots
        if shots is not None:
            from repro.common.rng import default_rng

            self._rng = default_rng(seed)
        self.n_qubits = ansatz.n_qubits
        self.evaluations = 0
        self._terms = [(t, c) for t, c in hamiltonian]
        #: the Hamiltonian compiled for batched dense measurement — built
        #: lazily on the first direct evaluation against a dense backend,
        #: then reused across every optimizer iteration
        self._compiled: CompiledObservable | None = None
        if method == "hadamard":
            # ancilla lives one past the logical register
            self._gadgets = {
                t: hadamard_test_circuit(t, self.n_qubits)
                for t, _ in self._terms if not t.is_identity()
            }

    # -- simulators -----------------------------------------------------------

    def _fresh_sim(self, width: int):
        return resolve_backend(self.simulator, width,
                               max_bond_dimension=self.max_bond_dimension,
                               cutoff=self.cutoff)

    def _run_ansatz(self, theta: np.ndarray, width: int):
        bound = self.program.bind(finite_parameters(theta))
        if width != bound.n_qubits:
            wide = Circuit(n_qubits=width, gates=list(bound.gates),
                           n_parameters=0, name=bound.name)
            bound = wide
        sim = self._fresh_sim(width)
        _M_ANSATZ_RUNS.inc()
        return sim.run(bound)

    def prepare(self, theta: np.ndarray) -> tuple[PreparedState, bool]:
        """The forward pass at ``theta``, run at most once per theta.

        One slot holds the last prepared state, keyed on the bytes of
        ``theta``; returns it and whether this call had to run the pass.
        MPS backend only (``shares_prepared_state``).
        """
        theta = finite_parameters(theta)
        key = theta.tobytes()
        held = self._prepared
        if held is not None and held.key == key:
            return held, False
        from repro.simulators.mps_circuit import ForwardTrail

        sim = self._fresh_sim(self.n_qubits)
        trail = ForwardTrail()
        _M_ANSATZ_RUNS.inc()
        sim.run(self.program.bind(theta), trail=trail)
        # fusion keeps the composite gates whole and in order
        refs = (g.param for g in self.program.gates if g.name in COMPOSITE)
        held = self._prepared = PreparedState(
            key, sim, trail,
            [next(refs) if g.name in COMPOSITE else None
             for g in trail.gates])
        return held, True

    # -- public API ----------------------------------------------------------------

    def energy(self, theta: np.ndarray) -> float:
        """<H> at the given parameters (dispatches on the chosen method)."""
        self.evaluations += 1
        _M_ENERGY_EVALS.inc(method=self.method)
        with _trace.span("vqe.energy", method=self.method,
                         simulator=self.simulator):
            if self.method == "direct":
                return self._energy_direct(theta)
            return self._energy_hadamard(theta)

    __call__ = energy

    def energy_of_circuit(self, circuit: Circuit) -> float:
        """<H> after running an arbitrary *bound* circuit on a fresh backend.

        Routes through exactly the same measurement machinery as
        :meth:`energy` (compiled dense kernels, the MPS measurement
        engine), so shifted-gate evaluations of the parameter-shift
        gradient source are numerically identical to ordinary energy
        evaluations of the same state.
        """
        if circuit.n_qubits != self.n_qubits:
            raise ValidationError(
                f"circuit width {circuit.n_qubits} != register "
                f"{self.n_qubits}"
            )
        sim = self._fresh_sim(self.n_qubits)
        sim.run(circuit)
        return self._measure_state(sim)

    def gradient_source(self, source: str = "adjoint", *,
                        fd_step: float = 1e-6):
        """A configured ``gradient(theta) -> dE/dtheta`` callable.

        Thin forwarding to :func:`repro.vqe.gradients.make_gradient`
        (imported lazily: the gradients module pulls in the simulator
        stack).
        """
        from repro.vqe.gradients import make_gradient

        return make_gradient(self, source, fd_step=fd_step)

    def _energy_direct(self, theta: np.ndarray) -> float:
        if self.shares_prepared_state:
            return self._measure_state(self.prepare(theta)[0].sim)
        return self._measure_state(self._run_ansatz(theta, self.n_qubits))

    def _measure_state(self, sim) -> float:
        """Measure <H> on a prepared backend (the direct-path dispatch)."""
        if (getattr(sim, "natively_dense", False)
                and self.n_qubits <= MAX_COMPILED_QUBITS):
            # compiled once per Hamiltonian: O(#distinct masks) gathers per
            # evaluation instead of O(terms x weight) tensor contractions
            if self._compiled is None:
                self._compiled = CompiledObservable(self.hamiltonian,
                                                    self.n_qubits)
            return self._compiled.expectation(sim.statevector())
        # non-dense backends (MPS, density matrix) batch internally behind
        # the same expectation(op) interface
        return sim.expectation(self.hamiltonian)

    def _energy_hadamard(self, theta: np.ndarray) -> float:
        """One circuit per Pauli string with an ancilla Hadamard test.

        The ansatz state is prepared once and snapshotted; each measurement
        gadget runs on a copy - this is exactly the shared-ansatz execution
        model of Sec. III-D.
        """
        width = self.n_qubits + 1
        base = self._run_ansatz(theta, width)
        total = 0.0
        anc_z = PauliTerm.from_ops([(self.n_qubits, "Z")])
        for term, coeff in self._terms:
            if term.is_identity():
                total += float(np.real(coeff))
                continue
            sim = self._copy_sim(base)
            sim.run(self._gadgets[term])
            z = sim.expectation_pauli(anc_z)
            if self.shots is not None:
                p = min(1.0, max(0.0, 0.5 * (1.0 + z)))
                z = 2.0 * self._rng.binomial(self.shots, p) / self.shots - 1.0
            total += float(np.real(coeff)) * z
        return total

    def _copy_sim(self, sim):
        return sim.copy()

    def final_state(self, theta: np.ndarray):
        """Simulator holding |psi(theta)> (for RDM measurement).

        A copy of the prepared state where one is shared: the caller may
        evolve what it gets.
        """
        if self.shares_prepared_state:
            return self.prepare(theta)[0].sim.copy()
        return self._run_ansatz(theta, self.n_qubits)
