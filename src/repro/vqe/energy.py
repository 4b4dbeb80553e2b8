"""Energy evaluation for VQE: <psi(theta)|H|psi(theta)>.

One path on every backend: :meth:`EnergyEvaluator.prepare` runs
the bound ansatz - the only place one runs - and keeps the backend holding
|psi(theta)> in a one-theta slot; the whole Hamiltonian is then measured
on that state in one batched call.  On dense backends the operator is
compiled once (terms grouped by flip mask, see
:mod:`repro.simulators.pauli_kernels`) and reused across optimizer
iterations; the MPS backend evaluates every term in one shared-environment
sweep (:mod:`repro.simulators.mps_measure`).  ``energy``, ``final_state``
and the adjoint gradient (:mod:`repro.vqe.gradients`) at one theta share
the slot's state, so an optimizer step costs one forward pass.

The paper's own measurement scheme (Fig. 5: one ancilla circuit per Pauli
string) is reproduced, beside this path, by
:mod:`repro.vqe.circuit_store`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.backends import BACKENDS, check_backend, resolve_backend
from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import COMPOSITE
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.operators.pauli import QubitOperator
from repro.simulators.mps_circuit import ForwardTrail, MPSSimulator
from repro.simulators.pauli_kernels import (
    CompiledObservable,
    observable_cache_key,
)
from repro.simulators.statevector import StatevectorSimulator

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_ENERGY_EVALS = _obs.counter(
    "vqe.energy_evaluations", "energy evaluations")
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


def _whole_rotations(circuit: Circuit) -> Circuit:
    """``circuit`` with each parametric RX/RY/RZ/RZZ written as the ``PR``
    Pauli rotation it is.

    The program every backend runs.  Composite gates (``EX``, ``PR``) stay
    whole: the MPS and statevector backends apply them as themselves and
    the density matrix decomposes them itself.  The MPS backend runs the
    fused stream, and fusion absorbs elementary single-qubit gates into
    opaque U2 blocks but hands a composite gate through whole: as a ``PR``
    the rotation reaches the simulator as itself, where the adjoint sweep
    can unwind it (a one- or two-site ``PR`` is applied as the gate it
    is).  Gates no parameter drives stay as they are and fuse.
    """
    return Circuit(
        n_qubits=circuit.n_qubits, n_parameters=circuit.n_parameters,
        name=circuit.name, gates=[
            replace(g, name="PR", qubits=tuple(sorted(g.qubits)),
                    pauli=g.name[1:])
            if g.param is not None and g.name not in COMPOSITE else g
            for g in circuit.gates])


@dataclass(frozen=True)
class PreparedState:
    """|psi(theta)> as one forward pass left it.

    ``sim`` is the backend holding the final state; it is only ever
    measured or copied.  On the MPS backend ``trail`` is the pass's
    :class:`repro.simulators.mps_circuit.ForwardTrail` and ``refs[k]`` the
    ``(index, multiplier)`` of ``trail.gates[k]`` (None for a gate no
    parameter drives) - what the adjoint backward sweep unwinds; the
    dense backends leave both None.
    """

    key: bytes
    sim: object
    trail: object = None
    refs: list | None = None


class EnergyEvaluator:
    """Evaluates VQE energies for a Hamiltonian / parametric ansatz pair.

    Parameters
    ----------
    hamiltonian:
        Qubit Hamiltonian (weighted Pauli strings, hermitian).
    ansatz:
        Parametric circuit preparing |psi(theta)>.
    simulator:
        A name of :data:`repro.backends.BACKENDS`: "mps", "statevector",
        "density_matrix" or "fast".
    max_bond_dimension, cutoff:
        Cross-backend options forwarded to the backend factory (the MPS
        backend consumes them; dense backends ignore them).
    """

    def __init__(self, hamiltonian: QubitOperator, ansatz: Circuit, *,
                 simulator: str = "mps",
                 max_bond_dimension: int | None = None,
                 cutoff: float = 1e-12):
        if not hamiltonian.is_hermitian():
            raise ValidationError("Hamiltonian must be hermitian")
        # a dense amplitude vector, measured through the compiled observable
        self._dense = BACKENDS[check_backend(simulator)][0] is \
            StatevectorSimulator
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        #: the circuit every evaluation binds and runs, every parametric
        #: gate in it a composite one (see :func:`_whole_rotations`)
        self.program = _whole_rotations(ansatz)
        self._prepared: PreparedState | None = None
        self.simulator = simulator
        self.max_bond_dimension = max_bond_dimension
        self.cutoff = cutoff
        self.n_qubits = ansatz.n_qubits
        self.evaluations = 0
        self._compiled: CompiledObservable | None = None

    # -- the one forward pass -------------------------------------------------

    def _fresh_sim(self):
        return resolve_backend(self.simulator, self.n_qubits,
                               max_bond_dimension=self.max_bond_dimension,
                               cutoff=self.cutoff)

    def prepare(self, theta: np.ndarray) -> tuple[PreparedState, bool]:
        """The forward pass at ``theta``, run at most once per theta.

        One slot holds the last prepared state, keyed on the bytes of
        ``theta``; returns it and whether this call had to run the pass.
        The held state is let go before the next one is built, so two
        never coexist.
        """
        theta = finite_parameters(theta)
        key = theta.tobytes()
        held = self._prepared
        if held is not None and held.key == key:
            return held, False
        self._prepared = None
        bound = self.program.bind(theta)
        if self._dense:
            # the compile checks its memory bound before any 2^n array
            # exists, the register included
            self.compiled()
        sim = self._fresh_sim()
        _M_ANSATZ_RUNS.inc()
        if isinstance(sim, MPSSimulator):
            trail = ForwardTrail()
            sim.run(bound, trail=trail)
            # fusion hands a composite gate through as the object bind()
            # made, and no other gate of the program carries a parameter
            ref_of = {id(b): g.param
                      for g, b in zip(self.program.gates, bound.gates)
                      if g.param is not None}
            held = PreparedState(key, sim, trail,
                                 [ref_of.get(id(g)) for g in trail.gates])
        else:
            held = PreparedState(key, sim.run(bound))
        self._prepared = held
        return held, True

    # -- public API ----------------------------------------------------------------

    def energy(self, theta: np.ndarray) -> float:
        """<H> at the given parameters."""
        self.evaluations += 1
        _M_ENERGY_EVALS.inc()
        with _trace.span("vqe.energy", simulator=self.simulator):
            return self._measure_state(self.prepare(theta)[0].sim)

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
        sim = self._fresh_sim()
        sim.run(circuit)
        return self._measure_state(sim)

    def gradient_source(self, source: str = "adjoint"):
        """A configured ``gradient(theta) -> dE/dtheta`` callable.

        Thin forwarding to :func:`repro.vqe.gradients.make_gradient`
        (imported lazily: the gradients module pulls in the simulator
        stack).
        """
        from repro.vqe.gradients import make_gradient

        return make_gradient(self, source)

    @cached_property
    def hamiltonian_key(self) -> tuple:
        """The Hamiltonian's content key in the compile store, computed
        once: the MPS energy fetches its sweep plan by it, and sorting the
        terms again on every energy cost as much as a small sweep."""
        return observable_cache_key(self.hamiltonian, self.n_qubits)

    @cached_property
    def bra_operator(self) -> tuple[QubitOperator, tuple]:
        """The Hamiltonian without its identity term, whose compiled MPO
        builds the MPS adjoint's bra H|psi> (a constant never contributes
        to a gradient), and its store key, both computed once."""
        op = QubitOperator({t: c for t, c in self.hamiltonian.terms.items()
                            if not t.is_identity()})
        return op, observable_cache_key(op, self.n_qubits)

    def compiled(self) -> CompiledObservable:
        """The Hamiltonian compiled for batched dense measurement - built
        on first use against a dense backend, then reused across every
        optimizer iteration (and by the dense adjoint for H|psi>)."""
        if self._compiled is None:
            self._compiled = CompiledObservable(self.hamiltonian,
                                                self.n_qubits)
        return self._compiled

    def _measure_state(self, sim) -> float:
        """Measure <H> on a prepared backend."""
        if self._dense:
            # O(#distinct masks) gathers per evaluation instead of
            # O(terms x weight) tensor contractions
            return self.compiled().expectation(sim.statevector())
        if isinstance(sim, MPSSimulator):
            return sim.expectation(self.hamiltonian, self.hamiltonian_key)
        return sim.expectation(self.hamiltonian)

    def final_state(self, theta: np.ndarray):
        """Simulator holding |psi(theta)> (for RDM measurement).

        A copy of the prepared state: the caller may evolve what it gets.
        """
        return self.prepare(theta)[0].sim.copy()
