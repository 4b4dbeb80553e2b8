"""The VQE driver: ansatz + Hamiltonian + optimizer + simulator.

Mirrors the paper's Fig. 4 workflow for a single process: bind the
parameters, evaluate all Pauli-string expectations on the prepared state,
reduce to the energy, hand it to the optimizer, repeat.  The loop is
sequential; what runs concurrently is one level up, where
:mod:`repro.parallel.threelevel` maps whole DMET fragment solves (each
one of these loops) over workers, and the paper's per-string distribution
is replayed in closed form by :mod:`repro.parallel.perfmodel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import BACKENDS, check_backend
from repro.common.errors import CheckpointError, ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.uccsd import UCCSDAnsatz
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.operators.pauli import QubitOperator
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.optimizers import (
    DEFAULT_OPTIMIZER,
    OptimizationResult,
    check_optimizer,
    minimize_adam,
    minimize_scipy,
)
from repro.vqe.rdm import measure_rdms

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_RUNS = _obs.counter("vqe.runs", "completed VQE optimizations")


@dataclass
class VQEResult:
    """Converged VQE state."""

    energy: float
    parameters: np.ndarray
    history: list[float] = field(default_factory=list)
    n_evaluations: int = 0
    #: calls of the injected gradient source (0 when the optimizer
    #: differentiated the energy itself: those count as evaluations)
    n_gradient_evaluations: int = 0
    n_iterations: int = 0
    converged: bool = True
    optimizer: str = ""
    #: snapshot of the `repro.obs` metric registry taken as the run
    #: finished (None unless observability was enabled during the run)
    metrics: dict | None = None

    def energy_error(self, reference: float) -> float:
        """Absolute error against a reference (e.g. FCI) energy."""
        return abs(self.energy - reference)


class VQE:
    """Variational quantum eigensolver.

    Parameters
    ----------
    hamiltonian:
        Qubit Hamiltonian.
    ansatz:
        Parametric circuit, or a :class:`UCCSDAnsatz` (its circuit is built).
    simulator / max_bond_dimension:
        A name of :data:`repro.backends.BACKENDS`; the bond dimension is
        forwarded to :class:`EnergyEvaluator`.
    optimizer:
        "l-bfgs-b" (the default, :data:`DEFAULT_OPTIMIZER`) | "bfgs" |
        "slsqp" | "adam" | "cobyla" | "nelder-mead" | "powell"
        (:data:`repro.vqe.optimizers.OPTIMIZERS`); any other name is a
        validation error here, at construction.
    grad:
        Gradient source for gradient-based optimizers ("adjoint" |
        "param_shift" | "finite_diff", see :mod:`repro.vqe.gradients`).
        ``None`` resolves through :meth:`default_gradient`: the adjoint
        when the optimizer consumes gradients and the backend's
        :data:`repro.backends.BACKENDS` row has it ("statevector", "mps"),
        else no source (scipy methods take their own numerical jacobians,
        adam its central finite differences).
        ``self.grad`` records the resolved source.  "adjoint" on a
        backend without the engine, or any source with a gradient-free
        optimizer (cobyla, nelder-mead, powell), is a validation error.
    checkpoint_path / resume:
        Per-iteration optimizer snapshots (:mod:`repro.serve.checkpoint`,
        schema ``repro.ckpt/1``), one written after every iteration.
        Only adam (:data:`CHECKPOINT_OPTIMIZERS`) can checkpoint - the
        scipy bridges hide their loop state.  With ``resume=True`` an
        existing checkpoint is restored and the run continues to a
        trajectory bitwise identical to the uninterrupted one; a missing
        checkpoint file starts fresh, but a damaged one raises
        :class:`repro.common.errors.CheckpointError` (never a silent
        restart).
    """

    #: optimizers able to consume an injected gradient callable
    GRADIENT_OPTIMIZERS = ("adam", "l-bfgs-b", "bfgs", "slsqp")

    #: optimizers whose loop state can be checkpointed and resumed
    CHECKPOINT_OPTIMIZERS = ("adam",)

    def __init__(self, hamiltonian: QubitOperator,
                 ansatz: Circuit | UCCSDAnsatz, *,
                 simulator: str = "mps",
                 max_bond_dimension: int | None = None,
                 optimizer: str = DEFAULT_OPTIMIZER,
                 tolerance: float = 1e-8,
                 max_iterations: int = 2000, grad: str | None = None,
                 checkpoint_path: str | None = None, resume: bool = False):
        circuit = (ansatz.circuit() if isinstance(ansatz, UCCSDAnsatz)
                   else ansatz)
        if circuit.n_parameters == 0:
            raise ValidationError("ansatz has no variational parameters")
        self.evaluator = EnergyEvaluator(
            hamiltonian, circuit, simulator=simulator,
            max_bond_dimension=max_bond_dimension)
        self.n_parameters = circuit.n_parameters
        self.optimizer = check_optimizer(optimizer)
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.checkpoint_path = checkpoint_path
        self.resume = bool(resume)
        if checkpoint_path is not None and \
                self.optimizer not in self.CHECKPOINT_OPTIMIZERS:
            raise ValidationError(
                f"optimizer {self.optimizer!r} cannot checkpoint (scipy "
                f"bridges hide their loop state); checkpoint_path applies "
                f"to {self.CHECKPOINT_OPTIMIZERS}"
            )
        if self.resume and checkpoint_path is None:
            raise ValidationError(
                "resume=True requires checkpoint_path"
            )
        #: the resolved gradient source name (None: the optimizer's own
        #: behaviour) and its callable, built here so a source the backend
        #: or the evaluator cannot serve fails at construction.  Every run()
        #: reuses it: its ``n_evaluations`` counts across runs, like
        #: ``evaluator.evaluations``
        if grad is None:
            grad = self.default_gradient(self.optimizer, simulator)
        self.grad = grad
        self.gradient = None
        if grad is not None:
            from repro.vqe.gradients import make_gradient

            self.gradient = make_gradient(self.evaluator, grad,
                                          n_parameters=self.n_parameters)
            if self.optimizer not in self.GRADIENT_OPTIMIZERS:
                raise ValidationError(
                    f"optimizer {self.optimizer!r} is gradient-free; "
                    f"grad= applies to {self.GRADIENT_OPTIMIZERS}"
                )

    @classmethod
    def default_gradient(cls, optimizer: str, simulator: str) -> str | None:
        """The source ``grad=None`` resolves to: "adjoint" when
        ``optimizer`` consumes gradients and ``simulator`` has the
        adjoint, else None."""
        if (optimizer.lower() in cls.GRADIENT_OPTIMIZERS
                and BACKENDS[check_backend(simulator)][2]):
            return "adjoint"
        return None

    def run(self, initial_parameters: np.ndarray | None = None
            ) -> VQEResult:
        """Minimize the energy; returns the best parameters found."""
        if initial_parameters is None:
            x0 = np.zeros(self.n_parameters)
        else:
            x0 = np.asarray(initial_parameters, dtype=float)
            if x0.size != self.n_parameters:
                raise ValidationError(
                    f"need {self.n_parameters} parameters, got {x0.size}"
                )
        with _trace.span("vqe.run", optimizer=self.optimizer,
                         n_parameters=int(self.n_parameters)):
            res = self._dispatch(x0)
        _M_RUNS.inc()
        return VQEResult(
            energy=float(res.fun),
            parameters=res.x,
            history=res.history,
            n_evaluations=res.n_evaluations,
            n_gradient_evaluations=res.n_gradient_evaluations,
            n_iterations=res.n_iterations,
            converged=res.converged,
            optimizer=self.optimizer,
            metrics=_obs.REGISTRY.snapshot() if _obs.REGISTRY.enabled
            else None,
        )

    def _dispatch(self, x0: np.ndarray) -> OptimizationResult:
        f = self.evaluator
        gradient = self.gradient
        if self.optimizer != "adam":
            return minimize_scipy(f, x0, method=self.optimizer.upper(),
                                  tolerance=self.tolerance,
                                  max_iterations=self.max_iterations,
                                  gradient=gradient)
        checkpoint, resume_state = self._checkpoint_hooks()
        return minimize_adam(f, x0, max_iterations=self.max_iterations,
                             tolerance=self.tolerance,
                             gradient=gradient, checkpoint=checkpoint,
                             resume_state=resume_state)

    def _checkpoint_hooks(self):
        """(checkpoint sink, resume state) for adam."""
        if self.checkpoint_path is None:
            return None, None
        from repro.serve.checkpoint import CheckpointWriter, load_checkpoint

        resume_state = None
        if self.resume:
            try:
                doc = load_checkpoint(self.checkpoint_path,
                                      expect_optimizer=self.optimizer)
            except CheckpointError as exc:
                if exc.reason != "missing":
                    raise  # damaged checkpoints must surface, not restart
            else:
                resume_state = doc["state"]
        writer = CheckpointWriter(self.checkpoint_path,
                                  optimizer=self.optimizer)
        return writer, resume_state

    # -- post-processing --------------------------------------------------------

    def reduced_density_matrices(self, parameters: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Spin-summed (1-RDM, 2-RDM) of |psi(parameters)>.

        Requires the qubit register to hold interleaved spin orbitals (the
        molecular convention); n_spatial = n_qubits / 2.
        """
        n_qubits = self.evaluator.n_qubits
        if n_qubits % 2:
            raise ValidationError(
                "RDM measurement expects an even qubit count "
                "(interleaved spin orbitals)"
            )
        sim = self.evaluator.final_state(parameters)
        return measure_rdms(sim, n_qubits // 2)
