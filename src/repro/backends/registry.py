"""The backend registry: one namespace for every simulation engine.

Q2Chemistry is explicitly built around swappable simulation backends behind
one interface (Fan et al., arXiv:2208.10978); this module is that seam for
the reproduction.  A *backend* is anything satisfying the :class:`Backend`
protocol — run a bound circuit, snapshot itself, measure Pauli strings and
whole operators (batched), sample bitstrings — and a :class:`BackendSpec`
describes how to build one.  Everything that used to switch on simulator
name strings (`EnergyEvaluator`, `VQE`, the DMET solvers, the CLI, the
benchmarks) now resolves through :func:`resolve_backend` /
:func:`backend_spec`, so adding a backend here (sharded, multi-process,
GPU-style, a real device...) makes it available everywhere at once:

>>> from repro.backends import register_backend, resolve_backend
>>> register_backend("my_sv", factory=my_factory, description="...")
>>> sim = resolve_backend("my_sv", n_qubits=8)

Every backend executes bound circuits: ``factory(n_qubits, **opts)``
returns a fresh simulator, and one ansatz description (a
:class:`repro.circuits.circuit.Circuit`) runs on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from repro.common.errors import ValidationError
from repro.operators.pauli import PauliTerm, QubitOperator


@runtime_checkable
class Backend(Protocol):
    """Structural interface every backend provides.

    Attributes
    ----------
    n_qubits:
        Register width.
    natively_dense:
        True when the backend exposes a flat amplitude vector cheaply, in
        which case callers may route measurements through the compiled
        Pauli kernels (:mod:`repro.simulators.pauli_kernels`).

    One optional method completes the contract (every built-in state
    holder has it, so it is left out of the structural check):
    ``term_expectations(terms) -> ndarray``, the real ``<P>`` of each
    distinct non-identity Pauli string in the order given, from one pass
    over the state.  RDM measurement (:func:`repro.vqe.rdm.measure_rdms`)
    asks for it and falls back to one ``expectation`` call per string on
    a backend without it.
    """

    n_qubits: int
    natively_dense: bool

    def run(self, circuit) -> "Backend":
        """Apply a bound circuit in place; returns self."""
        ...

    def reset(self) -> None:
        """Return to |0...0>."""
        ...

    def copy(self) -> "Backend":
        """Independent snapshot of the current state."""
        ...

    def expectation_pauli(self, term: PauliTerm) -> float:
        """<P> of a single Pauli string."""
        ...

    def expectation(self, op: QubitOperator) -> float:
        """Batched <H> of a whole weighted Pauli-string operator."""
        ...

    def sample(self, n_samples: int, seed: int | None = None) -> list[str]:
        """Computational-basis bitstring samples (qubit 0 first)."""
        ...


#: options the evaluator layer forwards to every backend
_CROSS_BACKEND_OPTIONS = ("max_bond_dimension", "cutoff")


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry describing one backend.

    ``factory(n_qubits, **opts)`` must tolerate (ignore) the standard
    cross-backend options it does not consume — `max_bond_dimension` and
    `cutoff` are always forwarded by the evaluator layer so that one call
    signature drives every backend.

    ``options`` names every other option the factory accepts;
    :meth:`create` rejects anything outside ``options`` and the two
    standard ones, so a misspelt option is an error and never a backend
    quietly built without it.

    ``gradients`` advertises the *analytic* gradient engines the VQE
    gradient layer (:mod:`repro.vqe.gradients`) can run against this
    backend - currently ``"adjoint"`` on the statevector (exact dense
    oracle) and MPS (two-state tensor-network sweep) backends.  The
    universal ``param_shift`` / ``finite_diff`` sources are not listed:
    they only need circuit execution / an energy callable.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    options: tuple[str, ...] = field(default=())
    #: analytic gradient engines available for this backend (see
    #: :mod:`repro.vqe.gradients`); empty means only the universal
    #: parameter-shift / finite-difference sources apply
    gradients: tuple[str, ...] = field(default=())

    def create(self, n_qubits: int, **opts) -> Any:
        """Instantiate the backend for ``n_qubits``."""
        accepted = set(self.options) | set(_CROSS_BACKEND_OPTIONS)
        unknown = sorted(set(opts) - accepted)
        if unknown:
            raise ValidationError(
                f"backend {self.name!r} takes no option "
                f"{', '.join(map(repr, unknown))}; "
                f"its options: {', '.join(sorted(accepted))}"
            )
        return self.factory(n_qubits, **opts)


_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(name: str, factory: Callable[..., Any], *,
                     description: str = "", options: tuple[str, ...] = (),
                     gradients: tuple[str, ...] = (),
                     overwrite: bool = False) -> BackendSpec:
    """Register a backend under ``name`` (third parties welcome).

    Parameters
    ----------
    name:
        Registry key, e.g. ``"statevector"``; resolved case-insensitively.
    factory:
        ``(n_qubits, **opts) -> Backend``.
    description:
        Documentation surfaced by the CLI (`--simulator` help) and docs.
    options:
        Names of the factory's own keyword options; with
        ``max_bond_dimension`` and ``cutoff`` (always accepted) the only
        ones :func:`resolve_backend` lets through.
    gradients:
        Analytic gradient engines the VQE gradient layer may run against
        the backend (see :class:`BackendSpec`).
    overwrite:
        Allow replacing an existing registration.
    """
    key = name.lower()
    if factory is None:
        raise ValidationError("a backend needs a factory")
    if key in _REGISTRY and not overwrite:
        raise ValidationError(f"backend {name!r} is already registered")
    spec = BackendSpec(name=key, factory=factory,
                       description=description, options=tuple(options),
                       gradients=tuple(gradients))
    _REGISTRY[key] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registration (mainly for tests of third-party plugging)."""
    _REGISTRY.pop(name.lower(), None)


def backend_spec(name: str) -> BackendSpec:
    """Look up a :class:`BackendSpec`; raises with the known names listed."""
    if not isinstance(name, str):
        raise ValidationError(f"backend name must be a string, got {name!r}")
    spec = _REGISTRY.get(name.lower())
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValidationError(
            f"unknown simulator backend {name!r}; registered: {known}"
        )
    return spec


def resolve_backend(name: str, n_qubits: int, **opts) -> Backend:
    """Instantiate a registered backend for ``n_qubits``.

    The single entry point replacing every ad-hoc
    ``if simulator name ... else ...`` construction site; standard options
    (``max_bond_dimension``, ``cutoff``) may always be passed and are
    ignored by backends that do not use them.  Any other option must be
    one the backend declares, or it is a ``ValidationError``.
    """
    return backend_spec(name).create(n_qubits, **opts)


def available_backends() -> list[str]:
    """Sorted names of registered backends."""
    return sorted(_REGISTRY)


# -- built-in registrations ---------------------------------------------------
#
# Imports happen inside the factories so that importing repro.backends stays
# cheap and free of import cycles (the vqe layer imports this module).


def _make_statevector(n_qubits: int, *, max_qubits: int = 26,
                      **_cross_backend_opts) -> Backend:
    """Dense statevector backend (batched Pauli-kernel measurements)."""
    from repro.simulators.statevector import StatevectorSimulator

    return StatevectorSimulator(n_qubits, max_qubits=max_qubits)


def _make_mps(n_qubits: int, *, max_bond_dimension: int | None = None,
              cutoff: float = 1e-12, mode: str = "optimized",
              max_truncation_error: float | None = None,
              **_cross_backend_opts) -> Backend:
    """MPS backend (the paper's simulator; batched-measurement engine)."""
    from repro.simulators.mps_circuit import MPSSimulator

    return MPSSimulator(n_qubits, max_bond_dimension=max_bond_dimension,
                        cutoff=cutoff, mode=mode,
                        max_truncation_error=max_truncation_error)


def _make_density_matrix(n_qubits: int, *, max_qubits: int = 13,
                         **_cross_backend_opts) -> Backend:
    """Density-matrix backend (the 4^n mixed-state baseline)."""
    from repro.simulators.density_matrix import DensityMatrixSimulator

    return DensityMatrixSimulator(n_qubits, max_qubits=max_qubits)


register_backend(
    "statevector", _make_statevector,
    description="dense 2^n amplitude vector; excitations and wide Pauli "
                "rotations applied whole, batched compiled-observable "
                "measurement",
    options=("max_qubits",),
    gradients=("adjoint",),
)
register_backend(
    "mps", _make_mps,
    description="matrix-product-state simulator (the paper's algorithm); "
                "bounded bond dimension, batched shared-environment "
                "measurement",
    options=("max_bond_dimension", "cutoff", "mode", "max_truncation_error"),
    gradients=("adjoint",),
)
register_backend(
    "density_matrix", _make_density_matrix,
    description="dense 4^n density matrix (the Fig. 2c memory baseline)",
    options=("max_qubits",),
)
# A second name for the statevector backend, kept only because the frozen
# end-to-end benchmark (benchmarks/e2e) runs `vqe-fast` solves and pins
# their energies.  It declares no adjoint on purpose: the pinned 1-iteration
# SLSQP `vqe-fast` oracle of ring6_dmet_mps would move with an adjoint
# jacobian.  The benchmark change that retires the name retires this.
register_backend(
    "fast", _make_statevector,
    description="the statevector backend under its former name; no "
                "adjoint gradient",
    options=("max_qubits",),
)


__all__ = [
    "Backend",
    "BackendSpec",
    "register_backend",
    "unregister_backend",
    "backend_spec",
    "resolve_backend",
    "available_backends",
]
