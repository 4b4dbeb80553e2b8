"""The simulation backends: one closed table of four names.

Q2Chemistry swaps its simulators by name behind one interface (Fan et
al., arXiv:2208.10978).  Here that is :data:`BACKENDS`: every
``simulator=`` (``EnergyEvaluator``, ``VQE``, the DMET fragment solvers,
``JobSpec``, the CLI) is one of its names, and one bound
:class:`repro.circuits.circuit.Circuit` runs on every state it builds.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.statevector import StatevectorSimulator

#: options any caller may pass to any backend; a backend whose factory does
#: not take one ignores it, so one call signature drives all four
_CROSS_BACKEND_OPTIONS = ("max_bond_dimension", "cutoff")

#: name -> (factory(n_qubits, **its options), the factory's own options,
#: whether :func:`repro.vqe.gradients.adjoint_gradient` runs on it)
BACKENDS = {
    # dense 2^n amplitudes; excitations applied whole, measured through
    # the compiled observable
    "statevector": (StatevectorSimulator, (), True),
    # the paper's simulator: bounded bond dimension, shared-environment
    # measurement
    "mps": (MPSSimulator, ("max_bond_dimension", "cutoff", "mode",
                           "max_truncation_error"), True),
    # dense 4^n density matrix (the Fig. 2c memory baseline)
    "density_matrix": (DensityMatrixSimulator, (), False),
    # The statevector under its former name, kept only because the frozen
    # end-to-end benchmark (benchmarks/e2e) runs `vqe-fast` solves and pins
    # their energies.  No adjoint on purpose: the pinned 1-iteration SLSQP
    # `vqe-fast` oracle of ring6_dmet_mps would move with an adjoint
    # jacobian.  The benchmark change that retires the name retires this.
    "fast": (StatevectorSimulator, (), False),
}


def available_backends() -> list[str]:
    """The backend names, sorted."""
    return sorted(BACKENDS)


def check_backend(name: str, prefix: str = "") -> str:
    """The backend ``name`` picks: ``prefix`` then a name of
    :data:`BACKENDS`, exactly (``check_backend("vqe-mps", "vqe-")`` is
    ``"mps"``).  Anything else is a ``ValidationError`` listing the names
    that would do."""
    if (isinstance(name, str) and name.startswith(prefix)
            and name[len(prefix):] in BACKENDS):
        return name[len(prefix):]
    known = ", ".join(prefix + b for b in available_backends())
    raise ValidationError(f"unknown backend {name!r}; known: {known}")


def resolve_backend(name: str, n_qubits: int, **opts):
    """A fresh ``name`` state on ``n_qubits`` qubits.

    The cross-backend options are always accepted and reach only a factory
    that takes them; any other option must be one of the backend's own,
    so a misspelt option is an error, never a backend built without it.
    """
    factory, options, _ = BACKENDS[check_backend(name)]
    accepted = set(options) | set(_CROSS_BACKEND_OPTIONS)
    unknown = sorted(set(opts) - accepted)
    if unknown:
        raise ValidationError(
            f"backend {name!r} takes no option "
            f"{', '.join(map(repr, unknown))}; its options: "
            f"{', '.join(sorted(accepted))}")
    return factory(n_qubits, **{k: v for k, v in opts.items()
                                if k in options})


__all__ = [
    "BACKENDS",
    "available_backends",
    "check_backend",
    "resolve_backend",
]
