"""Pluggable simulation backends behind one registry.

Public surface of the execution layer: the :class:`Backend` protocol, the
:class:`BackendSpec` descriptor and the registry functions.  The built-in
``statevector``, ``mps`` and ``density_matrix`` backends register
themselves on import (``fast`` is a second name for ``statevector``);
third parties call :func:`register_backend` and every
consumer (VQE, DMET, the CLI, the benchmarks) picks the new backend up by
name with no further changes.
"""

from repro.backends.registry import (
    Backend,
    BackendSpec,
    available_backends,
    backend_spec,
    register_backend,
    resolve_backend,
    unregister_backend,
)

__all__ = [
    "Backend",
    "BackendSpec",
    "available_backends",
    "backend_spec",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
]
