"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Attributes
    ----------
    flight:
        Optional ``repro.obs.flight/1`` dump - the last N runtime events
        from the always-on flight recorder, attached at the raise site by
        :func:`repro.obs.flight.attach_flight` so operational failures
        carry their own black box.  ``None`` when no recorder dump was
        attached.
    """

    #: repro.obs.flight/1 dump attached at the raise site (None if absent)
    flight: dict | None = None


class ValidationError(ReproError, ValueError):
    """An argument or input structure failed validation."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure (SCF, VQE, DMET, Davidson) failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual / error measure, if meaningful.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class TruncationOverflowError(ReproError, RuntimeError):
    """MPS truncation error exceeded a user-specified hard limit.

    Raised by the MPS simulator when ``max_truncation_error`` is set and the
    accumulated discarded weight crosses it, signalling the bond dimension is
    too small for the circuit being simulated.
    """

    def __init__(self, message: str, *, accumulated_error: float | None = None):
        super().__init__(message)
        self.accumulated_error = accumulated_error


class WorkerError(ReproError, RuntimeError):
    """A pool worker died before returning its task's result.

    Raised by :meth:`repro.parallel.executor.ProcessExecutor.map`, which
    discards the broken pool first: the next ``map`` on the same executor
    starts a fresh one.

    Attributes
    ----------
    executor:
        Name of the executor whose worker died.
    workers:
        Its configured worker count.
    """

    def __init__(self, message: str, *, executor: str, workers: int):
        super().__init__(message)
        self.executor = executor
        self.workers = workers
