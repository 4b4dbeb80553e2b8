"""Real execution engines for the DMET fragment level.

The paper's parallel scheme (Sec. III-C, Fig. 4) has three levels; this
repo runs the first one for real and replays the other two in closed
form (:mod:`repro.parallel.perfmodel`, Figs. 12-13).  DMET fragments are
independent embedded problems, so
:meth:`repro.parallel.threelevel.ThreeLevelEngine.run_fragments` maps them
over a worker pool.  Splitting the measurement of one prepared state over
workers never paid at any size this repo reaches - EXPERIMENTS.md,
Ablation 6, holds the numbers - so there is no such path.

Executors are selected by name through :func:`resolve_executor`, one of
three: ``serial`` (in-line baseline), ``thread``
(``ThreadPoolExecutor``; BLAS releases the GIL in the heavy kernels) and
``process`` (``ProcessPoolExecutor``; true multi-core for pure-python
paths).  Process workers record their own :mod:`repro.obs` telemetry per
task and ship it home with the result (the directive functions below;
the parent folds it in with :func:`repro.obs.merge_snapshot`), so counter
totals do not depend on where a fragment ran.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, get_all_start_methods
from typing import Any, Callable, Sequence

from repro import obs
from repro.common.errors import ValidationError, WorkerError
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

# -- worker-side observability protocol ---------------------------------------


def _obs_directive(worker: int | None = None):
    """Per-task instruction telling a worker how to record telemetry.

    ``None`` when the parent registry is disabled - the worker goes quiet
    and drops any fork-inherited state - otherwise ``(worker_slot,
    trace_flag)``.  Worker slots are task indices modulo the pool width,
    never PIDs, so merged labels are reproducible run-to-run.
    """
    if not _obs.REGISTRY.enabled:
        return None
    return (worker, _trace.TRACER.enabled)


def _go_quiet() -> None:
    """Stop recording and drop every metric, span and flight event."""
    obs.disable()
    obs.reset()
    _flight.FLIGHT.reset()


def _worker_obs_begin(directive) -> None:
    """Worker-side: reset local obs state per the parent's directive.

    Fork-started workers inherit the parent's registry *values* and
    enabled flag as of pool creation; both can be stale by the time a task
    runs (the lifecycle bug this protocol fixes).  Every task therefore
    carries a directive: ``None`` means "be quiet" (disable and drop any
    inherited values), a tuple means "record fresh from zero" - the flight
    ring included, so the shipped dump holds exactly this task's events.
    """
    if directive is None:
        if _obs.REGISTRY.enabled or _trace.TRACER.enabled:
            _go_quiet()
        return
    _go_quiet()
    obs.enable(trace=directive[1])
    _flight.FLIGHT.note("task", "begin", worker=directive[0])


def _worker_obs_finish(directive):
    """Worker-side: snapshot the task's telemetry delta and go quiet.

    Returns the ``repro.obs/2`` document (``flight`` section included) to
    ship back with the task result for :func:`repro.obs.merge_snapshot`,
    or None when the directive asked for no recording.  The local state is
    dropped afterwards so pool reuse never double-ships events.
    """
    if directive is None:
        return None
    _flight.FLIGHT.note("task", "end", worker=directive[0])
    doc = obs.snapshot()
    doc["flight"] = _flight.FLIGHT.snapshot()
    _go_quiet()
    return doc


def default_worker_count() -> int:
    """Worker count when the caller does not specify one (CPU affinity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def _pool_width(max_workers: int | None) -> int:
    """``max_workers``, or the default when None; 0 is not "unset"."""
    if max_workers is None:
        return default_worker_count()
    if max_workers < 1:
        raise ValidationError(
            f"need at least one worker, got max_workers={max_workers!r}")
    return max_workers


# -- executor backends --------------------------------------------------------


class SerialExecutor:
    """In-line execution: the baseline every parallel result must match."""

    name = "serial"
    #: tasks run in the caller's address space (no pickling)
    in_process = True

    def __init__(self, max_workers: int | None = None):
        self.workers = 1

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list:
        """Apply ``fn`` to every item, in order."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """Nothing to tear down."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ThreadExecutor:
    """Thread-pool execution (the BLAS kernels release the GIL)."""

    name = "thread"
    in_process = True

    def __init__(self, max_workers: int | None = None):
        self.workers = _pool_width(max_workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list:
        """Apply ``fn`` concurrently; results return in submission order."""
        pool = self._ensure_pool()
        return [f.result() for f in [pool.submit(fn, it) for it in items]]

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ProcessExecutor:
    """Process-pool execution: true multi-core for pure-python work.

    Tasks and results cross process boundaries, so submitted functions and
    payloads must be picklable.  The pool is created lazily on first use
    and reused across calls.  A worker that dies mid-task breaks the whole
    pool: :meth:`map` discards it and raises :class:`WorkerError`, and the
    next call starts a fresh pool.
    """

    name = "process"
    in_process = False

    def __init__(self, max_workers: int | None = None):
        self.workers = _pool_width(max_workers)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # fork (where available) inherits the parent's imported modules,
            # which makes worker start-up cheap; spawn works too but pays a
            # fresh interpreter + re-import per worker
            method = "fork" if "fork" in get_all_start_methods() else None
            ctx = get_context(method)
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=ctx)
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list:
        """Apply ``fn`` in worker processes; results in submission order."""
        pool = self._ensure_pool()
        try:
            return [f.result() for f in [pool.submit(fn, it) for it in items]]
        except BrokenProcessPool as exc:
            # a broken pool fails every later submit: drop it (its workers
            # are already terminated) so the next map starts a fresh one
            self.close()
            _flight.FLIGHT.note("dispatch", "worker_died", executor=self.name,
                                workers=self.workers)
            raise _flight.attach_flight(WorkerError(
                f"a worker of the {self.name!r} executor "
                f"({self.workers} workers) died before returning its "
                f"result; the pool was discarded and the next map starts "
                f"a fresh one",
                executor=self.name, workers=self.workers)) from exc

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# -- executor lookup ----------------------------------------------------------

_EXECUTORS = {"serial": SerialExecutor, "thread": ThreadExecutor,
              "process": ProcessExecutor}


def resolve_executor(name, max_workers: int | None = None):
    """Instantiate an executor by name (or pass one through unchanged)."""
    if hasattr(name, "map") and hasattr(name, "close"):
        return name  # already an executor instance
    factory = _EXECUTORS.get(name.lower()) if isinstance(name, str) else None
    if factory is None:
        raise ValidationError(
            f"unknown executor {name!r}; known: "
            f"{', '.join(sorted(_EXECUTORS))}")
    return factory(max_workers=max_workers)


__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_worker_count",
    "resolve_executor",
]
