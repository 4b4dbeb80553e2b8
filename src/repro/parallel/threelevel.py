"""The three-level parallel driver (paper Fig. 4).

Level 1 - DMET fragments over MPI sub-groups (embarrassingly parallel);
Level 2 - Pauli-string circuits over the processes of one sub-group;
Level 3 - tensor kernels (delegated to the BLAS thread pool / kernels module).

Level 1 is executed for real here: :class:`ThreeLevelEngine` maps the DMET
fragments over the executor layer (:mod:`repro.parallel.executor`) -
serial, thread-pool or process-pool workers.  Levels 2 and 3 are replayed
in closed form by :mod:`repro.parallel.perfmodel` (Figs. 12-13), which
this module does not touch.
"""

from __future__ import annotations

from repro import obs
from repro.common.errors import ValidationError
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.parallel.executor import (
    _obs_directive,
    _worker_obs_begin,
    _worker_obs_finish,
    resolve_executor,
)

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_FRAG_TASKS = _obs.counter(
    "parallel.tasks", "tasks dispatched, labelled by level (fragments)")


class ThreeLevelDriver:
    """Entry point of the level that runs for real (DMET fragments)."""

    @staticmethod
    def run_fragments_local(problems, solver, mu: float = 0.0,
                            max_workers: int | None = None,
                            executor: str = "thread") -> list:
        """Solve real DMET fragment problems concurrently.

        Level-1 parallelism executed for real: fragments are independent
        (no communication), so any executor backend reproduces the
        embarrassing parallelism at laptop scale - ``thread`` (the default;
        BLAS releases the GIL inside the heavy tensor kernels) or
        ``process`` (true multi-core; solver and problems must pickle).

        ``solver`` is a fragment-solver object, or a solver name ("fci",
        "vqe-<backend>") resolved through the backend registry via
        :func:`repro.dmet.solvers.make_fragment_solver`.
        """
        engine = ThreeLevelEngine(executor=executor, max_workers=max_workers)
        try:
            return engine.run_fragments(problems, solver, mu)
        finally:
            engine.close()


def _solve_fragment(task: tuple) -> object:
    """Top-level (picklable) fragment-solve entry point for worker pools.

    A 3-tuple ``(solver, problem, mu)`` returns the solution directly
    (in-process executors, where the parent registry already sees every
    event).  A 4-tuple adds an obs directive (see
    :func:`repro.parallel.executor._obs_directive`) and returns
    ``(solution, obs_doc)`` so process workers ship their telemetry delta
    back with the result.
    """
    if len(task) == 4:
        solver, problem, mu, directive = task
        _worker_obs_begin(directive)
        solution = solver.solve(problem, mu)
        return solution, _worker_obs_finish(directive)
    solver, problem, mu = task
    return solver.solve(problem, mu)


class ThreeLevelEngine:
    """Real concurrent execution of the fragment level.

    :meth:`run_fragments` - level 1, one task per DMET embedded problem.

    Parameters
    ----------
    executor:
        Executor name ("serial" | "thread" | "process") or an executor
        instance.
    max_workers:
        Pool width (defaults to the CPU affinity count).
    """

    def __init__(self, *, executor: str = "serial",
                 max_workers: int | None = None):
        self.executor = resolve_executor(executor, max_workers)

    # -- level 1: fragments ---------------------------------------------------

    def run_fragments(self, problems, solver, mu: float = 0.0) -> list:
        """Solve independent embedded problems on the worker pool.

        Results come back in problem order.  With the ``process`` executor
        the solver is pickled to the workers, so per-solve mutable state
        (e.g. VQE warm-start amplitudes) does not propagate back.
        """
        if isinstance(solver, str):
            from repro.dmet.solvers import make_fragment_solver

            solver = make_fragment_solver(solver)
        if not getattr(solver, "picklable", True) \
                and not self.executor.in_process:
            raise ValidationError(
                f"solver {getattr(solver, 'name', solver)!r} is not "
                f"picklable; use the 'serial' or 'thread' executor"
            )
        tasks = [(solver, p, mu) for p in problems]
        workers = max(1, self.executor.workers)
        _flight.FLIGHT.note("dispatch", "fragments", tasks=len(tasks),
                            executor=self.executor.name)
        with _trace.span("parallel.run_fragments", n_tasks=len(tasks),
                         executor=self.executor.name):
            if self.executor.in_process:
                out = self.executor.map(_solve_fragment, tasks)
            else:
                # process workers: ship an obs directive per task (worker
                # slot = task index modulo the pool width) and merge each
                # returned telemetry delta into the parent registry
                obs_tasks = [
                    (solver, p, mu, _obs_directive(i % workers))
                    for i, (solver, p, mu) in enumerate(tasks)
                ]
                out = []
                for i, (solution, doc) in enumerate(
                        self.executor.map(_solve_fragment, obs_tasks)):
                    obs.merge_snapshot(doc, worker=i % workers)
                    out.append(solution)
        if _obs.REGISTRY.enabled:
            _M_FRAG_TASKS.inc(len(tasks), level="fragments")
        return out

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
