"""The three-level parallel driver (paper Fig. 4).

Level 1 - DMET fragments over MPI sub-groups (embarrassingly parallel);
Level 2 - Pauli-string circuits over the processes of one sub-group;
Level 3 - tensor kernels (delegated to the BLAS thread pool / kernels module).

Level 1 is executed for real here, the way the paper runs it: as separate
processes that share nothing.  :meth:`ThreeLevelDriver.run_fragments_local`
maps the DMET fragments over a
:class:`~repro.parallel.executor.ProcessExecutor` pool; with one worker
the DMET driver solves them in-line and never comes here.  Levels 2 and 3 are replayed in closed form by
:mod:`repro.parallel.perfmodel` (Figs. 12-13), which this module does not
touch.
"""

from __future__ import annotations

import pickle

from repro import obs
from repro.common.errors import ValidationError
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.parallel.executor import (
    ProcessExecutor,
    _obs_directive,
    _worker_obs_begin,
    _worker_obs_finish,
)

# observability instruments (no-ops unless `repro.obs` is enabled); the
# `level="fragments"` label is kept only because `benchmarks/e2e/run.py`
# (frozen) reads `parallel.tasks` by it
_M_FRAG_TASKS = _obs.counter(
    "parallel.tasks", "tasks dispatched, labelled by level (fragments)")


def _solve_fragment(task: tuple) -> tuple:
    """Worker-side entry point: ``(solver, problem, mu, directive)`` in,
    ``(solution, obs_doc)`` out, so each worker ships its telemetry delta
    (see :func:`repro.parallel.executor._obs_directive`) with the result."""
    solver, problem, mu, directive = task
    _worker_obs_begin(directive)
    solution = solver.solve(problem, mu)
    return solution, _worker_obs_finish(directive)


class ThreeLevelDriver:
    """Entry point of the level that runs for real (DMET fragments).

    A class around one static method only because ``benchmarks/e2e`` is
    frozen: its tracer patches ``ThreeLevelDriver.run_fragments_local`` by
    that name as the ``parallel.dispatch`` span.
    """

    @staticmethod
    def run_fragments_local(problems, solver, mu: float = 0.0,
                            max_workers: int | None = None) -> list:
        """Solve independent embedded problems on ``max_workers`` processes.

        Results come back in problem order.  The solver is pickled to the
        workers with every task, so per-solve mutable state (VQE warm-start
        amplitudes) never propagates back: every worker solve is cold.  A
        solver that does not pickle is a ``ValidationError`` before any
        pool starts.
        """
        try:
            pickle.dumps(solver)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            name = getattr(solver, "name", type(solver).__name__)
            raise ValidationError(
                f"fragment solver {name!r} does not pickle ({exc}), so it "
                f"cannot reach process workers; solve in-line with "
                f"n_workers=1") from exc
        with ProcessExecutor(max_workers) as executor:
            workers = executor.workers
            # one obs directive per task: worker slot = task index modulo
            # the pool width, never a PID
            tasks = [(solver, p, mu, _obs_directive(i % workers))
                     for i, p in enumerate(problems)]
            _flight.FLIGHT.note("dispatch", "fragments", tasks=len(tasks),
                                executor=executor.name)
            with _trace.span("parallel.run_fragments", n_tasks=len(tasks),
                             executor=executor.name):
                out = []
                for i, (solution, doc) in enumerate(
                        executor.map(_solve_fragment, tasks)):
                    obs.merge_snapshot(doc, worker=i % workers)
                    out.append(solution)
        if _obs.REGISTRY.enabled:
            _M_FRAG_TASKS.inc(len(tasks), level="fragments")
        return out
