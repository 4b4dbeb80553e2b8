"""The three-level parallel driver (paper Fig. 4).

Level 1 - DMET fragments over MPI sub-groups (embarrassingly parallel);
Level 2 - Pauli-string circuits over the processes of one sub-group;
Level 3 - tensor kernels (delegated to the BLAS thread pool / kernels module).

Two execution modes:

* ``simulate`` - ranks are :class:`SimCluster` clocks; compute is charged
  from a :class:`CircuitCostModel` and communication from the machine model.
  This replays arbitrarily large runs (it is how Figs. 12-13 are made), and
  it is where levels 2 and 3 are reproduced.
* ``local`` - level 1 executed for real: :class:`ThreeLevelEngine` maps the
  DMET fragments over the executor layer (:mod:`repro.parallel.executor`):
  serial, thread-pool or process-pool workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.parallel.comm import SimCluster, CommStats
from repro.parallel.executor import (
    ExecutorCounters,
    _merge_worker_payload,
    _obs_directive,
    _record_worker_chunks,
    _worker_obs_begin,
    _worker_obs_finish,
    resolve_executor,
)
from repro.parallel.scheduler import chunk_round_robin

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_FRAG_TASKS = _obs.counter(
    "parallel.tasks", "tasks dispatched, labelled by level (fragments)")
_M_FRAG_DISPATCHES = _obs.counter(
    "parallel.dispatches", "dispatched batches, labelled by level")
from repro.parallel.perfmodel import (
    CircuitCostModel,
    VQEIterationModel,
    synthetic_fragment_strings,
)
from repro.parallel.scheduler import Task, schedule_lpt
from repro.parallel.topology import SunwayMachine


@dataclass
class DistributedVQEReport:
    """Timing/traffic report of a simulated distributed DMET-VQE run."""

    n_processes: int
    n_cores: int
    n_fragments: int
    n_iterations: int
    makespan_s: float
    comm_seconds: float
    bytes_per_process_per_iteration: float
    idle_fraction: float
    breakdown: dict = field(default_factory=dict)


class ThreeLevelDriver:
    """Orchestrates DMET-VQE across the three parallel levels."""

    def __init__(self, *, machine: SunwayMachine | None = None,
                 cost_model: CircuitCostModel | None = None,
                 processes_per_group: int = 2048):
        self.machine = machine or SunwayMachine()
        self.cost_model = cost_model or CircuitCostModel()
        self.processes_per_group = processes_per_group

    # -- simulated mode -----------------------------------------------------

    def simulate(self, *, n_fragments: int, n_processes: int,
                 fragment_qubits: int = 8, n_iterations: int = 1,
                 seed: int = 0) -> DistributedVQEReport:
        """Replay a distributed DMET-VQE run on simulated clocks."""
        if n_processes % self.processes_per_group:
            raise ValidationError(
                f"{n_processes} processes not divisible into "
                f"{self.processes_per_group}-process groups"
            )
        cluster = SimCluster(n_processes, self.machine)
        world = cluster.world()
        n_groups = n_processes // self.processes_per_group
        groups = world.split(n_groups)
        strings = synthetic_fragment_strings(fragment_qubits, seed=seed)
        model = VQEIterationModel(self.machine, self.cost_model)

        # assign fragments to groups round-robin (waves)
        frag_of_group: list[list[int]] = [[] for _ in range(n_groups)]
        for f in range(n_fragments):
            frag_of_group[f % n_groups].append(f)

        total_breakdown = {"bcast_s": 0.0, "compute_s": 0.0, "reduce_s": 0.0}
        bytes_per_proc = 0.0
        for g, comm in enumerate(groups):
            for _frag in frag_of_group[g]:
                for _it in range(n_iterations):
                    theta = np.zeros(model.n_parameters)
                    comm.bcast(theta, root=0)
                    assignment = schedule_lpt(strings, comm.size)
                    gate_s = self.cost_model.gate_seconds()
                    for rank, tasks in enumerate(assignment):
                        meas = sum(t.cost for t in tasks)
                        secs = (self.cost_model.overhead * max(1, len(tasks))
                                + (model.ansatz_gates + meas) * gate_s)
                        comm.compute(rank, secs)
                    comm.reduce([0.0] * comm.size)
                    _, bd = model.iteration_seconds(strings, comm.size)
                    for k in total_breakdown:
                        total_breakdown[k] += bd[k]
                    bytes_per_proc = bd["bytes_per_process"]
        # final DMET energy reduction: one scalar per group
        world.reduce([0.0] * world.size)

        return DistributedVQEReport(
            n_processes=n_processes,
            n_cores=self.machine.cores_for_processes(n_processes),
            n_fragments=n_fragments,
            n_iterations=n_iterations,
            makespan_s=cluster.elapsed(),
            comm_seconds=sum(c.stats.comm_time_s for c in groups),
            bytes_per_process_per_iteration=bytes_per_proc,
            idle_fraction=cluster.idle_fraction(),
            breakdown=total_breakdown,
        )

    # -- local (real execution) mode ----------------------------------------------

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

    Where :class:`ThreeLevelDriver.simulate` replays the paper's run
    geometry on virtual clocks, this engine actually dispatches the work:
    :meth:`run_fragments` - level 1, one task per DMET embedded problem.

    Wall-time counters accumulate in :attr:`counters`; :meth:`report`
    snapshots them.

    Parameters
    ----------
    executor:
        Registered executor name ("serial" | "thread" | "process") or an
        executor instance.
    max_workers:
        Pool width (defaults to the CPU affinity count).
    """

    def __init__(self, *, executor: str = "serial",
                 max_workers: int | None = None):
        self.executor = resolve_executor(executor, max_workers)
        self.counters = ExecutorCounters()

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
        t0 = time.perf_counter()
        tasks = [(solver, p, mu) for p in problems]
        workers = max(1, self.executor.workers)
        _record_worker_chunks(chunk_round_robin(len(tasks), workers),
                              "fragments")
        _flight.FLIGHT.note("dispatch", "fragments", tasks=len(tasks),
                            executor=self.executor.name)
        with _trace.span("parallel.run_fragments", n_tasks=len(tasks),
                         executor=self.executor.name):
            if self.executor.in_process:
                out = self.executor.map(_solve_fragment, tasks)
            else:
                # process workers: ship an obs directive per task (worker
                # slot = deterministic round-robin index) and merge each
                # returned telemetry delta into the parent registry
                obs_tasks = [
                    (solver, p, mu, _obs_directive(i % workers))
                    for i, (solver, p, mu) in enumerate(tasks)
                ]
                out = []
                for i, (solution, doc) in enumerate(
                        self.executor.map(_solve_fragment, obs_tasks)):
                    _merge_worker_payload(doc, i % workers)
                    out.append(solution)
        self.counters.record("fragments", time.perf_counter() - t0,
                             len(tasks))
        if _obs.REGISTRY.enabled:
            _M_FRAG_TASKS.inc(len(tasks), level="fragments")
            _M_FRAG_DISPATCHES.inc(level="fragments")
        return out

    # -- reporting / lifecycle ------------------------------------------------

    def report(self) -> dict:
        """JSON-ready snapshot: executor config + per-level counters."""
        return {
            "executor": self.executor.name,
            "workers": self.executor.workers,
            "levels": self.counters.to_dict(),
        }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
