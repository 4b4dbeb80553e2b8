"""The in-process job service: queue, scheduler, batching, caching.

:class:`JobService` is the long-running daemon behind ``python -m repro
serve``: callers :meth:`~JobService.submit` energy / VQE / DMET requests
and the single scheduler thread drains the queue, groups compatible jobs
(same molecule/basis/backend, see
:meth:`repro.serve.jobs.JobSpec.batch_key`) and executes each batch
back-to-back so the prepared system and the hottest compiled artifacts
are reused across tenants.

Execution is **sequential in one scheduler thread** - the numerical
stack's observability registry is process-global, and the point of the
service is cross-request artifact reuse, not intra-process parallelism.
Client-side concurrency is free: any number of threads may submit and
await results.

Determinism contract: every serveable computation is deterministic, so

* a served result is **bitwise identical** to the direct library call
  (the load harness in ``tests/serve`` pins this for every backend /
  optimizer combination it generates), and
* results, and the cache hit/miss totals in :meth:`JobService.stats`,
  are independent of queue arrival order: drained jobs are sorted by
  (batch key, spec key) before execution, and hit totals depend only on
  the workload's multiset of spec keys, never on batch boundaries.

Per-request observability: each job runs under ``obs.collect()`` and its
``repro.obs/2`` snapshot is attached to the job record - the cache tier,
kernel and measurement counters a tenant's request generated, exactly
attributed (the service keeps its own lifetime tallies out-of-band in
:meth:`ServeCache.stats`, which ``obs.collect()`` resets cannot touch).
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque

from repro.common.errors import ReproError, ValidationError
from repro.obs import export as _export
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.common.cache import DEFAULT_MAX_BYTES, ServeCache, install
from repro.serve.jobs import JobRecord, JobSpec

# observability instruments (no-ops unless `repro.obs` is enabled; under
# observe=True these tick inside each job's collect() scope and land in
# that job's metrics document)
_M_JOBS = _obs.counter(
    "serve.jobs", "jobs executed by the service, labelled by kind")

#: terminal job states
_TERMINAL = ("done", "error")


class JobService:
    """In-process multi-tenant job service (see module docstring).

    Parameters
    ----------
    max_cache_bytes:
        Byte budget of the service's :class:`ServeCache`, installed as
        the process's current store while the service is open;
        :meth:`close` puts the previous store back.
    observe:
        Collect a per-request ``repro.obs/2`` metrics document for every
        job (attached as ``record.metrics``).  The collection scope
        resets the global registry per job, so ambient ``obs.enable()``
        state is owned by the service while jobs run.
    trace:
        Also record spans inside each job's collection scope, so the
        per-request metrics document carries a timeline (exportable with
        :func:`repro.obs.timeline.chrome_trace`).  Implies nothing when
        ``observe`` is off.
    """

    def __init__(self, *, max_cache_bytes: int = DEFAULT_MAX_BYTES,
                 observe: bool = True, trace: bool = False):
        self.cache = ServeCache(max_bytes=max_cache_bytes)
        self.observe = bool(observe)
        self.trace = bool(trace)
        self._records: dict[str, JobRecord] = {}
        self._queue: deque[JobRecord] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._n_submitted = 0
        self._n_batches = 0
        self._busy_s = 0.0
        self._previous_store = install(self.cache)
        _flight.FLIGHT.note("serve", "service_start",
                            max_cache_bytes=int(max_cache_bytes))
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True)
        self._thread.start()

    # -- client API ----------------------------------------------------------

    def submit(self, spec: JobSpec | dict) -> str:
        """Enqueue one job; returns its id (``job-<n>``)."""
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if not isinstance(spec, JobSpec):
            raise ValidationError(
                f"submit() takes a JobSpec or dict, got "
                f"{type(spec).__name__}")
        with self._cv:
            if self._closed:
                raise ValidationError("service is closed")
            self._n_submitted += 1
            job_id = f"job-{self._n_submitted:04d}"
            record = JobRecord(job_id=job_id, spec=spec)
            self._records[job_id] = record
            self._queue.append(record)
            self._cv.notify_all()
        return job_id

    def status(self, job_id: str) -> str:
        """``queued`` | ``running`` | ``done`` | ``error``."""
        return self._record(job_id).status

    def record(self, job_id: str) -> JobRecord:
        """The full mutable record (metrics, batch, cache_hit...)."""
        return self._record(job_id)

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job finishes; returns its result dict.

        A failed job re-raises as :class:`ReproError` carrying the
        original error text; a timeout raises :class:`TimeoutError`.
        """
        record = self._record(job_id)
        with self._cv:
            if not self._cv.wait_for(lambda: record.status in _TERMINAL,
                                     timeout=timeout):
                raise TimeoutError(
                    f"job {job_id} still {record.status!r} after "
                    f"{timeout}s")
        if record.status == "error":
            exc = ReproError(
                f"job {job_id} failed ({record.error_type}): {record.error}")
            # re-raised failures carry the job's flight dump: the last N
            # runtime events leading up to the error, workers included
            exc.flight = record.flight
            raise exc
        return copy.deepcopy(record.result)

    def wait(self, job_ids=None, timeout: float | None = None) -> None:
        """Block until the given jobs (default: all submitted) finish."""
        with self._cv:
            records = [self._records[j] for j in job_ids] if job_ids \
                else list(self._records.values())
            if not self._cv.wait_for(
                    lambda: all(r.status in _TERMINAL for r in records),
                    timeout=timeout):
                pending = [r.job_id for r in records
                           if r.status not in _TERMINAL]
                raise TimeoutError(f"jobs still pending: {pending}")

    def stats(self) -> dict:
        """Lifetime service statistics (always on, JSON-ready)."""
        with self._cv:
            counts = {"queued": 0, "running": 0, "done": 0, "error": 0}
            hits = 0
            for record in self._records.values():
                counts[record.status] += 1
                hits += record.cache_hit
            busy = self._busy_s
            completed = counts["done"] + counts["error"]
            return {
                "jobs": dict(counts, submitted=self._n_submitted,
                             result_cache_hits=hits),
                "batches": self._n_batches,
                "busy_s": busy,
                "throughput_jobs_per_s":
                    (completed / busy) if busy > 0 else 0.0,
                "cache": self.cache.stats(),
            }

    def close(self) -> None:
        """Drain remaining work, stop the scheduler, restore the store."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._thread.join()
        _flight.FLIGHT.note("serve", "service_close")
        install(self._previous_store)

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduler -----------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise ValidationError(f"unknown job id {job_id!r}") from None

    def _loop(self) -> None:
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._queue or self._closed)
                if not self._queue and self._closed:
                    return
                drained = list(self._queue)
                self._queue.clear()
            for batch in self._batches(drained):
                _flight.FLIGHT.note("serve", "batch_start",
                                    ordinal=batch[0].batch[0],
                                    jobs=len(batch))
                with _trace.span("serve.batch", jobs=len(batch)):
                    for record in batch:
                        self._execute(record)

    def _batches(self, drained: list[JobRecord]) -> list[list[JobRecord]]:
        """Group a drained queue into compatibility batches.

        Sorting by (batch key, spec key) makes execution order - and
        therefore every cache hit/miss total - a pure function of the
        workload's multiset of specs, independent of arrival order.
        """
        drained.sort(key=lambda r: (repr(r.spec.batch_key()),
                                    repr(r.spec.spec_key()), r.job_id))
        batches: list[list[JobRecord]] = []
        for record in drained:
            if batches and \
                    batches[-1][0].spec.batch_key() == record.spec.batch_key():
                batches[-1].append(record)
            else:
                batches.append([record])
        for batch in batches:
            self._n_batches += 1
            key = batch[0].spec.batch_key()
            for record in batch:
                record.batch = (self._n_batches, key)
        return batches

    def _execute(self, record: JobRecord) -> None:
        record.status = "running"
        _flight.FLIGHT.note("serve", "job_start", job=record.job_id,
                            job_kind=record.spec.kind)
        start = time.perf_counter()
        try:
            if self.observe:
                from repro import obs

                with obs.collect(trace=self.trace):
                    # snapshot in a finally so a job that dies mid-run
                    # still gets a valid (partial) metrics document
                    try:
                        with _trace.span("serve.job", job=record.job_id,
                                         kind=record.spec.kind):
                            record.result, record.cache_hit = \
                                self._run(record.spec)
                    finally:
                        record.metrics = _export.snapshot()
            else:
                with _trace.span("serve.job", job=record.job_id,
                                 kind=record.spec.kind):
                    record.result, record.cache_hit = self._run(record.spec)
            record.status = "done"
            _flight.FLIGHT.note("serve", "job_done", job=record.job_id,
                                cache_hit=record.cache_hit)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.error = str(exc)
            record.error_type = type(exc).__name__
            record.status = "error"
            _flight.FLIGHT.note("serve", "job_error", job=record.job_id,
                                error_type=record.error_type)
            # the service-level ring is the richest view: it holds the
            # job's own events plus any merged worker events plus the
            # error itself (a dump attached deeper stays on `exc`)
            record.flight = _flight.FLIGHT.snapshot()
        finally:
            record.wall_s = time.perf_counter() - start
            with self._cv:
                self._busy_s += record.wall_s
                self._cv.notify_all()

    # -- execution -----------------------------------------------------------

    def _run(self, spec: JobSpec) -> tuple[dict, bool]:
        """(result dict, served-from-result-cache flag)."""
        _M_JOBS.inc(kind=spec.kind)
        key = spec.spec_key()
        cached, found = self.cache.lookup("serve.result", key)
        if found:
            return copy.deepcopy(cached), True
        system = self._system(spec)
        result = getattr(self, f"_run_{spec.kind}")(spec, system)
        self.cache.insert("serve.result", key, result)
        return copy.deepcopy(result), False

    def _system(self, spec: JobSpec):
        """The prepared Q2Chemistry system, shared across methods."""
        from repro.chem.geometry import molecule_from_spec
        from repro.q2chem import Q2Chemistry

        return self.cache.get_or_build(
            "serve.system", spec.system_key(),
            lambda: Q2Chemistry.from_molecule(
                molecule_from_spec(spec.molecule, bond=spec.bond),
                basis=spec.basis))

    def _run_energy(self, spec: JobSpec, system) -> dict:
        energy = {
            "hf": system.hartree_fock_energy,
            "fci": system.fci_energy,
            "ccsd": system.ccsd_energy,
        }[spec.method]()
        return {"kind": "energy", "molecule": spec.molecule,
                "basis": spec.basis, "method": spec.method,
                "energy": float(energy)}

    def _run_vqe(self, spec: JobSpec, system) -> dict:
        res = system.vqe_energy(
            simulator=spec.simulator, optimizer=spec.optimizer,
            max_bond_dimension=spec.max_bond_dimension,
            max_iterations=spec.max_iterations, tolerance=spec.tolerance,
            grad=spec.grad)
        return {"kind": "vqe", "molecule": spec.molecule,
                "basis": spec.basis, "simulator": spec.simulator,
                "optimizer": spec.optimizer, "energy": float(res.energy),
                "parameters": [float(p) for p in res.parameters],
                "n_iterations": int(res.n_iterations),
                "n_evaluations": int(res.n_evaluations),
                "converged": bool(res.converged)}

    def _run_dmet(self, spec: JobSpec, system) -> dict:
        res = system.dmet_energy(solver=spec.solver,
                                 atoms_per_group=spec.atoms_per_group,
                                 max_bond_dimension=spec.max_bond_dimension,
                                 vqe_optimizer=spec.optimizer,
                                 vqe_max_iterations=spec.max_iterations,
                                 vqe_tolerance=spec.tolerance)
        return {"kind": "dmet", "molecule": spec.molecule,
                "basis": spec.basis, "solver": spec.solver,
                "energy": float(res.energy),
                "chemical_potential": float(res.chemical_potential),
                "mu_iterations": int(res.mu_iterations),
                "n_fragments": sum(map(len, res.orbits))}


__all__ = ["JobService"]
