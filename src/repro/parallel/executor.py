"""Real execution engines for the three-level driver.

The paper's parallel scheme (Sec. III-C, Fig. 4) is modelled elsewhere in
this package on simulated clocks; this module makes the first two levels
*actually run concurrently* on local hardware:

* **Level 1 - DMET fragments**: independent embedded problems dispatched to
  a worker pool (:meth:`repro.parallel.threelevel.ThreeLevelEngine.run_fragments`).
* **Level 2 - Pauli-group batches**: the Hamiltonian is partitioned once
  into a fixed, worker-count-independent list of term groups
  (:class:`GroupedObservable`); each worker evaluates its groups' compiled
  flip-mask expectations (:class:`~repro.simulators.pauli_kernels.CompiledObservable`)
  against a statevector - or its groups' environment sweeps / MPO
  contractions against a tensor-train state - reattached zero-copy through
  the per-backend state transports of :mod:`repro.parallel.transport`, so
  only group payloads and scalar partials cross process boundaries.

Executors are selected by name through a registry mirroring
:mod:`repro.backends`: ``serial`` (in-line baseline), ``thread``
(``ThreadPoolExecutor``; BLAS releases the GIL in the heavy kernels) and
``process`` (``ProcessPoolExecutor``; true multi-core for pure-python
paths).  Reductions are deterministic - fixed group order, compensated
summation (:mod:`repro.common.reductions`) - so energies are bitwise
identical for any worker count, which the test-suite pins.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context, get_all_start_methods
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.common import cache as _cache
from repro.common.errors import TransportError, ValidationError
from repro.common.reductions import kahan_sum
from repro.obs import flight as _flight
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.parallel.scheduler import chunk_round_robin
from repro.parallel.transport import (
    attach_state,
    available_transports,
    export_state,
    transport_for_state,
)

# observability instruments (no-ops unless `repro.obs` is enabled); the
# partition is worker-count independent, so task totals are deterministic
_M_TASKS = _obs.counter(
    "parallel.tasks", "tasks dispatched, labelled by level "
    "(fragments | pauli_groups)")
_M_DISPATCHES = _obs.counter(
    "parallel.dispatches", "dispatched batches, labelled by level")
_M_WORKER_TASKS = _obs.counter(
    "parallel.worker_tasks",
    "tasks per round-robin worker slot, labelled level/worker")
_M_REDUCTION = _obs.histogram(
    "parallel.reduction_size",
    "partials folded per deterministic (Kahan) reduction")
_M_CHUNK_SIZES = _obs.histogram(
    "parallel.chunk_sizes",
    "round-robin chunk sizes per dispatch, labelled by level")


def _record_worker_chunks(chunks: Iterable[Sequence], level: str) -> None:
    """Mirror a round-robin chunking into per-worker task counters."""
    if not _obs.REGISTRY.enabled:
        return
    sizes = []
    for worker, idxs in enumerate(chunks):
        _M_WORKER_TASKS.inc(len(idxs), level=level, worker=worker)
        sizes.append(len(idxs))
    _M_CHUNK_SIZES.observe_many(sizes, level=level)


# -- worker-side observability protocol ---------------------------------------

#: set once this process acts as a pool worker with recording on; lets
#: :func:`clear_worker_compiled_cache` reset worker obs state without ever
#: touching a parent registry (where the flag stays False)
_WORKER_OBS = {"active": False}


def _obs_directive(worker: int | None = None):
    """Per-task instruction telling a worker how to record telemetry.

    ``None`` when the parent registry is disabled - the worker goes quiet
    and drops any fork-inherited state - otherwise ``(worker_slot,
    trace_flag)``.  Worker slots are deterministic round-robin chunk
    indices, never PIDs, so merged labels are reproducible run-to-run.
    """
    if not _obs.REGISTRY.enabled:
        return None
    return (worker, _trace.TRACER.enabled)


def _worker_obs_begin(directive) -> None:
    """Worker-side: reset local obs state per the parent's directive.

    Fork-started workers inherit the parent's registry *values* and
    enabled flag as of pool creation; both can be stale by the time a task
    runs (the lifecycle bug this protocol fixes).  Every task therefore
    carries a directive: ``None`` means "be quiet" (disable and drop any
    inherited values), a tuple means "record fresh from zero".
    """
    if directive is None:
        if _obs.REGISTRY.enabled or _trace.TRACER.enabled:
            _obs.REGISTRY.disable()
            _trace.TRACER.disable()
            _obs.REGISTRY.reset()
            _trace.TRACER.reset()
        return
    _WORKER_OBS["active"] = True
    _obs.REGISTRY.reset()
    _trace.TRACER.reset()
    # the flight ring restarts per task so the shipped dump holds exactly
    # this task's events (pool reuse never double-ships)
    _flight.FLIGHT.reset()
    _obs.REGISTRY.enable()
    if directive[1]:
        _trace.TRACER.enable()
    else:
        _trace.TRACER.disable()
    _flight.FLIGHT.note("task", "begin", worker=directive[0])


def _worker_obs_finish(directive):
    """Worker-side: snapshot the task's telemetry delta and go quiet.

    Returns the export document to ship back with the task result, or
    None when the directive asked for no recording.  The local registry
    is reset afterwards so pool reuse never double-ships events.
    """
    if directive is None:
        return None
    from repro.obs import export as _export

    _flight.FLIGHT.note("task", "end", worker=directive[0])
    doc = _export.snapshot()
    doc["flight"] = _flight.FLIGHT.snapshot()
    _obs.REGISTRY.disable()
    _trace.TRACER.disable()
    _obs.REGISTRY.reset()
    _trace.TRACER.reset()
    _flight.FLIGHT.reset()
    return doc


def _merge_worker_payload(doc, worker: int | None) -> None:
    """Parent-side: fold one worker's telemetry delta into the registry."""
    if doc is None:
        return
    _obs.REGISTRY.merge(doc.get("metrics", {}), worker=worker)
    _trace.TRACER.merge(doc.get("spans", []), worker=worker)
    _flight.FLIGHT.merge(doc.get("flight"), worker=worker)

#: default number of Pauli-group batches per Hamiltonian.  Fixed (rather
#: than "one per worker") so the partition - and therefore every partial
#: sum - is independent of how many workers later evaluate it.
DEFAULT_PAULI_GROUPS = 8


def default_worker_count() -> int:
    """Worker count when the caller does not specify one (CPU affinity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


# -- executor backends --------------------------------------------------------


class SerialExecutor:
    """In-line execution: the baseline every parallel result must match."""

    name = "serial"
    #: tasks run in the caller's address space (no pickling, no shm needed)
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
    """Thread-pool execution (level 3's BLAS kernels release the GIL)."""

    name = "thread"
    in_process = True

    def __init__(self, max_workers: int | None = None):
        self.workers = max_workers or default_worker_count()
        if self.workers < 1:
            raise ValidationError("need at least one worker")
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
    payloads must be picklable; bulk state travels through the shared-memory
    transports of :mod:`repro.parallel.transport` instead of pickles.  The
    pool is created
    lazily on first use and reused across calls (workers keep their
    compiled-observable caches warm between optimizer iterations).
    """

    name = "process"
    in_process = False

    def __init__(self, max_workers: int | None = None):
        self.workers = max_workers or default_worker_count()
        if self.workers < 1:
            raise ValidationError("need at least one worker")
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


# -- executor registry (mirrors repro.backends) -------------------------------


@dataclass(frozen=True)
class ExecutorSpec:
    """Registry entry describing one executor backend."""

    name: str
    factory: Callable[..., Any]
    description: str = ""


_EXECUTORS: dict[str, ExecutorSpec] = {}


def register_executor(name: str, factory: Callable[..., Any], *,
                      description: str = "",
                      overwrite: bool = False) -> ExecutorSpec:
    """Register an executor backend under ``name`` (third parties welcome)."""
    key = name.lower()
    if key in _EXECUTORS and not overwrite:
        raise ValidationError(f"executor {name!r} is already registered")
    spec = ExecutorSpec(name=key, factory=factory, description=description)
    _EXECUTORS[key] = spec
    return spec


def unregister_executor(name: str) -> None:
    """Remove a registration (mainly for tests of third-party plugging)."""
    _EXECUTORS.pop(name.lower(), None)


def executor_spec(name: str) -> ExecutorSpec:
    """Look up an :class:`ExecutorSpec`; raises with the known names listed."""
    if not isinstance(name, str):
        raise ValidationError(f"executor name must be a string, got {name!r}")
    spec = _EXECUTORS.get(name.lower())
    if spec is None:
        known = ", ".join(sorted(_EXECUTORS))
        raise ValidationError(
            f"unknown executor {name!r}; registered: {known}"
        )
    return spec


def resolve_executor(name, max_workers: int | None = None):
    """Instantiate a registered executor (or pass one through unchanged)."""
    if hasattr(name, "map") and hasattr(name, "close"):
        return name  # already an executor instance
    return executor_spec(name).factory(max_workers=max_workers)


def available_executors() -> list[str]:
    """Sorted names of registered executor backends."""
    return sorted(_EXECUTORS)


register_executor("serial", SerialExecutor,
                  description="in-line execution (deterministic baseline)")
register_executor("thread", ThreadExecutor,
                  description="thread pool; concurrency through "
                              "GIL-releasing BLAS kernels")
register_executor("process", ProcessExecutor,
                  description="process pool + shared-memory statevector; "
                              "true multi-core")


# -- per-level timing counters ------------------------------------------------


@dataclass
class ExecutorCounters:
    """Per-level wall-time/task accounting for the real execution engine.

    Levels follow the paper's naming: ``fragments`` (level 1) and
    ``pauli_groups`` (level 2).  ``benchmarks/`` dumps :meth:`to_dict`
    straight to JSON.
    """

    levels: dict[str, dict] = field(default_factory=dict)

    def record(self, level: str, seconds: float, n_tasks: int) -> None:
        """Accumulate one dispatched batch at ``level``."""
        slot = self.levels.setdefault(
            level, {"calls": 0, "seconds": 0.0, "tasks": 0})
        slot["calls"] += 1
        slot["seconds"] += float(seconds)
        slot["tasks"] += int(n_tasks)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {level: dict(slot) for level, slot in self.levels.items()}


# -- level 2: parallel Pauli-group expectation --------------------------------

# payload key -> CompiledObservable in the process's current store, so a
# long-lived process pool compiles each group once and reuses it across
# every optimizer iteration (the paper's "constant measurement circuits"
# observation, Sec. III-D).
_PAYLOAD_NAMESPACE = "parallel.group_payload"

GroupPayload = tuple[tuple[int, int, float, float], ...]


def _operator_from_payload(payload: GroupPayload) -> QubitOperator:
    """Rebuild a term group as a :class:`QubitOperator` in payload order.

    Both the parent and every worker construct group operators through this
    one function, so term insertion order - and therefore the compiled
    flip-mask group order and its floating-point reduction - is identical
    everywhere.
    """
    return QubitOperator({
        PauliTerm(x, z): complex(re, im) for x, z, re, im in payload
    })


def clear_worker_compiled_cache() -> None:
    """Drop the obs state a recording pool worker leaves in this process.

    In a process that has acted as a recording pool worker this disables
    and resets the local obs registry/tracer, so no stale telemetry
    survives into the next run; in a parent process (``_WORKER_OBS`` flag
    unset) obs state is untouched.
    """
    if _WORKER_OBS["active"]:
        _obs.REGISTRY.disable()
        _trace.TRACER.disable()
        _obs.REGISTRY.reset()
        _trace.TRACER.reset()
        _flight.FLIGHT.reset()
        _WORKER_OBS["active"] = False


def _compiled_for_payload(key: tuple, payload: GroupPayload, n_qubits: int):
    """Compile (or fetch) the batched observable for one group payload."""
    from repro.simulators.pauli_kernels import CompiledObservable

    store = _cache.current()
    hit, found = store.lookup(_PAYLOAD_NAMESPACE, key)
    if not found:
        hit = CompiledObservable(_operator_from_payload(payload), n_qubits)
        store.insert(_PAYLOAD_NAMESPACE, key, hit)
    return hit


def _group_expectation_task(task: tuple):
    """Worker entry point: evaluate a chunk of groups against shared state.

    ``task`` is ``(handle, n_qubits, chunk, directive)`` with ``handle``
    a :class:`repro.parallel.transport.TransportHandle` for the exported
    statevector, ``chunk`` a list of ``(group_index, cache_key, payload)``
    and ``directive`` the per-task obs instruction (see
    :func:`_obs_directive`; legacy 3-tuples mean "no recording").
    Returns ``(pairs, obs_doc)``: the ``(group_index, partial)`` pairs the
    parent reduces in fixed group order, plus this task's telemetry delta
    (None when not recording).
    """
    if len(task) == 4:
        handle, n_qubits, chunk, directive = task
    else:
        handle, n_qubits, chunk = task
        directive = None
    _worker_obs_begin(directive)
    psi, closer = attach_state(handle)
    try:
        out = []
        for gidx, key, payload in chunk:
            compiled = _compiled_for_payload(key, payload, n_qubits)
            out.append((gidx, compiled.expectation(psi)))
        return out, _worker_obs_finish(directive)
    finally:
        closer()


#: worker-side measurement engine, one per process: its per-state caches
#: rebind on every freshly attached state, while the sweep plans and MPOs
#: in the process's store stay warm across tasks and dispatches
_WORKER_MPS_ENGINE: dict[str, Any] = {"engine": None}


def _worker_mps_engine():
    if _WORKER_MPS_ENGINE["engine"] is None:
        from repro.simulators.mps_measure import MPSMeasurementEngine

        _WORKER_MPS_ENGINE["engine"] = MPSMeasurementEngine()
    return _WORKER_MPS_ENGINE["engine"]


def _mps_group_expectation_task(task: tuple):
    """Worker entry point: evaluate term groups against a shared MPS.

    ``task`` is ``(handle, n_qubits, mode, chunk, directive, level3)``:
    ``handle`` reattaches the exported tensor-train state read-only
    (``mps_shm`` transport), ``mode`` picks the measurement path
    (``"sweep"`` | ``"mpo"``), ``chunk`` is a list of ``(group_index,
    payload)`` and ``level3`` mirrors the parent's
    :func:`repro.simulators.mps_measure.level3_config` so bond slicing
    behaves identically in every process.  Returns ``(pairs, obs_doc)``
    exactly like :func:`_group_expectation_task`.
    """
    handle, n_qubits, mode, chunk, directive, level3 = task
    _worker_obs_begin(directive)
    from repro.simulators.mps_measure import configure_level3

    configure_level3(*level3)
    mps, closer = attach_state(handle)
    try:
        engine = _worker_mps_engine()
        out = []
        for gidx, payload in chunk:
            op = _operator_from_payload(payload)
            if mode == "mpo":
                value = engine.expectation_mpo(mps, op, n_qubits)
            else:
                value = engine.expectation_sweep(mps, op, n_qubits)
            out.append((gidx, value))
        return out, _worker_obs_finish(directive)
    finally:
        closer()


class GroupedObservable:
    """A Hamiltonian partitioned into deterministic Pauli-group batches.

    The term partition (LPT by estimated span cost, see
    :func:`repro.vqe.grouping.partition_pauli_terms`) is fixed at
    construction and *independent of the worker count*: workers only decide
    which process evaluates which group, never what a group contains.  Each
    group's partial expectation is computed by the same
    :class:`~repro.simulators.pauli_kernels.CompiledObservable` code path in
    every executor, and partials are reduced with compensated summation in
    group order - so the energy is bitwise identical for 1, 2 or N workers,
    serial, thread or process.

    Parameters
    ----------
    hamiltonian:
        Weighted Pauli-string operator (identity terms fold into the
        constant).
    n_qubits:
        Register width (defaults to the operator's minimal width).
    n_groups:
        Number of term batches (default :data:`DEFAULT_PAULI_GROUPS`,
        clamped to the term count).
    strategy:
        Partition strategy name forwarded to ``partition_pauli_terms``.
    """

    def __init__(self, hamiltonian: QubitOperator, n_qubits: int | None = None,
                 *, n_groups: int | None = None, strategy: str = "lpt"):
        # imported here: repro.vqe pulls in the evaluator layer, which may
        # itself import this module (the parallel= path)
        from repro.vqe.grouping import partition_pauli_terms

        n = max(hamiltonian.n_qubits(), 1) if n_qubits is None else int(n_qubits)
        self.n_qubits = n
        self.constant = float(np.real(hamiltonian.constant()))
        wanted = DEFAULT_PAULI_GROUPS if n_groups is None else int(n_groups)
        if wanted < 1:
            raise ValidationError("need at least one Pauli group")
        n_terms = sum(1 for t, _ in hamiltonian if not t.is_identity())
        wanted = max(1, min(wanted, n_terms)) if n_terms else 1
        groups = partition_pauli_terms(hamiltonian, wanted, strategy=strategy)
        self.payloads: list[GroupPayload] = []
        for group in groups:
            if not group:
                continue
            self.payloads.append(tuple(
                (t.x, t.z, float(np.real(c)), float(np.imag(c)))
                for t, c in group
            ))
        # cache keys are content hashes, so a warm worker pool reuses its
        # compiled groups across GroupedObservable rebuilds of the same H
        self._keys = [(n, hash(p)) for p in self.payloads]
        self._parent_compiled: list | None = None
        self._group_ops: list[QubitOperator] | None = None
        self._mps_engine = None

    @property
    def n_groups(self) -> int:
        """Number of non-empty term groups (level-2 parallel width)."""
        return len(self.payloads)

    @property
    def n_terms(self) -> int:
        """Total non-identity terms across all groups."""
        return sum(len(p) for p in self.payloads)

    def _compiled_groups(self) -> list:
        if self._parent_compiled is None:
            self._parent_compiled = [
                _compiled_for_payload(key, payload, self.n_qubits)
                for key, payload in zip(self._keys, self.payloads)
            ]
        return self._parent_compiled

    def expectation(self, psi: np.ndarray, executor=None,
                    counters: ExecutorCounters | None = None) -> float:
        """Re <psi| H |psi> with deterministic parallel reduction.

        ``executor`` is an executor instance, a registered executor name, or
        None (serial in-line).  ``counters`` accumulates level-2 timing.
        """
        psi = np.ascontiguousarray(
            np.asarray(psi, dtype=complex).reshape(-1))
        if psi.size != 1 << self.n_qubits:
            raise ValidationError(
                f"state size {psi.size} != 2^{self.n_qubits}"
            )
        t0 = time.perf_counter()
        owned = isinstance(executor, str)  # resolved here -> closed here
        if executor is not None:
            executor = resolve_executor(executor)
        try:
            if executor is None or executor.in_process:
                partials = self._expectation_in_process(psi, executor)
            else:
                partials = self._expectation_shared(psi, executor)
        finally:
            if owned:
                executor.close()
        if _obs.REGISTRY.enabled:
            _M_TASKS.inc(self.n_groups, level="pauli_groups")
            _M_DISPATCHES.inc(level="pauli_groups")
            _M_REDUCTION.observe(len(partials))
        # fixed group order + compensated summation = bitwise reproducible
        total = kahan_sum(partials)
        total += self.constant * float(np.real(np.vdot(psi, psi)))
        if counters is not None:
            counters.record("pauli_groups", time.perf_counter() - t0,
                            self.n_groups)
        return total

    def _expectation_in_process(self, psi: np.ndarray, executor) -> list[float]:
        compiled = self._compiled_groups()
        if executor is None or executor.workers == 1:
            _record_worker_chunks([range(len(compiled))], "pauli_groups")
            return [c.expectation(psi) for c in compiled]
        chunks = chunk_round_robin(len(compiled), executor.workers)
        _record_worker_chunks(chunks, "pauli_groups")
        results = executor.map(
            lambda idxs: [(i, compiled[i].expectation(psi)) for i in idxs],
            chunks)
        return _ordered_partials(results, len(compiled))

    def expectation_mps(self, mps, executor=None,
                        counters: ExecutorCounters | None = None,
                        *, mode: str = "sweep") -> float:
        """Re <psi| H |psi> for a tensor-train state, batched by group.

        The level-2 dispatch for the MPS backend: each group is evaluated
        through the shared-environment sweep engine
        (:class:`repro.simulators.mps_measure.MPSMeasurementEngine`) or,
        with ``mode="mpo"``, the compressed-MPO contraction.  In-process
        executors share one engine across all groups; the ``process``
        executor exports the state once through the ``mps_shm`` transport
        (:mod:`repro.parallel.transport`) and every worker reattaches the
        tensor blocks zero-copy.  Group order and compensated summation
        match :meth:`expectation`, so the reduction is deterministic for
        any worker count on any executor.
        """
        if mps.n_qubits != self.n_qubits:
            raise ValidationError(
                f"state register {mps.n_qubits} != operator register "
                f"{self.n_qubits}"
            )
        if mode not in ("sweep", "mpo"):
            raise ValidationError(
                f"unknown MPS group-path mode {mode!r}; "
                f"expected 'sweep' or 'mpo'"
            )
        t0 = time.perf_counter()
        owned = isinstance(executor, str)  # resolved here -> closed here
        if executor is not None:
            executor = resolve_executor(executor)
        try:
            if executor is not None and not executor.in_process:
                partials = self._expectation_mps_shared(mps, executor, mode)
            else:
                partials = self._expectation_mps_in_process(
                    mps, executor, mode)
        finally:
            if owned:
                executor.close()
        if _obs.REGISTRY.enabled:
            _M_TASKS.inc(self.n_groups, level="pauli_groups")
            _M_DISPATCHES.inc(level="pauli_groups")
            _M_REDUCTION.observe(len(partials))
        # fixed group order + compensated summation = bitwise reproducible;
        # canonical-form MPS states are normalized, so the constant needs
        # no <psi|psi> weighting
        total = kahan_sum(partials) + self.constant
        if counters is not None:
            counters.record("pauli_groups", time.perf_counter() - t0,
                            self.n_groups)
        return total

    def _group_operators(self) -> list[QubitOperator]:
        """Group payloads rebuilt as operators (cached, fixed order)."""
        if self._group_ops is None:
            self._group_ops = [_operator_from_payload(p)
                               for p in self.payloads]
        return self._group_ops

    def _mps_eval(self, mode: str):
        """The engine method implementing one MPS measurement mode."""
        if self._mps_engine is None:
            from repro.simulators.mps_measure import MPSMeasurementEngine

            self._mps_engine = MPSMeasurementEngine()
        engine = self._mps_engine
        if mode == "mpo":
            return engine.expectation_mpo
        return engine.expectation_sweep

    def _expectation_mps_in_process(self, mps, executor,
                                    mode: str) -> list[float]:
        evaluate = self._mps_eval(mode)
        ops = self._group_operators()
        if executor is None or executor.workers == 1:
            _record_worker_chunks([range(len(ops))], "pauli_groups")
            return [evaluate(mps, op) for op in ops]
        chunks = chunk_round_robin(len(ops), executor.workers)
        _record_worker_chunks(chunks, "pauli_groups")
        results = executor.map(
            lambda idxs: [(i, evaluate(mps, ops[i])) for i in idxs],
            chunks)
        return _ordered_partials(results, len(ops))

    def _expectation_mps_shared(self, mps, executor,
                                mode: str) -> list[float]:
        from repro.simulators.mps_measure import level3_config

        if transport_for_state(mps) is None:
            raise TransportError(
                f"state {type(mps).__name__!r} has no registered transport; "
                f"executor {executor.name!r} runs out of process and needs "
                f"one (registered: {', '.join(available_transports())})",
                state_kind=type(mps).__name__,
                executor=getattr(executor, "name", None),
                available=tuple(available_transports()))
        chunks = chunk_round_robin(len(self.payloads), executor.workers)
        _record_worker_chunks(chunks, "pauli_groups")
        _flight.FLIGHT.note("dispatch", "mps_groups", chunks=len(chunks),
                            executor=getattr(executor, "name", "?"))
        level3 = level3_config()
        with export_state(mps) as exported:
            tasks = [
                (exported.handle, self.n_qubits, mode,
                 [(i, self.payloads[i]) for i in idxs],
                 _obs_directive(worker), level3)
                for worker, idxs in enumerate(chunks)
            ]
            results = executor.map(_mps_group_expectation_task, tasks)
        pair_chunks = []
        for worker, (pairs, doc) in enumerate(results):
            _merge_worker_payload(doc, worker)
            pair_chunks.append(pairs)
        return _ordered_partials(pair_chunks, len(self.payloads))

    def _expectation_shared(self, psi: np.ndarray, executor) -> list[float]:
        chunks = chunk_round_robin(len(self.payloads), executor.workers)
        _record_worker_chunks(chunks, "pauli_groups")
        _flight.FLIGHT.note("dispatch", "dense_groups", chunks=len(chunks),
                            executor=getattr(executor, "name", "?"))
        with export_state(psi) as exported:
            tasks = [
                (exported.handle, self.n_qubits,
                 [(i, self._keys[i], self.payloads[i]) for i in idxs],
                 _obs_directive(worker))
                for worker, idxs in enumerate(chunks)
            ]
            results = executor.map(_group_expectation_task, tasks)
        pair_chunks = []
        for worker, (pairs, doc) in enumerate(results):
            _merge_worker_payload(doc, worker)
            pair_chunks.append(pairs)
        return _ordered_partials(pair_chunks, len(self.payloads))


def _ordered_partials(results: Iterable, n_groups: int) -> list[float]:
    """Flatten (group_index, partial) chunks into fixed group order."""
    out = [0.0] * n_groups
    for chunk in results:
        for gidx, partial in chunk:
            out[gidx] = partial
    return out


__all__ = [
    "DEFAULT_PAULI_GROUPS",
    "ExecutorCounters",
    "ExecutorSpec",
    "GroupedObservable",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "available_executors",
    "clear_worker_compiled_cache",
    "default_worker_count",
    "executor_spec",
    "register_executor",
    "resolve_executor",
    "unregister_executor",
]
