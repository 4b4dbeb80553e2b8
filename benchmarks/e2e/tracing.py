"""Span recorder and entry-point wrappers for the traced pass.

The benchmark measures every layer of ``repro`` from outside: each public
entry point in :data:`ENTRY_POINTS` is replaced, in the traced child
process only, by a wrapper that records one span per call (name, start,
end, parent id).  Spans stay in memory; the child reduces them to busy
and self times when the workload has finished.  Nothing under ``src/``
knows about any of this, and the untraced runs that produce the
end-to-end metrics never import this module's wrappers.

A span's *self time* is its duration minus the part of that interval its
child spans cover; a layer's self time is the sum over its spans, and the
self time of the root ``workload`` span is the wall time no wrapped entry
point accounts for (``unattributed_frac``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: name of the span the harness opens around a workload's timed region
ROOT = "workload"

#: (layer, span name, module, attribute) - the calls into each layer that
#: the traced pass times.  ``Class.method`` attributes are patched on the
#: class (class/static methods and aliases such as ``__call__ = energy``
#: included); plain functions are patched in every loaded ``repro`` module
#: that imported them by name.
ENTRY_POINTS = (
    ("chem", "chem.prepare", "repro.q2chem", "Q2Chemistry.from_molecule"),
    ("chem", "chem.fci", "repro.q2chem", "Q2Chemistry.fci_energy"),
    ("chem", "chem.ccsd", "repro.q2chem", "Q2Chemistry.ccsd_energy"),
    ("operators", "operators.map", "repro.operators.molecular",
     "molecular_qubit_hamiltonian"),
    ("circuits", "circuits.build", "repro.circuits.uccsd",
     "UCCSDAnsatz.circuit"),
    ("circuits", "circuits.bind", "repro.circuits.circuit", "Circuit.bind"),
    ("circuits", "circuits.fuse", "repro.circuits.fusion",
     "fuse_single_qubit_gates"),
    ("simulators.evolve", "simulators.run", "repro.simulators.mps_circuit",
     "MPSSimulator.run"),
    # the adjoint gradient drives the MPS state directly, gate by gate;
    # these two are the only calls into the simulators layer it makes
    ("simulators.evolve", "simulators.gate_1q", "repro.simulators.mps",
     "MPS.apply_one_qubit"),
    ("simulators.evolve", "simulators.gate_2q", "repro.simulators.mps",
     "MPS.apply_two_qubit"),
    ("simulators.measure", "simulators.expectation",
     "repro.simulators.mps_circuit", "MPSSimulator.expectation"),
    ("simulators.dense", "simulators.fast", "repro.vqe.fast_sv",
     "FastUCCEvaluator.energy"),
    ("vqe", "vqe.energy", "repro.vqe.energy", "EnergyEvaluator.energy"),
    ("vqe", "vqe.grad", "repro.vqe.gradients", "GradientSource.__call__"),
    ("vqe", "vqe.run", "repro.vqe.vqe", "VQE.run"),
    ("vqe", "vqe.rdm", "repro.vqe.vqe", "VQE.reduced_density_matrices"),
    ("dmet", "dmet.embed", "repro.dmet.dmet", "DMET.__init__"),
    ("dmet", "dmet.run", "repro.dmet.dmet", "DMET.run"),
    ("dmet", "dmet.evaluate", "repro.dmet.dmet", "DMET.evaluate"),
    ("dmet", "dmet.solve", "repro.dmet.solvers", "VQEFragmentSolver.solve"),
    ("dmet", "dmet.solve", "repro.dmet.solvers", "FCIFragmentSolver.solve"),
    ("parallel", "parallel.dispatch", "repro.parallel.threelevel",
     "ThreeLevelDriver.run_fragments_local"),
)

#: span name -> layer (the root span belongs to no layer)
LAYER_OF = {name: layer for layer, name, _, _ in ENTRY_POINTS}

#: per-gate spans: tens of thousands per run, so they are reduced to
#: totals in the child and left out of exported timelines
HOT_SPANS = ("simulators.gate_1q", "simulators.gate_2q")

#: counts read off a wrapped call's return value: span name -> (count
#: name, function of the result)
RESULT_COUNTS = {
    "operators.map": ("operators.terms", lambda op: len(op.terms)),
    "vqe.run": ("vqe.opt_iters", lambda res: int(res.n_iterations)),
}


class SpanRecorder:
    """In-memory span store with a per-thread open-span stack.

    A span is the tuple ``(span_id, parent_id, name, start, end, thread)``
    with ``time.perf_counter`` stamps.  A span opened on a thread whose
    stack is empty (the serve scheduler thread) is parented to the open
    root span, so work done on behalf of the workload by another thread is
    still subtracted from the root's self time.
    """

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root_id: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def root(self):
        """The span around a workload's timed region (yields its id)."""
        stack = self._stack()
        span_id = self._root_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root_id = None
            self.spans.append((span_id, None, ROOT, start, end,
                               threading.current_thread().name))

    def wrap(self, name: str, fn):
        """``fn`` with one span per call (and its result count, if any)."""
        count = RESULT_COUNTS.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, thread = time.perf_counter, threading.current_thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else self._root_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              thread().name))
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced


def _patch_method(cls, attr: str, wrap) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(wrap(raw.__func__))
    else:
        wrapped = wrap(raw)
    for key, value in list(vars(cls).items()):
        if value is raw:            # the method and aliases bound to it
            setattr(cls, key, wrapped)


def _patch_function(module, attr: str, wrap) -> None:
    raw = getattr(module, attr)
    wrapped = wrap(raw)
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is raw:        # `from x import f` copies of the name
                setattr(mod, key, wrapped)


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (traced child only)."""
    modules = [importlib.import_module(mod) for _, _, mod, _ in ENTRY_POINTS]
    # consumers that import entry points by name must be loaded before the
    # functions are patched, or they would bind the unwrapped original
    importlib.import_module("repro.serve")
    for (_, name, _, attr), module in zip(ENTRY_POINTS, modules):
        wrap = functools.partial(recorder.wrap, name)
        if "." in attr:
            cls_name, method = attr.split(".")
            _patch_method(getattr(module, cls_name), method, wrap)
        else:
            _patch_function(module, attr, wrap)


# -- reduction ----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the covered part of children.

    Children are clipped to the parent's interval and overlapping children
    (work on two threads at once) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for span_id, _, _, start, end, *_ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def summarise(spans) -> dict:
    """Reduce spans to per-name and per-layer totals.

    Returns ``{"wall_s", "names": {name: {calls, busy_s, self_s}},
    "layers": {layer: self_s}, "unattributed_s"}``; ``busy_s`` is the sum
    of durations (inclusive of callees), ``self_s`` the sum of self times.
    ``wall_s``/``unattributed_s`` come from the root span (0 without one).
    """
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    layers: dict[str, float] = defaultdict(float)
    wall = unattributed = 0.0
    for span_id, _, name, start, end, *_ in spans:
        if name == ROOT:
            wall += end - start
            unattributed += selfs[span_id]
            continue
        row = names.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += selfs[span_id]
        layers[LAYER_OF.get(name, name)] += selfs[span_id]
    return {"wall_s": wall, "names": names, "layers": dict(layers),
            "unattributed_s": unattributed}


def span_dicts(spans) -> list[dict]:
    """Spans as ``repro.obs.trace.SpanRecord``-shaped dicts.

    The shape :func:`repro.obs.timeline.chrome_trace` takes; per-gate
    spans are left out (a LiH step has tens of thousands of them).
    """
    depth: dict[int, int] = {}
    out = []
    for span_id, parent, name, start, end, thread in sorted(
            spans, key=lambda s: s[3]):
        depth[span_id] = depth.get(parent, -1) + 1
        if name in HOT_SPANS:
            continue
        out.append({"span_id": span_id, "parent_id": parent, "name": name,
                    "depth": depth[span_id], "start_s": start,
                    "wall_s": end - start, "cpu_s": None, "thread": thread})
    return out


def counter_total(metrics: dict, name: str, **labels) -> float:
    """Sum of a ``repro.obs`` snapshot metric over slots matching labels."""
    total = 0.0
    for slot in metrics.get(name, {}).get("values", ()):
        if all(slot["labels"].get(k) == v for k, v in labels.items()):
            value = slot["value"]
            total += value["sum"] if isinstance(value, dict) else value
    return total
