"""The performance ledger: a pinned benchmark suite with regression gates.

``python -m repro bench`` runs a fixed set of reference workloads (H2 /
LiH statevector and MPS-sweep/MPO evaluations, 1/2/4-worker three-level
dispatches, process-parallel MPS measurements over the ``mps_shm``
state transport), writes a schema-versioned ``BENCH_<date>.json`` at
the current directory, and compares it against the committed baseline
(``BENCH_baseline.json``), exiting nonzero on regression - the
machine-readable perf trajectory the ROADMAP's "as fast as the hardware
allows" goal needs to be enforceable.

Every case records three layers per evaluation:

* **wall time** - the warm-cache evaluation, plus ``wall_rel``: wall
  time divided by a fixed GEMM calibration probe run on the same
  machine, so the committed baseline survives CI-runner hardware drift
  (absolute seconds are reported but only the ratio is gated);
* **counter totals** - the cold-cache :mod:`repro.obs` event counters,
  which are deterministic functions of the workload and compared
  *exactly* (integers) or to ``counter_rtol`` (float counters);
* **modeled cost** - the :mod:`repro.obs.cost` roofline report
  (modeled flops/bytes, achieved GFLOP/s).

The counters come from a cold-cache instrumented run and the wall time
from a second, warm run of the same evaluation - so counter budgets stay
comparable with ``tests/regression`` and timings exclude one-time
compile/pool-start costs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs.cost import cost_report

#: schema tag of the ledger document
BENCH_SCHEMA = "repro.bench/1"

#: default committed baseline filename (repo root in CI)
BASELINE_NAME = "BENCH_baseline.json"

#: fraction of wall_rel drift tolerated before the gate trips
DEFAULT_WALL_THRESHOLD = 0.10

#: relative tolerance on float-valued counters (and energies)
DEFAULT_COUNTER_RTOL = 1e-6

#: case name -> (molecule, evaluator kwargs); every case is one theta = 0
#: energy evaluation, cold-cache instrumented then warm-timed
_CASES: dict[str, tuple[str, dict]] = {
    "h2_sv_direct": ("h2", {"simulator": "statevector"}),
    "h2_mps_sweep": ("h2", {"simulator": "mps", "measurement": "sweep"}),
    "h2_mps_mpo": ("h2", {"simulator": "mps", "measurement": "mpo"}),
    "h2_threelevel_w1": ("h2", {"simulator": "statevector",
                                "parallel": "process", "n_workers": 1}),
    "h2_threelevel_w2": ("h2", {"simulator": "statevector",
                                "parallel": "process", "n_workers": 2}),
    "h2_threelevel_w4": ("h2", {"simulator": "statevector",
                                "parallel": "process", "n_workers": 4}),
    "lih_mps_sweep": ("lih", {"simulator": "mps", "measurement": "sweep"}),
    "lih_mps_mpo": ("lih", {"simulator": "mps", "measurement": "mpo"}),
}

#: process-parallel MPS measurement cases: a pinned random D=32 state
#: (theta = 0 reference states are product states, so their sweep GEMMs
#: are trivial) measured through the level-2 shared-transport dispatch;
#: name -> (n_qubits, bond_dimension, seed, executor kwargs)
_MPS_PARALLEL_CASES: dict[str, tuple[int, int, int, dict]] = {
    "lih_mps_proc_sweep_w1": (12, 32, 7, {"executor": "process",
                                          "workers": 1, "mode": "sweep"}),
    "lih_mps_proc_sweep_w2": (12, 32, 7, {"executor": "process",
                                          "workers": 2, "mode": "sweep"}),
    "lih_mps_proc_sweep_w4": (12, 32, 7, {"executor": "process",
                                          "workers": 4, "mode": "sweep"}),
    "lih_mps_proc_mpo_w2": (12, 32, 7, {"executor": "process",
                                        "workers": 2, "mode": "mpo"}),
}

#: adjoint-gradient cases: one analytic gradient of the UCCSD ansatz at
#: theta = 0 - all P partials from a single forward + backward sweep
#: (see :mod:`repro.vqe.gradients`); name -> (molecule, evaluator kwargs)
_GRADIENT_CASES: dict[str, tuple[str, dict]] = {
    "lih_adjoint_grad": ("lih", {"simulator": "mps",
                                 "max_bond_dimension": 16}),
}

#: job-service cases: a fixed request mix pushed through a fresh
#: :class:`repro.serve.JobService`; name -> (cache bytes, request dicts).
#: The workload repeats specs on purpose - the deterministic cache
#: hit/miss totals (result: 5 hits / 3 misses, system: 2/1 for the
#: 8-request mix) are what the counters gate.
_SERVE_CASES: dict[str, tuple[int, tuple[dict, ...]]] = {
    "serve_throughput": (64 << 20, (
        {"kind": "energy", "molecule": "h2", "method": "hf"},
        {"kind": "energy", "molecule": "h2", "method": "fci"},
        {"kind": "vqe", "molecule": "h2", "simulator": "fast"},
        {"kind": "energy", "molecule": "h2", "method": "hf"},
        {"kind": "energy", "molecule": "h2", "method": "fci"},
        {"kind": "vqe", "molecule": "h2", "simulator": "fast"},
        {"kind": "energy", "molecule": "h2", "method": "hf"},
        {"kind": "vqe", "molecule": "h2", "simulator": "fast"},
    )),
}

#: the CI-friendly subset (seconds, not minutes, on one core)
_QUICK_CASES = ("h2_sv_direct", "h2_mps_sweep", "h2_mps_mpo",
                "h2_threelevel_w1", "h2_threelevel_w2",
                "lih_mps_proc_sweep_w1", "lih_mps_proc_sweep_w2",
                "serve_throughput")


#: pinned process-parallel speedup acceptance (w1 sweep vs w4 sweep)
MPS_SPEEDUP_TARGET = 1.5
MPS_SPEEDUP_CASES = ("lih_mps_proc_sweep_w1", "lih_mps_proc_sweep_w4")

#: pinned adjoint-gradient acceptance: energy-evaluation-equivalents per
#: optimizer step must undercut gate-wise parameter shift by this factor
ADJOINT_EVAL_RATIO_TARGET = 5.0
ADJOINT_RATIO_CASE = "lih_adjoint_grad"

def _known_cases() -> list[str]:
    """All case names: evaluator, MPS-parallel, gradient, serve."""
    return (list(_CASES) + list(_MPS_PARALLEL_CASES)
            + list(_GRADIENT_CASES) + list(_SERVE_CASES))


def available_cores() -> int:
    """Cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def mps_speedup(doc: dict) -> tuple[float | None, bool]:
    """``(speedup, enforceable)`` for the pinned MPS parallel pair.

    ``speedup`` is ``wall_s(w1) / wall_s(w4)`` of the pinned
    process-parallel sweep cases, or None when either case is absent
    from the ledger.  The >= :data:`MPS_SPEEDUP_TARGET` gate is only
    *enforceable* when the machine can actually run the four workers
    concurrently: on a single-core runner every process shares one core
    and the wall-clock ratio is physically capped near 1.0 no matter how
    good the transport layer is, so the gate reports but does not trip.
    """
    cases = doc.get("cases", {})
    try:
        w1 = cases[MPS_SPEEDUP_CASES[0]]["wall_s"]
        w4 = cases[MPS_SPEEDUP_CASES[1]]["wall_s"]
    except KeyError:
        return None, False
    return w1 / w4, available_cores() >= 4


def adjoint_eval_ratio(doc: dict) -> float | None:
    """Eval-equivalents advantage of the pinned adjoint-gradient case.

    The ratio ``param_shift_eval_equivalents / adjoint_eval_equivalents``
    recorded by :data:`ADJOINT_RATIO_CASE` - how many fewer
    energy-evaluation-equivalents one adjoint gradient costs per
    optimizer step than gate-wise parameter shift (2 per parametric
    gate).  A pure function of the circuit, so unlike the wall-clock
    speedup gates it is always enforceable.  None when the case is
    absent from the ledger.
    """
    record = doc.get("cases", {}).get(ADJOINT_RATIO_CASE)
    if record is None:
        return None
    return record.get("eval_equivalents_ratio")


# molecule name -> (hamiltonian, ansatz circuit); built once per run
_SYSTEMS: dict[str, tuple] = {}


def _system(molecule: str):
    """Hamiltonian + UCCSD ansatz for one reference molecule (cached)."""
    hit = _SYSTEMS.get(molecule)
    if hit is not None:
        return hit
    from repro.chem import geometry, mo as momod
    from repro.chem.scf import RHF
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.operators.molecular import molecular_qubit_hamiltonian

    geom = {"h2": lambda: geometry.h2(0.7414),
            "lih": geometry.lih}[molecule]()
    rhf = RHF(geom, "sto-3g")
    scf = rhf.run()
    momod.attach_eri(scf, rhf.engine.eri())
    mo = momod.from_scf(scf)
    ham = molecular_qubit_hamiltonian(mo)
    ansatz = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    _SYSTEMS[molecule] = (ham, ansatz)
    return _SYSTEMS[molecule]


def _clear_caches() -> None:
    """Cold caches: counter totals must match the regression budgets."""
    from repro.common import cache

    cache.current().clear()


def calibration_probe(repeat: int = 5) -> float:
    """Seconds for a fixed 192x192 complex GEMM (best of ``repeat``).

    The probe normalizes wall times across machines: ``wall_rel =
    wall_s / calibration_s`` is roughly hardware-independent for the
    BLAS-bound evaluations the suite times, so a baseline committed from
    one machine still gates CI runners of a different speed.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    (a @ b)  # warm the BLAS dispatch once
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(8):
            a @ b
        best = min(best, time.perf_counter() - t0)
    return best


def _run_mps_parallel_case(name: str) -> dict:
    """One grouped MPS measurement on a pinned random state.

    Times ``GroupedObservable.expectation_mps`` against the LiH
    Hamiltonian through the named executor - the workload behind the
    state-transport speedup target (the ``w4`` sweep case is the pinned
    >1.5x acceptance of the StateTransport PR).  Cold instrumented run
    first, then a warm timed run on the same live worker pool.
    """
    from repro.parallel.executor import GroupedObservable, resolve_executor
    from repro.simulators.mps import MPS

    n_qubits, bond_dimension, seed, spec = _MPS_PARALLEL_CASES[name]
    ham, _ = _system("lih")
    state = MPS.random_state(n_qubits, bond_dimension=bond_dimension,
                             seed=seed)
    grouped = GroupedObservable(ham, n_qubits)
    _clear_caches()
    executor = resolve_executor(spec["executor"], spec["workers"])
    try:
        with obs.collect() as reg:
            energy = grouped.expectation_mps(state, executor,
                                             mode=spec["mode"])
            snap = reg.snapshot()
        # best-of-3 warm runs: process dispatch latency is noisy on
        # shared CI cores, and the speedup report divides these walls
        wall_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            energy_warm = grouped.expectation_mps(state, executor,
                                                  mode=spec["mode"])
            wall_s = min(wall_s, time.perf_counter() - t0)
            if abs(energy_warm - energy) > 1e-12:
                raise AssertionError(
                    f"{name}: warm re-evaluation drifted "
                    f"({energy_warm!r} vs {energy!r})"
                )
    finally:
        executor.close()
    counters = {
        metric: float(sum(slot["value"] for slot in inst["values"]))
        for metric, inst in snap.items() if inst["type"] == "counter"
    }
    return {
        "molecule": "lih",
        "energy": energy,
        "workers": spec["workers"],
        "wall_s": wall_s,
        # pool scheduling on an oversubscribed runner swings these walls
        # well past any useful threshold; counters and energy still gate
        # exactly, and mps_speedup() reports the w1/w4 ratio
        "wall_gated": False,
        "counters": counters,
        "cost": cost_report(snap, wall_s=wall_s),
    }


def _run_gradient_case(name: str) -> dict:
    """One adjoint gradient of the pinned ansatz at theta = 0.

    Times :func:`repro.vqe.gradients.adjoint_gradient` - the single
    forward + backward sweep returning every partial derivative - and
    records the eval-equivalents comparison against gate-wise parameter
    shift (2 energy evaluations per parametric gate), the pinned
    >= :data:`ADJOINT_EVAL_RATIO_TARGET` acceptance of the adjoint
    gradient engine.  Cold instrumented run first, then a warm timed
    re-run that must reproduce the gradient bitwise - on a second
    evaluator, so that it runs its own forward pass like the counted one
    instead of finding the first one's prepared state.
    """
    from repro.vqe.energy import EnergyEvaluator
    from repro.vqe.gradients import adjoint_gradient, n_parametric_gates

    molecule, kwargs = _GRADIENT_CASES[name]
    ham, ansatz = _system(molecule)
    theta = np.zeros(ansatz.n_parameters)
    _clear_caches()
    with EnergyEvaluator(ham, ansatz, **kwargs) as evaluator:
        with obs.collect() as reg:
            grad = adjoint_gradient(evaluator, theta)
            snap = reg.snapshot()
    with EnergyEvaluator(ham, ansatz, **kwargs) as evaluator:
        t0 = time.perf_counter()
        grad_warm = adjoint_gradient(evaluator, theta)
        wall_s = time.perf_counter() - t0
    if float(np.max(np.abs(grad_warm - grad))) > 0.0:
        raise AssertionError(
            f"{name}: warm gradient re-evaluation drifted"
        )
    counters = {
        metric: float(sum(slot["value"] for slot in inst["values"]))
        for metric, inst in snap.items() if inst["type"] == "counter"
    }
    n_gates = n_parametric_gates(ansatz)
    # what the cold gradient counted: it had to run the forward pass itself
    equivalents = int(counters["grad.eval_equivalents"])
    return {
        "molecule": molecule,
        # the ledger gates one scalar per case; for gradient cases that
        # is the gradient 2-norm (deterministic, rtol-compared)
        "energy": float(np.linalg.norm(grad)),
        "wall_s": wall_s,
        # the backward sweep is python-dispatch-bound (thousands of tiny
        # gate GEMMs), so wall_rel does not transfer across machines;
        # counters and the eval-equivalents ratio gate instead
        "wall_gated": False,
        "n_parameters": int(ansatz.n_parameters),
        "n_parametric_gates": n_gates,
        "adjoint_eval_equivalents": equivalents,
        "param_shift_eval_equivalents": 2 * n_gates,
        "eval_equivalents_ratio": (2.0 * n_gates) / equivalents,
        "counters": counters,
        "cost": cost_report(snap, wall_s=wall_s),
    }


def _run_serve_case(name: str) -> dict:
    """One fixed request mix through a fresh in-process job service.

    Submits the pinned workload to a :class:`repro.serve.JobService`
    (per-request metric collection off; one outer ``obs.collect()``
    captures the whole run instead) and records the serve-layer event
    counters - ``serve.jobs``, ``serve.cache.{hits,misses,evictions}``,
    ``serve.result_cache_hits`` - which are pure functions of the
    workload's spec multiset and gate exactly.  The ledger energy is the
    sum of all served energies (every computation is deterministic);
    ``throughput_jobs_per_s`` and the scheduler walls are reported but
    not gated (daemon thread wakeups are scheduler noise on shared
    runners).
    """
    from repro.serve import JobService

    cache_bytes, workload = _SERVE_CASES[name]
    _clear_caches()
    with obs.collect() as reg:
        with JobService(max_cache_bytes=cache_bytes,
                        observe=False) as service:
            job_ids = [service.submit(dict(spec)) for spec in workload]
            service.wait(job_ids, timeout=600)
            results = [service.result(job_id) for job_id in job_ids]
            stats = service.stats()
        snap = reg.snapshot()
    counters = {
        metric: float(sum(slot["value"] for slot in inst["values"]))
        for metric, inst in snap.items() if inst["type"] == "counter"
    }
    wall_s = stats["busy_s"]
    return {
        "molecule": "h2",
        "energy": float(sum(r["energy"] for r in results)),
        "n_jobs": len(workload),
        "result_cache_hits": stats["jobs"]["result_cache_hits"],
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "throughput_jobs_per_s": stats["throughput_jobs_per_s"],
        "wall_s": wall_s,
        # scheduler wakeup latency dominates on loaded runners; the
        # deterministic serve counters and the summed energy gate instead
        "wall_gated": False,
        "counters": counters,
        "cost": cost_report(snap, wall_s=wall_s),
    }


def run_case(name: str) -> dict:
    """Run one pinned case; returns its ledger record."""
    if name in _MPS_PARALLEL_CASES:
        return _run_mps_parallel_case(name)
    if name in _GRADIENT_CASES:
        return _run_gradient_case(name)
    if name in _SERVE_CASES:
        return _run_serve_case(name)
    molecule, kwargs = _CASES[name]
    ham, ansatz = _system(molecule)
    from repro.vqe.energy import EnergyEvaluator

    theta = np.zeros(ansatz.n_parameters)
    _clear_caches()
    evaluator = EnergyEvaluator(ham, ansatz, **kwargs)
    # an MPS evaluator would serve a second energy(theta) from the state
    # it has prepared; the ledger times a whole evaluation
    timed = EnergyEvaluator(ham, ansatz, **kwargs) \
        if evaluator.shares_prepared_state else evaluator
    try:
        with obs.collect() as reg:
            energy = evaluator.energy(theta)
            snap = reg.snapshot()
        t0 = time.perf_counter()
        energy_warm = timed.energy(theta)
        wall_s = time.perf_counter() - t0
    finally:
        evaluator.close()
        timed.close()
    if abs(energy_warm - energy) > 1e-12:
        raise AssertionError(
            f"{name}: warm re-evaluation drifted "
            f"({energy_warm!r} vs {energy!r})"
        )
    counters = {
        metric: float(sum(slot["value"] for slot in inst["values"]))
        for metric, inst in snap.items() if inst["type"] == "counter"
    }
    return {
        "molecule": molecule,
        "energy": energy,
        "wall_s": wall_s,
        "counters": counters,
        "cost": cost_report(snap, wall_s=wall_s),
    }


def run_suite(quick: bool = False, cases: list[str] | None = None) -> dict:
    """Run the pinned suite; returns the ledger document."""
    subset = quick or cases is not None
    if cases is None:
        cases = list(_QUICK_CASES) if quick else _known_cases()
    known = _known_cases()
    unknown = [c for c in cases if c not in known]
    if unknown:
        raise ValueError(f"unknown bench cases {unknown}; "
                         f"known: {sorted(known)}")
    calibration_s = calibration_probe()
    doc: dict = {
        "schema": BENCH_SCHEMA,
        "date": datetime.date.today().isoformat(),
        # "quick" marks any subset run (--quick or --case): against a
        # full baseline only the cases present are gated
        "quick": bool(subset),
        "calibration_s": calibration_s,
        "cases": {},
    }
    for name in cases:
        record = run_case(name)
        record["wall_rel"] = record["wall_s"] / calibration_s
        doc["cases"][name] = record
    return doc


def write_ledger(doc: dict, path: str | Path) -> Path:
    """Write one ledger document (validated first); returns the path."""
    validate_ledger(doc)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def validate_ledger(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed ledger."""
    if not isinstance(doc, dict):
        raise ValueError("ledger must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unknown ledger schema {doc.get('schema')!r}; "
            f"expected {BENCH_SCHEMA}"
        )
    cases = doc.get("cases")
    if not isinstance(cases, dict) or not cases:
        raise ValueError("'cases' must be a non-empty object")
    for name, record in cases.items():
        for field in ("energy", "wall_s", "counters", "cost"):
            if field not in record:
                raise ValueError(f"case {name!r} missing field {field!r}")
        if not isinstance(record["counters"], dict):
            raise ValueError(f"case {name!r} counters must be an object")
        for metric, value in record["counters"].items():
            if not isinstance(value, (int, float)):
                raise ValueError(
                    f"case {name!r} counter {metric!r} is not a number"
                )
        if record["cost"].get("schema") != "repro.cost/1":
            raise ValueError(f"case {name!r} has a malformed cost report")


def compare_ledgers(current: dict, baseline: dict, *,
                    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
                    counter_rtol: float = DEFAULT_COUNTER_RTOL,
                    check_wall: bool = True) -> list[str]:
    """Regressions of ``current`` against ``baseline`` (empty = clean).

    Counter totals are pure functions of the workload: integer-valued
    baselines must match exactly, float-valued ones to ``counter_rtol``
    (energies likewise).  Wall time is gated on ``wall_rel`` (the
    calibration-normalized ratio) when both documents carry it, raw
    ``wall_s`` otherwise, tripping beyond ``wall_threshold``; a baseline
    record carrying ``"wall_gated": false`` (the process-parallel MPS
    cases, whose dispatch latency is scheduler noise on shared runners)
    is reported but never wall-gated.
    """
    problems: list[str] = []
    for name, base in baseline.get("cases", {}).items():
        cur = current.get("cases", {}).get(name)
        if cur is None:
            if current.get("quick") and not baseline.get("quick"):
                continue  # quick run vs full baseline: gate the subset
            problems.append(f"{name}: case missing from current run")
            continue
        for metric, expect in base.get("counters", {}).items():
            got = cur.get("counters", {}).get(metric)
            if got is None:
                problems.append(f"{name}: counter {metric} disappeared "
                                f"(baseline {expect})")
            elif float(expect).is_integer():
                if got != expect:
                    problems.append(
                        f"{name}: counter {metric} changed "
                        f"{expect:g} -> {got:g}")
            elif not np.isclose(got, expect, rtol=counter_rtol, atol=0.0):
                problems.append(
                    f"{name}: counter {metric} drifted "
                    f"{expect:g} -> {got:g} (rtol {counter_rtol:g})")
        if not np.isclose(cur["energy"], base["energy"],
                          rtol=counter_rtol, atol=1e-12):
            problems.append(
                f"{name}: energy drifted {base['energy']!r} -> "
                f"{cur['energy']!r}")
        if check_wall and base.get("wall_gated", True):
            key = ("wall_rel" if "wall_rel" in base and "wall_rel" in cur
                   else "wall_s")
            allowed = base[key] * (1.0 + wall_threshold)
            if cur[key] > allowed:
                problems.append(
                    f"{name}: {key} regressed {base[key]:.3f} -> "
                    f"{cur[key]:.3f} (> +{wall_threshold:.0%})")
    return problems


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench flags to ``parser`` (shared with ``-m repro``)."""
    parser.add_argument("--quick", action="store_true",
                        help="CI subset (small, seconds-scale cases)")
    parser.add_argument("--case", action="append", dest="cases",
                        metavar="NAME",
                        help=f"run one named case (repeatable); "
                             f"known: {', '.join(sorted(_known_cases()))}")
    parser.add_argument("--out", default=None,
                        help="ledger output path (default: "
                             "./BENCH_<date>.json)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline ledger to gate against (default: "
                             f"./{BASELINE_NAME} when present)")
    parser.add_argument("--wall-threshold", type=float,
                        default=DEFAULT_WALL_THRESHOLD,
                        help="tolerated fractional wall_rel drift "
                             "(default 0.10)")
    parser.add_argument("--no-wall-check", action="store_true",
                        help="gate on counters/energies only")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"also (re)write ./{BASELINE_NAME}")


def run_cli(args: argparse.Namespace) -> int:
    """Run the suite + gate for one parsed flag namespace."""
    doc = run_suite(quick=args.quick, cases=args.cases)
    out = Path(args.out) if args.out else \
        Path.cwd() / f"BENCH_{doc['date']}.json"
    write_ledger(doc, out)
    print(f"wrote {out} ({len(doc['cases'])} cases, "
          f"calibration {doc['calibration_s'] * 1e3:.2f} ms)")
    for name, record in doc["cases"].items():
        cost = record["cost"]
        gflops = cost.get("achieved_gflops", 0.0)
        print(f"  {name:<20} wall {record['wall_s'] * 1e3:8.2f} ms  "
              f"rel {record['wall_rel']:8.2f}  "
              f"modeled {cost['totals']['flops'] / 1e6:9.2f} Mflop  "
              f"achieved {gflops:6.2f} GF/s")
    speedup, enforceable = mps_speedup(doc)
    if speedup is not None:
        met = speedup >= MPS_SPEEDUP_TARGET
        note = ("ok" if met else "below target") + \
            ("" if enforceable
             else f" [not enforced: {available_cores()} core(s)]")
        print(f"  mps process speedup w1->w4: {speedup:.2f}x "
              f"(target {MPS_SPEEDUP_TARGET:.1f}x, {note})")
        if enforceable and not met:
            print("PERF REGRESSION: process-parallel MPS sweep speedup "
                  "below target")
            return 2
    ratio = adjoint_eval_ratio(doc)
    if ratio is not None:
        met = ratio >= ADJOINT_EVAL_RATIO_TARGET
        print(f"  adjoint vs parameter-shift eval-equivalents: "
              f"{ratio:.1f}x fewer per step "
              f"(target {ADJOINT_EVAL_RATIO_TARGET:.1f}x, "
              f"{'ok' if met else 'below target'})")
        if not met:
            print("PERF REGRESSION: adjoint gradient eval-equivalents "
                  "advantage below target")
            return 2
    if args.write_baseline:
        base_path = Path.cwd() / BASELINE_NAME
        write_ledger(doc, base_path)
        print(f"wrote {base_path}")

    baseline_path = Path(args.baseline) if args.baseline else \
        Path.cwd() / BASELINE_NAME
    if not baseline_path.exists():
        if args.baseline:
            print(f"baseline {baseline_path} not found")
            return 1
        print(f"no {BASELINE_NAME} present; skipping the regression gate")
        return 0
    baseline = json.loads(baseline_path.read_text())
    validate_ledger(baseline)
    problems = compare_ledgers(doc, baseline,
                               wall_threshold=args.wall_threshold,
                               check_wall=not args.no_wall_check)
    if problems:
        print(f"PERF REGRESSION vs {baseline_path}:")
        for p in problems:
            print(f"  - {p}")
        from repro.obs.attribution import (attribute_regression,
                                           format_attribution)
        text = format_attribution(attribute_regression(doc, baseline))
        if text:
            print(text)
        return 2
    print(f"no regressions vs {baseline_path}")
    return 0


def cli(argv: list[str] | None = None) -> int:
    """Standalone ``python -m repro.obs.bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the pinned performance suite and gate against "
                    "the committed baseline ledger")
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


__all__ = [
    "ADJOINT_EVAL_RATIO_TARGET",
    "ADJOINT_RATIO_CASE",
    "BENCH_SCHEMA",
    "BASELINE_NAME",
    "MPS_SPEEDUP_CASES",
    "MPS_SPEEDUP_TARGET",
    "add_arguments",
    "adjoint_eval_ratio",
    "available_cores",
    "calibration_probe",
    "cli",
    "compare_ledgers",
    "mps_speedup",
    "run_case",
    "run_cli",
    "run_suite",
    "validate_ledger",
    "write_ledger",
]


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(cli())
