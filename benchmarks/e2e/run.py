#!/usr/bin/env python3
"""End-to-end benchmark of the repro package: five workloads, per-layer table.

Driver contract (one workload, one run; what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload h2_vqe --seed 11 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` - the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite (all workloads round-robin, then a traced pass, one document)::

    python3 benchmarks/e2e/run.py --seed 11 --out results.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --regen-reference

Run discipline: every timed repetition is a fresh child process (cold
module caches - what a CLI user pays; peak RSS per repetition for free),
a run holds at least four of them and reports the fastest, BLAS is pinned
to one thread in the children, and the oracle that checks the children's
energies runs in this process after the clock has stopped.  See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(HERE))

SCHEMA = "repro.bench.e2e/1"

#: one BLAS thread: on <=32x32 matrices threaded BLAS only buys noise
#: (H4 VQE: 15.9-18.0 s wall / 20.3-22.6 s CPU threaded, 13.9-16.3 s
#: wall = CPU pinned); a fixed hash seed keeps set/dict orders - and with
#: them every count - identical from run to run
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: repetitions per run: at least MIN_REPS however long they take, then
#: more while they fit ``--seconds``, capped so that H2-sized inputs
#: cannot spawn hundreds
MIN_REPS = 4
MAX_REPS = 12
#: a child that has not finished by then is killed with its workers
CHILD_TIMEOUT_S = 150
#: prefix of the one result line a child prints
MARK = "@@e2e-child@@ "

#: (name, unit) - all lower-is-better; bounds live in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))
#: how a run reduces its repetitions.  A neighbour on this shared host
#: can only add time, in bursts that outlast a repetition, so the timed
#: metrics report the fastest repetition ("Noise floor" in README.md);
#: set-up and memory report the median
REDUCE = {"setup_s": statistics.median, "wall_s": min, "cpu_s": min,
          "peak_rss_mb": statistics.median}

#: (name, unit, better) in the order of the README's layer table
PER_LAYER = (
    ("chem.prepare_s", "s", "lower"),
    ("chem.prepare_calls", "count", "lower"),
    ("chem.fci_s", "s", "lower"),
    ("chem.ccsd_s", "s", "lower"),
    ("operators.map_s", "s", "lower"),
    ("operators.map_calls", "count", "lower"),
    ("operators.terms", "count", "lower"),
    ("circuits.build_s", "s", "lower"),
    ("circuits.bind_fuse_s", "s", "lower"),
    ("circuits.gates_2q", "count", "lower"),
    ("circuits.swaps", "count", "lower"),
    ("simulators.evolve_s", "s", "lower"),
    ("simulators.evolve_calls", "count", "lower"),
    ("simulators.svds", "count", "lower"),
    ("simulators.us_per_gate", "us", "lower"),
    ("simulators.max_bond", "count", "lower"),
    ("simulators.discarded_weight", "ratio", "lower"),
    ("simulators.routing_hit_rate", "ratio", "higher"),
    ("simulators.plan_hit_rate", "ratio", "higher"),
    ("simulators.measure_s", "s", "lower"),
    ("simulators.measure_calls", "count", "lower"),
    ("simulators.measure_gemms", "count", "lower"),
    ("simulators.mpo_compiles", "count", "lower"),
    ("simulators.fast_s", "s", "lower"),
    ("simulators.fast_calls", "count", "lower"),
    ("vqe.energy_s", "s", "lower"),
    ("vqe.energy_calls", "count", "lower"),
    ("vqe.grad_s", "s", "lower"),
    ("vqe.grad_calls", "count", "lower"),
    ("vqe.grad_eval_equiv", "ratio", "lower"),
    ("vqe.rdm_s", "s", "lower"),
    ("vqe.opt_iters", "count", "lower"),
    ("vqe.opt_self_s", "s", "lower"),
    ("vqe.energy_err_ha", "Ha", "lower"),
    ("dmet.embed_s", "s", "lower"),
    ("dmet.solve_s", "s", "lower"),
    ("dmet.self_s", "s", "lower"),
    ("dmet.mu_iters", "count", "lower"),
    ("dmet.fragment_solves", "count", "lower"),
    ("parallel.dispatch_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.serial_wall_s", "s", "lower"),
    ("parallel.speedup_w2", "ratio", "higher"),
    ("parallel.efficiency_w2", "ratio", "higher"),
    ("serve.busy_s", "s", "lower"),
    ("serve.overhead_s", "s", "lower"),
    ("serve.job_p50_s", "s", "lower"),
    ("serve.job_max_s", "s", "lower"),
    ("serve.hit_ms", "ms", "lower"),
    ("serve.result_hit_rate", "ratio", "higher"),
    ("serve.system_hit_rate", "ratio", "higher"),
    ("serve.cache_bytes", "bytes", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.replay_s", "s", "lower"),
    ("unattributed_frac", "ratio", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("check.oracle_s", "s", "lower"),
)

#: per-layer metric <- (``repro.obs`` counter, label filter), summed over
#: the matching slots of the traced child's registry snapshot
OBS_COUNTS = {
    "circuits.gates_2q": ("mps.gate_2q", {}),
    "circuits.swaps": ("mps.swap", {}),
    "simulators.svds": ("mps.svd", {}),
    "simulators.max_bond": ("mps.max_bond_dimension", {}),
    "simulators.discarded_weight": ("mps.discarded_weight", {}),
    "simulators.measure_gemms": ("mps_measure.gemm_calls", {}),
    "simulators.mpo_compiles": ("mps_measure.mpo_cache",
                                {"outcome": "miss"}),
    "routing_hits": ("mps.routing_plan.hits", {}),
    "routing_requests": ("mps.routing_plan.requests", {}),
    "plan_hits": ("kernels.plan_cache", {"outcome": "hit"}),
    "plan_misses": ("kernels.plan_cache", {"outcome": "miss"}),
    "dmet.mu_iters": ("dmet.mu_iterations", {}),
    "dmet.fragment_solves": ("dmet.fragment_solves", {}),
    "parallel.tasks": ("parallel.tasks", {"level": "fragments"}),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# -- the child: one repetition in a fresh process ----------------------------


def _rusage() -> tuple[float, float]:
    """(user+sys CPU seconds, peak RSS in MiB), joined workers included.

    CPU adds this process and its workers; the peak is the larger of the
    two, not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(r.ru_utime + r.ru_stime for r in (own, workers))
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0  # KiB


def _time_pool_start() -> float:
    """Start, use once and join a 2-worker process pool (public API)."""
    from repro.parallel import resolve_executor

    start = time.perf_counter()
    with resolve_executor("process", 2) as pool:
        pool.map(abs, [0, 1])
    return time.perf_counter() - start


def child_main(args) -> int:
    """Set up, run the workload's timed region once, print the result."""
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (import weight is part of setup_s)
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.smoke, load_reference())
    setup_s = time.time() - args.spawned_at

    recorder = None
    collect = nullcontext()
    if args.trace:
        import tracing
        from repro import obs

        recorder = tracing.SpanRecorder(
            run_id=f"{args.workload}/{args.variant}/{args.seed}")
        tracing.install(recorder)
        collect = obs.collect()
    region: dict = {}

    @contextmanager
    def timed():
        root = recorder.root() if recorder else nullcontext()
        cpu0, start = _rusage()[0], time.perf_counter()
        try:
            with root:
                yield
        finally:
            region["wall_s"] = time.perf_counter() - start
            region["cpu_s"] = _rusage()[0] - cpu0

    with collect:
        outputs = workload.run(inputs, timed, args.variant)
        result = {"setup_s": setup_s, **region,
                  "peak_rss_mb": _rusage()[1], "outputs": outputs}
        if recorder is not None:
            metrics = obs.snapshot()["metrics"]
            counted = {key: tracing.counter_total(metrics, name, **labels)
                       for key, (name, labels) in OBS_COUNTS.items()}
            result["trace"] = {
                "run_id": recorder.run_id,
                **tracing.summarise(recorder.spans),
                "counts": dict(recorder.counts), "obs": counted,
                "pool_start_s": _time_pool_start()
                if counted["parallel.tasks"] else 0.0,
            }
            if args.emit_spans:
                result["trace"]["spans"] = tracing.span_dicts(recorder.spans)
    if args.inject_error:
        wrong = outputs["jobs"][0] if "jobs" in outputs else outputs
        wrong["energy"] += 1e-3
    print(MARK + json.dumps(result))
    return 0


# -- the runner ---------------------------------------------------------------


def spawn(workload: str, seed: int, *, trace: bool = False,
          variant: str = "main", smoke: bool = False,
          inject_error: bool = False, emit_spans: bool = False) -> dict:
    """Run one child to completion and return the result it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--variant", variant]
    for flag, on in (("--smoke", smoke), ("--inject-error", inject_error),
                     ("--emit-spans", emit_spans)):
        if on:
            cmd.append(flag)
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, env={**os.environ, **PINNED_ENV},
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # the child leads its own session: take its pool workers with it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = [ln for ln in stdout.splitlines() if ln.startswith(MARK)]
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"child {workload}/{variant} exited with {proc.returncode} "
            f"and {'no' if not lines else 'a'} result line")
    return json.loads(lines[-1][len(MARK):])


def timed_reps(workload, seed: int, seconds: float, **options) -> list:
    """Fresh-child repetitions for ``seconds`` of this process's clock.

    Set-up counts: it is sampled in every child.  Another repetition is
    started while more than half of it still fits, so a run takes
    ``seconds`` give or take half a repetition.
    """
    start = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < MAX_REPS:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and \
                elapsed * (1.0 + 0.5 / len(reps)) > seconds:
            break
        reps.append(spawn(workload.name, seed, **options))
    return reps


def traced_pass(workload, seed: int, *, smoke: bool = False,
                emit_spans: bool = False) -> dict:
    """One traced child per variant: ``{"main": ..., "serial": ...}``."""
    return {variant: spawn(workload.name, seed, trace=True, variant=variant,
                           smoke=smoke, emit_spans=emit_spans)
            for variant in ("main",) + workload.variants}


def judge(workload, seed: int, smoke: bool, results: list) -> dict:
    """Check every result against the oracle (computed here, untimed)."""
    sys.path.insert(0, str(SRC))
    from workloads import REFERENCE_SEED, REFERENCE_TOL, load_reference

    reference = load_reference()
    inputs = workload.make_inputs(seed, smoke, reference)
    start = time.perf_counter()
    oracle = workload.oracle(inputs)
    oracle_s = time.perf_counter() - start
    attempted, failures, worst = 0, [], 0.0
    if seed == REFERENCE_SEED and not smoke:
        # the oracle is code too: at the reference seed it must reproduce
        # the committed values, or every operation of the run is suspect
        for key, value in reference["energies"][workload.name].items():
            if abs(oracle[key] - value) > REFERENCE_TOL:
                failures.append(f"oracle {key}={oracle[key]!r} drifted "
                                f"from reference.json ({value!r})")
    for result in results:
        n, failed, err = workload.check(inputs, result["outputs"], oracle)
        attempted += n
        failures += failed
        worst = max(worst, err)
    if workload.variants:
        energies = [r["outputs"]["energy"] for r in results]
        spread = max(energies) - min(energies)
        # COBYLA stopped at its budget turns last-digit differences between
        # a pool worker and the parent process into 1e-5 in the amplitudes,
        # and the DMET energy is first order in them: 2.2e-5 at worst over
        # nine seeds (runs to convergence agree to 2e-7)
        if spread > 1e-4:
            failures.append(f"serial and 2-worker energies differ by "
                            f"{spread:.2e} Ha")
    return {"attempted": attempted, "failed": min(len(failures), attempted),
            "failures": failures, "energy_err_ha": worst,
            "oracle_s": oracle_s, "oracle": scalars(oracle)}


def scalars(oracle: dict) -> dict:
    """The energies of an oracle (its arrays are not worth recording)."""
    return {k: v for k, v in oracle.items() if isinstance(v, float)}


def layer_metrics(traced: dict, untraced_wall_s: float, verdict: dict) -> dict:
    """The per-layer metrics of one traced pass, keyed as in PER_LAYER.

    In-process layer times come from the serial variant where there is
    one (``chain8_dmet_w2``: in the 2-worker run the fragment solves happen
    in pool workers, out of the wrappers' sight); counts and the
    ``parallel.*`` / ``serve.*`` numbers come from the main run.
    """
    main = traced["main"]
    trace = main["trace"]
    inproc = traced.get("serial", main)["trace"]
    names, obs = inproc["names"], trace["obs"]

    def busy(*spans):
        return sum(names.get(s, {}).get("busy_s", 0.0) for s in spans)

    def calls(span):
        return names.get(span, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {key: obs[key] for key in OBS_COUNTS if "." in key}
    gates = obs["circuits.gates_2q"] + obs["circuits.swaps"]
    evolve_s = inproc["layers"].get("simulators.evolve", 0.0)
    per_energy = ratio(busy("vqe.energy"), calls("vqe.energy"))
    per_grad = ratio(busy("vqe.grad"), calls("vqe.grad"))
    serial_wall = traced["serial"]["wall_s"] if "serial" in traced else 0.0
    speedup = ratio(serial_wall, main["wall_s"])
    out.update({
        "chem.prepare_s": busy("chem.prepare"),
        "chem.prepare_calls": calls("chem.prepare"),
        "chem.fci_s": busy("chem.fci"),
        "chem.ccsd_s": busy("chem.ccsd"),
        "operators.map_s": busy("operators.map"),
        "operators.map_calls": calls("operators.map"),
        "operators.terms": inproc["counts"].get("operators.terms", 0),
        "circuits.build_s": busy("circuits.build"),
        "circuits.bind_fuse_s": busy("circuits.bind", "circuits.fuse"),
        "simulators.evolve_s": evolve_s,
        "simulators.evolve_calls": calls("simulators.run"),
        "simulators.us_per_gate": ratio(1e6 * evolve_s, gates),
        "simulators.routing_hit_rate": ratio(obs["routing_hits"],
                                             obs["routing_requests"]),
        "simulators.plan_hit_rate": ratio(
            obs["plan_hits"], obs["plan_hits"] + obs["plan_misses"]),
        "simulators.measure_s": busy("simulators.expectation"),
        "simulators.measure_calls": calls("simulators.expectation"),
        "simulators.fast_s": busy("simulators.fast"),
        "simulators.fast_calls": calls("simulators.fast"),
        "vqe.energy_s": busy("vqe.energy"),
        "vqe.energy_calls": calls("vqe.energy"),
        "vqe.grad_s": busy("vqe.grad"),
        "vqe.grad_calls": calls("vqe.grad"),
        "vqe.grad_eval_equiv": ratio(per_grad, per_energy),
        "vqe.rdm_s": busy("vqe.rdm"),
        "vqe.opt_iters": inproc["counts"].get("vqe.opt_iters", 0),
        "vqe.opt_self_s": names.get("vqe.run", {}).get("self_s", 0.0),
        "vqe.energy_err_ha": verdict["energy_err_ha"],
        "dmet.embed_s": busy("dmet.embed"),
        "dmet.solve_s": busy("dmet.solve"),
        "dmet.self_s": inproc["layers"].get("dmet", 0.0),
        "parallel.dispatch_s": trace["names"].get(
            "parallel.dispatch", {}).get("busy_s", 0.0),
        "parallel.pool_start_s": trace["pool_start_s"],
        "parallel.serial_wall_s": serial_wall,
        "parallel.speedup_w2": speedup,
        "parallel.efficiency_w2": speedup / 2.0,
        "unattributed_frac": ratio(inproc["unattributed_s"],
                                   inproc["wall_s"]),
        "obs.trace_overhead_frac": main["wall_s"] / untraced_wall_s - 1.0,
        "check.oracle_s": verdict["oracle_s"],
    })
    out.update(_serve_metrics(main))
    return {name: float(out[name]) for name, _, _ in PER_LAYER}


def _serve_metrics(main: dict) -> dict:
    jobs = main["outputs"].get("jobs")
    if not jobs:
        return {name: 0.0 for name, _, _ in PER_LAYER
                if name.startswith("serve.")}
    stats = main["outputs"]["stats"]
    walls = [row["wall_s"] for row in jobs]
    hits = [row["wall_s"] for row in jobs if row["cache_hit"]]
    spaces = stats["cache"]["namespaces"]

    def hit_rate(space):
        tier = spaces.get(space, {"hits": 0, "misses": 0})
        total = tier["hits"] + tier["misses"]
        return tier["hits"] / total if total else 0.0

    return {
        "serve.busy_s": sum(walls),
        "serve.overhead_s": main["wall_s"] - sum(walls),
        "serve.job_p50_s": statistics.median(walls),
        "serve.job_max_s": max(walls),
        "serve.hit_ms": 1e3 * statistics.median(hits) if hits else 0.0,
        "serve.result_hit_rate": hit_rate("serve.result"),
        "serve.system_hit_rate": hit_rate("serve.system"),
        "serve.cache_bytes": stats["cache"]["bytes"],
        "serve.evictions": stats["cache"]["totals"]["evictions"],
        "serve.batches": stats["batches"],
        "serve.replay_s": main["outputs"]["replay_s"],
    }


def print_layers(rows: dict) -> None:
    for layer, row in rows.items():
        print(f"  layer {layer:20s} {row['self_s']:10.4f} s "
              f"{100 * row['share']:6.2f} %")


def layer_shares(traced: dict) -> dict:
    """Self time and share of the traced wall per layer, unattributed last."""
    inproc = traced.get("serial", traced["main"])["trace"]
    wall = inproc["wall_s"]
    rows = {layer: {"self_s": s, "share": s / wall}
            for layer, s in sorted(inproc["layers"].items())}
    rows["unattributed"] = {"self_s": inproc["unattributed_s"],
                            "share": inproc["unattributed_s"] / wall}
    return rows


def end_to_end(reps: list) -> dict:
    """Reported value, median, min, max and samples per end-to-end metric."""
    table = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in reps]
        table[name] = {"unit": unit, "value": REDUCE[name](values),
                       "median": statistics.median(values),
                       "min": min(values), "max": max(values),
                       "n": len(values), "values": values}
    return table


# -- driver mode: one workload, one JSON line ---------------------------------


def driver_main(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    options = {"smoke": args.smoke, "inject_error": args.inject_error}
    if args.trace:
        reps = [spawn(workload.name, args.seed, **options)]
        traced = traced_pass(workload, args.seed, smoke=args.smoke)
        verdict = judge(workload, args.seed, args.smoke,
                        reps + list(traced.values()))
        values = layer_metrics(traced, reps[0]["wall_s"], verdict)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print_layers(layer_shares(traced))
    else:
        reps = timed_reps(workload, args.seed, args.seconds, **options)
        verdict = judge(workload, args.seed, args.smoke, reps)
        table = end_to_end(reps)
        for name, row in table.items():
            print(f"  {name} of {row['n']} repetitions:",
                  " ".join(f"{v:.4f}" for v in row["values"]))
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in table.items()}
    for name, row in metrics.items():
        print(f"  {name:30s} {row['value']:14.6g} {row['unit']}")
    for text in verdict["failures"]:
        print(f"  FAILED {text}")
    correct = verdict["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if correct else 1


# -- suite mode: all workloads, one document ----------------------------------


def provenance(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": PINNED_ENV,
        "dont_write_bytecode": sys.dont_write_bytecode,
        "fresh_child_per_run": True, "order": "round-robin",
        "seed": args.seed, "repeats": args.repeats, "smoke": args.smoke,
    }


def suite_main(args) -> int:
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    reps: dict[str, list] = {name: [] for name in names}
    for round_no in range(args.repeats):
        for name in names:              # interleaved: drift hits all alike
            print(f"[{round_no + 1}/{args.repeats}] {name}", flush=True)
            reps[name].append(spawn(name, args.seed, smoke=args.smoke,
                                    inject_error=args.inject_error))
    doc = {"schema": SCHEMA, "provenance": None, "workloads": {}}
    spans: list[dict] = []
    for name in names:
        print(f"[traced] {name}", flush=True)
        workload = WORKLOADS[name]
        traced = traced_pass(workload, args.seed, smoke=args.smoke,
                             emit_spans=bool(args.trace_out))
        verdict = judge(workload, args.seed, args.smoke,
                        reps[name] + list(traced.values()))
        table = end_to_end(reps[name])
        doc["workloads"][name] = {
            "end_to_end": table,
            "attempted": verdict["attempted"], "failed": verdict["failed"],
            "fail_frac": verdict["failed"] / verdict["attempted"],
            "failures": verdict["failures"],
            "oracle": verdict["oracle"],
            "per_layer": layer_metrics(
                traced, table["wall_s"]["value"], verdict),
            "layers": layer_shares(traced),
        }
        for result in traced.values():
            spans += result["trace"].get("spans", [])
    doc["provenance"] = provenance(args)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace_out:
        from repro.obs.timeline import write_chrome_trace

        write_chrome_trace(args.trace_out, spans)
    print_document(doc)
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def print_document(doc: dict) -> None:
    units = dict(END_TO_END)
    for name, row in doc["workloads"].items():
        print(f"\n== {name}: {row['failed']}/{row['attempted']} operations "
              f"failed (fail_frac {row['fail_frac']:.3f} ratio)")
        for metric, cell in row["end_to_end"].items():
            print(f"  {metric:14s} {cell['value']:10.4f} {units[metric]:4s}"
                  f" (median {cell['median']:.4f}, min {cell['min']:.4f}, "
                  f"max {cell['max']:.4f}, n={cell['n']})")
        print_layers(row["layers"])
        for metric, unit, _ in PER_LAYER:
            value = row["per_layer"][metric]
            if value:
                print(f"  {metric:30s} {value:14.6g} {unit}")
        for text in row["failures"]:
            print(f"  FAILED {text}")


# -- compare ------------------------------------------------------------------


def compare_main(path_a: str, path_b: str) -> int:
    """Both values, relative difference and bound per workload x metric."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    bad = 0
    print(f"{'workload':16s} {'metric':12s} {'A':>10s} {'B':>10s} "
          f"{'B/A-1':>8s} {'bound':>6s}")
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"][name]
        for metric, cell in row_a["end_to_end"].items():
            val_a = cell["value"]
            val_b = row_b["end_to_end"][metric]["value"]
            rel = val_b / val_a - 1.0
            worse = rel > bounds[metric]
            bad += worse
            print(f"{name:16s} {metric:12s} {val_a:10.4f} {val_b:10.4f} "
                  f"{100 * rel:+7.2f}% {100 * bounds[metric]:5.0f}%"
                  f"{'  REGRESSION' if worse else ''}")
        rose = row_b["fail_frac"] > row_a["fail_frac"]
        bad += rose
        print(f"{name:16s} {'fail_frac':12s} {row_a['fail_frac']:10.4f} "
              f"{row_b['fail_frac']:10.4f}{'  ROSE' if rose else ''}")
        moved = [c for c in counts
                 if row_a["per_layer"][c] != row_b["per_layer"][c]]
        bad += bool(moved)
        for c in moved:
            print(f"{name:16s} count {c} differs: "
                  f"{row_a['per_layer'][c]:g} vs {row_b['per_layer'][c]:g}")
    print(f"{bad} finding(s)" if bad else "within every bound, fail_frac "
          "did not rise, every per-layer count identical")
    return 1 if bad else 0


# -- reference ----------------------------------------------------------------


def regen_reference() -> int:
    """Rebuild reference.json through the fast backend; never silently."""
    sys.path.insert(0, str(SRC))
    from workloads import (REFERENCE_PATH, REFERENCE_SEED, REFERENCE_TOL,
                           WORKLOADS, lih_job)

    # theta_ref is what is being computed: only the molecule is used here
    lih_inputs = WORKLOADS["lih_step"].make_inputs(
        REFERENCE_SEED, False, {"lih_theta_ref": []})
    ref = lih_job(lih_inputs).vqe_energy(simulator="fast",
                                         optimizer="l-bfgs-b")
    doc = {"schema": "repro.bench.e2e.reference/1", "seed": REFERENCE_SEED,
           "lih_e_ref": ref.energy,
           "lih_theta_ref": [float(t) for t in ref.parameters],
           "energies": {}}
    for name, workload in WORKLOADS.items():
        # nothing is committed in `doc` yet, so the serve oracle computes
        # its direct-call energies instead of looking them up
        values = scalars(workload.oracle(
            workload.make_inputs(REFERENCE_SEED, False, doc)))
        doc["energies"][name] = values
        print(name, json.dumps(values, indent=1))
    if REFERENCE_PATH.exists():
        old = json.loads(REFERENCE_PATH.read_text())
        pairs = [(f"{name}.{key}", value,
                  old["energies"].get(name, {}).get(key))
                 for name, values in doc["energies"].items()
                 for key, value in values.items()]
        pairs.append(("lih_e_ref", doc["lih_e_ref"], old.get("lih_e_ref")))
        moved = [(k, new, was) for k, new, was in pairs
                 if was is not None and abs(new - was) > REFERENCE_TOL]
        if moved:
            for key, new, was in moved:
                print(f"REFUSED: {key} is {new!r}, committed {was!r}")
            return 1
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: result document path")
    parser.add_argument("--repeats", type=int, default=8,
                        help="suite mode: timed runs per workload")
    parser.add_argument("--trace-out",
                        help="suite mode: Chrome trace of the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="H2-sized inputs (self-test)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--regen-reference", action="store_true")
    parser.add_argument("--inject-error", action="store_true",
                        help="self-test: report a wrong energy")
    for flag in ("--child", "--emit-spans"):
        parser.add_argument(flag, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--variant", default="main", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare_main(*args.compare)
    if not (SRC / "repro").is_dir():
        parser.exit(2, f"error: no package to measure under {SRC}\n")
    os.environ.update(PINNED_ENV)
    if args.child:
        return child_main(args)
    if args.regen_reference:
        return regen_reference()
    if args.repeats < 3 and not args.smoke:
        parser.error("--repeats must be at least 3")
    if args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        return driver_main(args)
    if not args.out:
        parser.error("give --workload NAME (one run) or --out FILE (suite)")
    return suite_main(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        sys.exit(f"error: {exc}")
