"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
energy      RHF / CCSD / FCI / VQE / DMET energies of a molecule
scaling     replay the paper's strong/weak scaling (Figs. 12-13)
info        system inventory: basis functions, qubits, Pauli strings
serve       run the in-process job service over a JSON request file

Examples
--------
    python -m repro energy --molecule h2 --method vqe
    python -m repro energy --molecule ring:6 --method dmet-vqe --fragment-atoms 2
    python -m repro energy --xyz geom.xyz --method fci
    python -m repro scaling --mode strong
    python -m repro info --molecule h2o

Performance is measured by ``python3 benchmarks/e2e/run.py``
(``--compare A B`` is the regression gate).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ReproError, ValidationError


def _build_molecule(args):
    from repro.chem import geometry

    if args.xyz:
        with open(args.xyz) as fh:
            return geometry.Molecule.from_xyz(fh.read(), charge=args.charge)
    return geometry.molecule_from_spec(args.molecule, bond=args.bond)


def cmd_energy(args) -> int:
    """Run the requested energy method and print the result."""
    tracing = bool(args.trace or args.trace_out)
    observing = bool(args.metrics_out or tracing)
    if observing:
        from repro import obs

        obs.reset()
        obs.enable(trace=tracing)
    try:
        return _run_energy(args)
    finally:
        if observing:
            if args.metrics_out:
                obs.write_json(args.metrics_out)
                print(f"metrics written to {args.metrics_out}")
            if args.trace_out:
                from repro.obs.timeline import write_chrome_trace

                write_chrome_trace(args.trace_out)
                print(f"chrome trace written to {args.trace_out}")
            obs.disable()


def _run_energy(args) -> int:
    from repro.q2chem import Q2Chemistry
    from repro.vqe.optimizers import DEFAULT_OPTIMIZER

    method = args.method.lower()
    if args.workers != 1 and not method.startswith("dmet"):
        raise ValidationError(
            f"--workers: worker processes apply to the DMET methods "
            f"(fragments are what runs on workers); --method {args.method} "
            f"runs in one process")
    molecule = _build_molecule(args)
    job = Q2Chemistry.from_molecule(molecule, basis=args.basis,
                                    frozen_core=args.frozen_core)
    print(f"{molecule.name or 'molecule'} / {args.basis}: "
          f"{molecule.n_electrons} electrons, "
          f"{job.mo_integrals.n_qubits} qubits")
    if method == "hf":
        print(f"E(RHF)  = {job.hartree_fock_energy():+.8f} Ha")
    elif method == "ccsd":
        print(f"E(CCSD) = {job.ccsd_energy():+.8f} Ha")
    elif method == "fci":
        print(f"E(FCI)  = {job.fci_energy():+.8f} Ha")
    elif method == "vqe":
        res = job.vqe_energy(simulator=args.simulator,
                             max_bond_dimension=args.bond_dimension,
                             optimizer=args.optimizer or DEFAULT_OPTIMIZER,
                             grad=args.grad,
                             max_iterations=args.max_iterations)
        print(f"E(VQE)  = {res.energy:+.8f} Ha "
              f"({res.n_evaluations} evaluations, "
              f"{res.n_gradient_evaluations} gradients, {res.optimizer})")
    elif method.startswith("dmet"):
        # dmet-vqe solves fragments on the backend chosen via --simulator
        solver = {"dmet": "fci", "dmet-fci": "fci",
                  "dmet-vqe": f"vqe-{args.simulator}"}.get(method)
        if solver is None:
            raise ReproError(f"unknown method {args.method!r}")
        if args.grad is not None:
            raise ValidationError(
                "--grad applies to --method vqe; the DMET fragment solver "
                "picks its own (adjoint gradients where --optimizer and "
                "--simulator allow them)")
        res = job.dmet_energy(atoms_per_group=args.fragment_atoms,
                              solver=solver,
                              max_bond_dimension=args.bond_dimension,
                              vqe_optimizer=(args.optimizer
                                             or DEFAULT_OPTIMIZER),
                              vqe_max_iterations=args.max_iterations,
                              n_workers=args.workers)
        print(f"E(DMET) = {res.energy:+.8f} Ha "
              f"(mu={res.chemical_potential:+.5f}, "
              f"{res.mu_iterations} mu iterations, "
              f"{len(res.orbits)} of {sum(map(len, res.orbits))} fragments "
              f"solved, max fragment {res.max_fragment_qubits()} qubits)")
    else:
        raise ReproError(f"unknown method {args.method!r}")
    return 0


def cmd_serve(args) -> int:
    """Run the in-process job service over a request file."""
    import json
    from pathlib import Path

    from repro.serve import DEFAULT_MAX_BYTES, JobService, JobSpec

    with open(args.requests) as fh:
        doc = json.load(fh)
    entries = doc["jobs"] if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise ReproError(
            f"request file {args.requests} must hold a non-empty JSON "
            f"list of job specs (or an object with a 'jobs' list)")
    specs = [JobSpec.from_dict(entry) for entry in entries]

    metrics_dir = None
    if args.metrics_out:
        metrics_dir = Path(args.metrics_out)
        metrics_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    with JobService(max_cache_bytes=args.cache_bytes or DEFAULT_MAX_BYTES,
                    observe=metrics_dir is not None,
                    trace=args.trace) as service:
        job_ids = [service.submit(spec) for spec in specs]
        for job_id in job_ids:
            print(f"submitted {job_id}")
        service.wait(job_ids, timeout=args.timeout)
        summaries = []
        for job_id in job_ids:
            record = service.record(job_id)
            summary = record.summary()
            summaries.append(summary)
            if record.status == "error":
                failures += 1
                print(f"{job_id} error   {record.spec.kind:<7}"
                      f"{record.spec.molecule:<8}"
                      f"({record.error_type}) {record.error}")
            else:
                hit = " [cache hit]" if record.cache_hit else ""
                print(f"{job_id} done    {record.spec.kind:<7}"
                      f"{record.spec.molecule:<8}"
                      f"E = {record.result['energy']:+.8f} Ha{hit}")
            if metrics_dir is not None and record.metrics is not None:
                path = metrics_dir / f"{job_id}.json"
                path.write_text(json.dumps(record.metrics, indent=2) + "\n")
                if args.trace and record.metrics.get("spans"):
                    from repro.obs.timeline import write_chrome_trace

                    write_chrome_trace(metrics_dir / f"{job_id}.trace.json",
                                       record.metrics)
        stats = service.stats()
        if args.results_out:
            Path(args.results_out).write_text(json.dumps(
                {"jobs": summaries, "stats": stats}, indent=2) + "\n")
    cache = stats["cache"]
    print(f"{stats['jobs']['done']} done, {failures} failed, "
          f"{stats['jobs']['result_cache_hits']} served from result cache "
          f"({stats['batches']} batches)")
    print(f"cache: {cache['totals']['hits']} hits / "
          f"{cache['totals']['misses']} misses "
          f"(rate {cache['hit_rate']:.2f}), "
          f"{cache['entries']} entries, {cache['bytes']:,} bytes")
    print(f"throughput: {stats['throughput_jobs_per_s']:.2f} jobs/s")
    if metrics_dir is not None:
        print(f"per-request metrics written to {metrics_dir}")
    return 1 if failures else 0


def cmd_scaling(args) -> int:
    """Replay the paper's strong/weak scaling curves."""
    from repro.parallel.perfmodel import CircuitCostModel, ScalingExperiment

    if args.calibrate:
        cost = CircuitCostModel.calibrate(bond_dimension=16,
                                          qubit_sizes=(8, 12, 16))
        exp = ScalingExperiment(cost_model=cost)
    else:
        exp = ScalingExperiment()
    if args.mode in ("strong", "both"):
        print("strong scaling (paper Fig. 12):")
        for p in exp.strong_scaling():
            print(f"  {p.n_processes:>7,} procs {p.n_cores:>11,} cores  "
                  f"speedup {p.speedup:6.2f}  eff {p.efficiency*100:5.1f}%")
    if args.mode in ("weak", "both"):
        print("weak scaling (paper Fig. 13):")
        for p in exp.weak_scaling():
            print(f"  {p.n_processes:>7,} procs {p.n_fragments*2:>5} atoms  "
                  f"eff {p.efficiency*100:5.1f}%")
    return 0


def cmd_info(args) -> int:
    """Print the molecule's qubit/Pauli/ansatz inventory."""
    from repro.q2chem import Q2Chemistry

    molecule = _build_molecule(args)
    job = Q2Chemistry.from_molecule(molecule, basis=args.basis,
                                    frozen_core=args.frozen_core)
    mo = job.mo_integrals
    ham = job.qubit_hamiltonian()
    from repro.circuits.uccsd import UCCSDAnsatz

    ansatz = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons)
    circ = ansatz.circuit()
    gates = circ.decomposed()
    # one level down: every excitation gate as its Pauli rotations
    n_rotations = sum(len(g.decompose()) if g.name == "EX"
                      else g.name == "PR" for g in circ)
    print(f"molecule        : {molecule.name or '(unnamed)'}")
    print(f"atoms/electrons : {molecule.n_atoms} / {molecule.n_electrons}")
    print(f"basis           : {args.basis} ({job.scf.n_ao} AOs)")
    print(f"active space    : {mo.n_orbitals} orbitals, "
          f"{mo.n_electrons} electrons")
    print(f"qubits          : {mo.n_qubits}")
    print(f"Pauli strings   : {len(ham)}  (O(N^4) law, cf. paper Fig. 5)")
    print(f"UCCSD           : {ansatz.n_parameters} parameters, "
          f"{circ.count_gates().get('EX', 0)} excitation gates = "
          f"{n_rotations} Pauli rotations = "
          f"{len(gates)} gates ({gates.n_two_qubit_gates()} two-qubit)")
    from repro.backends import available_backends

    print("backends        : " + ", ".join(available_backends()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Q2Chemistry reproduction: quantum computational "
                    "chemistry with MPS-VQE and DMET",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_molecule_args(p):
        p.add_argument("--molecule", default="h2",
                       help="h2 | lih | h2o | ring:N | chain:N")
        p.add_argument("--xyz", help="XYZ geometry file")
        p.add_argument("--bond", type=float, default=None,
                       help="bond length override (angstrom)")
        p.add_argument("--charge", type=int, default=0)
        p.add_argument("--basis", default="sto-3g")
        p.add_argument("--frozen-core", type=int, default=0)

    from repro.backends import available_backends

    backend_names = " | ".join(available_backends())
    pe = sub.add_parser("energy", help="compute ground-state energies")
    add_molecule_args(pe)
    pe.add_argument("--method", default="vqe",
                    help="hf | ccsd | fci | vqe | dmet-fci | dmet-vqe")
    pe.add_argument("--simulator", default="statevector",
                    choices=available_backends(), metavar="BACKEND",
                    help=f"backend: {backend_names} (vqe and dmet-vqe)")
    pe.add_argument("--bond-dimension", type=int, default=None,
                    help="MPS bond-dimension cap (vqe and dmet-vqe)")
    pe.add_argument("--grad", default=None,
                    choices=["adjoint", "param_shift", "finite_diff"],
                    help="gradient source for gradient-based VQE "
                         "optimizers; 'adjoint' computes all partials "
                         "analytically from one forward + one backward "
                         "sweep (statevector and mps only)")
    pe.add_argument("--optimizer", default=None,
                    help="VQE optimizer: l-bfgs-b (default) | bfgs | "
                         "slsqp | adam | cobyla | nelder-mead | powell; "
                         "gradient optimizers run on the adjoint where "
                         "the backend has one; with dmet-vqe the fragment "
                         "solver's optimizer")
    pe.add_argument("--max-iterations", type=int, default=4000,
                    help="VQE optimizer iteration budget (with dmet-vqe "
                         "the fragment solver's)")
    pe.add_argument("--workers", type=int, default=1,
                    help="worker processes for the DMET fragment solves "
                         "(dmet-* methods only; 1 solves them in-line)")
    pe.add_argument("--fragment-atoms", type=int, default=2)
    pe.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="enable repro.obs instrumentation and write the "
                         "metric/span snapshot as JSON (schema "
                         "'repro.obs/2', see docs/OBSERVABILITY.md)")
    pe.add_argument("--trace", action="store_true",
                    help="also record timing spans (vqe.run, vqe.energy, "
                         "dmet.evaluate, ...) into the --metrics-out "
                         "document")
    pe.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the recorded spans as a Chrome trace-event "
                         "file loadable in Perfetto / chrome://tracing "
                         "(implies --trace)")
    pe.set_defaults(func=cmd_energy)

    pv = sub.add_parser(
        "serve",
        help="run the in-process job service over a JSON request file: "
             "submit every job, batch compatible work across requests "
             "through the shared cache tier, print per-job results "
             "(see docs/SERVING.md)")
    pv.add_argument("--requests", required=True, metavar="FILE",
                    help="JSON file: a list of job specs (fields of "
                         "repro.serve.JobSpec), or {'jobs': [...]}")
    pv.add_argument("--results-out", default=None, metavar="PATH",
                    help="write every job summary + service stats as JSON")
    pv.add_argument("--metrics-out", default=None, metavar="DIR",
                    help="collect per-request repro.obs/2 metrics and "
                         "write one <job-id>.json per job into DIR")
    pv.add_argument("--cache-bytes", type=int,
                    default=None, metavar="N",
                    help="byte budget of the cross-request cache tier "
                         "(default: 256 MiB)")
    pv.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="overall wall-clock limit waiting for the jobs")
    pv.add_argument("--trace", action="store_true",
                    help="record per-request timing spans into the "
                         "--metrics-out documents and write a Chrome "
                         "trace (<job-id>.trace.json) next to each")
    pv.set_defaults(func=cmd_serve)

    ps = sub.add_parser("scaling", help="replay the Sunway scaling runs")
    ps.add_argument("--mode", default="both",
                    choices=["strong", "weak", "both"])
    ps.add_argument("--calibrate", action="store_true",
                    help="calibrate kernel costs on this machine first")
    ps.set_defaults(func=cmd_scaling)

    pi = sub.add_parser("info", help="print the system inventory")
    add_molecule_args(pi)
    pi.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
