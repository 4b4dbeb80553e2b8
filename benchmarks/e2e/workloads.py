"""The five end-to-end workloads, their seeded inputs and their oracles.

Every workload drives ``repro`` through its public API only.  A workload
has three parts, run in different places:

* ``make_inputs(seed, smoke, reference)`` - set-up, in the child before
  the clock starts (and again in the runner, for the oracle).  The seed
  drives a +-2% bond-length jitter, the theta0 jitter of ``lih_step`` and
  the arrival order / duplicate picks of ``serve_mix``; the program under
  test only ever sees the generated inputs.
* ``run(inputs, timed, variant)`` - the child; the ``with timed():`` block
  is the region ``wall_s``/``cpu_s`` cover.
* ``oracle(inputs)`` / ``check(inputs, outputs, oracle)`` - the runner,
  outside any timed region: an independent backend recomputes what the
  workload should have produced; ``check`` returns (operations attempted,
  one text per failed operation, largest energy error in Ha).

Budgets instead of tolerances: an optimizer stopped by a tolerance needs
one iteration more or fewer as the geometry moves by a percent, which is
a 7% step in ``wall_s`` that says nothing about the code.  ``h2_vqe``,
``ring6_dmet_mps`` and ``chain8_dmet_w2`` therefore stop on an iteration
budget whose result is checked for accuracy, so every seed does the same
amount of work.

Sizes: one repetition is 1.5-7 s, so that a 20 s run holds four to eight
of them and can report a statistic that a 15 s burst of a noisy neighbour
does not move (see "Noise floor" in README.md).

``--smoke`` swaps in H2-sized inputs for the self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: relative half-width of the seeded bond-length jitter
JITTER = 0.02
#: relative width of the seeded theta0 jitter of ``lih_step``
THETA_JITTER = 0.05
#: the seed whose oracle values are committed in reference.json
REFERENCE_SEED = 11
#: largest disagreement between a recomputed oracle and reference.json
REFERENCE_TOL = 1e-8


def load_reference() -> dict:
    """The committed theta_ref and seed-11 oracle values."""
    return json.loads(REFERENCE_PATH.read_text())


def _rng(seed: int, salt: str):
    import numpy as np

    return np.random.default_rng([int(seed), sum(salt.encode())])


def _jitter(seed: int, salt: str) -> float:
    return 1.0 + JITTER * float(_rng(seed, salt).uniform(-1.0, 1.0))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring for the parts)."""

    name: str
    why: str
    make_inputs: Callable
    run: Callable
    oracle: Callable
    check: Callable
    #: extra traced variants run beside "main" (chain8: the serial run)
    variants: tuple = ()


#: (operations attempted, one text per failed one, energy error in Ha)
Verdict = tuple[int, list, float]


def _failure_if(failures: list, bad: bool, text: str) -> None:
    if bad:
        failures.append(text)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


# -- h2_vqe -------------------------------------------------------------------

#: L-BFGS-B iterations: the tolerance-based stop takes 8 iterations (10
#: evaluations) for every jitter in +-2%, the last only to confirm
#: convergence; evaluation 9 of 9 is within 4e-9 Ha of the optimum
H2_BUDGET = 7


def _h2_inputs(seed: int, smoke: bool, reference: dict) -> dict:
    from repro.chem.geometry import h2

    return {"molecule": h2(0.7414 * _jitter(seed, "h2")),
            "basis": "sto-3g" if smoke else "6-31g"}


def _h2_job(inputs: dict):
    from repro import Q2Chemistry

    return Q2Chemistry.from_molecule(inputs["molecule"],
                                     basis=inputs["basis"])


def _h2_run(inputs: dict, timed, variant: str) -> dict:
    with timed():
        res = _h2_job(inputs).vqe_energy(
            simulator="mps", max_bond_dimension=16, optimizer="l-bfgs-b",
            grad="adjoint", max_iterations=H2_BUDGET)
    return {"energy": res.energy, "n_evaluations": res.n_evaluations,
            "n_iterations": res.n_iterations}


def _h2_oracle(inputs: dict) -> dict:
    job = _h2_job(inputs)
    fast = job.vqe_energy(simulator="fast", optimizer="l-bfgs-b")
    return {"e_fast": fast.energy, "e_fci": job.fci_energy()}


def _h2_check(inputs: dict, out: dict, oracle: dict) -> Verdict:
    failures: list[str] = []
    energy = out["energy"]
    if not _finite(energy):
        return 1, ["energy is not finite"], math.inf
    err = abs(energy - oracle["e_fast"])
    _failure_if(failures, err > 1e-6,
                f"energy {energy!r} is {err:.2e} Ha from the fast-backend "
                f"optimum")
    gap = energy - oracle["e_fci"]
    _failure_if(failures, not -1e-9 <= gap <= 1e-6,
                f"energy is {gap:.2e} Ha above FCI, outside [0, 1e-6] "
                f"(UCCSD is exact for two electrons)")
    return 1, failures[:1], err


# -- lih_step -----------------------------------------------------------------

#: bond cap of the step: the first that truncates frozen-core LiH for real
#: (7e-5..8e-5 Ha from the statevector energy, below chemical accuracy;
#: D=10 is exact to 1e-9 and D=6 is 1.1e-3 off)
LIH_BOND = 8


def _lih_inputs(seed: int, smoke: bool, reference: dict) -> dict:
    import numpy as np
    from repro.chem.geometry import h2, lih

    xi = _rng(seed, "lih").standard_normal
    if smoke:
        return {"molecule": h2(), "frozen_core": 0,
                "theta0": THETA_JITTER * xi(3)}
    theta_ref = np.asarray(reference["lih_theta_ref"])
    return {"molecule": lih(), "frozen_core": 1,
            "theta0": theta_ref * (1.0 + THETA_JITTER * xi(theta_ref.size))}


def lih_job(inputs: dict):
    from repro import Q2Chemistry

    return Q2Chemistry.from_molecule(inputs["molecule"],
                                     frozen_core=inputs["frozen_core"])


def _lih_step(inputs: dict, simulator: str, **options) -> dict:
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.vqe import EnergyEvaluator

    job = lih_job(inputs)
    mo = job.mo_integrals
    circuit = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    evaluator = EnergyEvaluator(job.qubit_hamiltonian(), circuit,
                                simulator=simulator, **options)
    energy = evaluator.energy(inputs["theta0"])
    gradient = evaluator.gradient_source("adjoint")(inputs["theta0"])
    return {"energy": float(energy), "gradient": [float(g) for g in gradient]}


def _lih_run(inputs: dict, timed, variant: str) -> dict:
    with timed():
        return _lih_step(inputs, "mps", max_bond_dimension=LIH_BOND)


def _lih_oracle(inputs: dict) -> dict:
    exact = _lih_step(inputs, "statevector")
    return {"e_statevector": exact["energy"], "gradient": exact["gradient"]}


def _lih_check(inputs: dict, out: dict, oracle: dict) -> Verdict:
    if not _finite(out["energy"], *out["gradient"]):
        return 1, ["energy or gradient is not finite"], math.inf
    failures: list[str] = []
    err = abs(out["energy"] - oracle["e_statevector"])
    _failure_if(failures, err > 5e-4,
                f"energy is {err:.2e} Ha from the statevector energy at "
                f"theta0")
    g_err = max(abs(a - b) for a, b in zip(out["gradient"],
                                           oracle["gradient"]))
    # truncation at D=8 moves the gradient by 1.4e-2..1.6e-2, as much as
    # the gradient itself this close to the optimum: a check for gross
    # errors; h2_vqe (nothing truncates) holds the adjoint path to 1e-6 Ha
    _failure_if(failures, g_err > 5e-2 or
                len(out["gradient"]) != len(oracle["gradient"]),
                f"adjoint gradient is {g_err:.2e} (max-norm) from the "
                f"statevector adjoint gradient")
    return 1, failures[:1], err


# -- ring6_dmet_mps -----------------------------------------------------------

#: SLSQP iterations per fragment solve: two finite-difference jacobians
#: and the line search between them, 32 forward evaluations for every seed
RING6_BUDGET = 1


def _ring6_inputs(seed: int, smoke: bool, reference: dict) -> dict:
    from repro.chem.geometry import hydrogen_ring

    # the smoke fragments (4 qubits) can afford to converge
    return {"molecule": hydrogen_ring(6, 1.0 * _jitter(seed, "ring6")),
            "atoms_per_fragment": 1 if smoke else 2, "equivalent": True,
            "vqe_iterations": 20 if smoke else RING6_BUDGET}


def _one_shot_dmet(inputs: dict, solver: str, *, n_workers: int = 1,
                   **options):
    """DMET at mu = 0: every inequivalent fragment solved once."""
    from repro import Q2Chemistry
    from repro.dmet.dmet import DMET, atoms_per_fragment
    from repro.dmet.solvers import make_fragment_solver

    job = Q2Chemistry.from_molecule(inputs["molecule"])
    fragments = atoms_per_fragment(job.system, inputs["atoms_per_fragment"])
    dmet = DMET(job.system, fragments, make_fragment_solver(solver, **options),
                all_fragments_equivalent=inputs["equivalent"],
                n_workers=n_workers, executor="process")
    return dmet.run(fit_chemical_potential=False)


def _ring6_run(inputs: dict, timed, variant: str) -> dict:
    with timed():
        res = _one_shot_dmet(inputs, "vqe-mps", max_bond_dimension=16,
                             optimizer="slsqp",
                             max_iterations=inputs["vqe_iterations"])
    details = res.fragment_solutions[0].details
    return {"energy": res.energy,
            "vqe_evaluations": details["vqe_evaluations"]}


def _ring6_oracle(inputs: dict) -> dict:
    fast = _one_shot_dmet(inputs, "vqe-fast", optimizer="slsqp",
                          max_iterations=inputs["vqe_iterations"])
    return {"e_fast_budget": fast.energy,
            "e_fci": _one_shot_dmet(inputs, "fci").energy}


def _ring6_check(inputs: dict, out: dict, oracle: dict) -> Verdict:
    if not _finite(out["energy"]):
        return 1, ["energy is not finite"], math.inf
    failures: list[str] = []
    err = abs(out["energy"] - oracle["e_fast_budget"])
    # not 1e-6: scipy's forward-difference jacobian (step 1e-8) turns 1e-15
    # backend rounding into 1e-7 gradient noise, up to 2e-7 Ha after the
    # line search of a run stopped short of its stationary point
    _failure_if(failures, err > 5e-5,
                f"DMET energy is {err:.2e} Ha from the same budgeted run "
                f"with the vqe-fast solver")
    # one SLSQP iteration lands 3.2e-3..3.7e-3 Ha above FCI-DMET
    gap = abs(out["energy"] - oracle["e_fci"])
    _failure_if(failures, gap > 1e-2,
                f"DMET energy is {gap:.2e} Ha from DMET with the FCI solver")
    return 1, failures[:1], err


# -- chain8_dmet_w2 -----------------------------------------------------------

#: COBYLA evaluations per fragment solve: the tolerance-based stop takes
#: 460-690 depending on the fragment and the jitter, so one worker gets up
#: to 20% more work than the other for no reason in the code; 400 is the
#: same work for every fragment, seed and executor and lands 8e-5..1.3e-4
#: Ha from FCI-DMET
CHAIN8_BUDGET = 400


def _chain8_inputs(seed: int, smoke: bool, reference: dict) -> dict:
    from repro.chem.geometry import hydrogen_chain

    n = 4 if smoke else 8
    return {"molecule": hydrogen_chain(n, 1.0 * _jitter(seed, "chain8")),
            "atoms_per_fragment": 1 if smoke else 2, "equivalent": False}


def _chain8_run(inputs: dict, timed, variant: str) -> dict:
    workers = 1 if variant == "serial" else 2
    with timed():
        # no warm start: in one process fragment k would start from the
        # amplitudes of fragment k-1, on two workers from whatever that
        # worker solved last - a different computation per executor
        res = _one_shot_dmet(inputs, "vqe-fast", n_workers=workers,
                             optimizer="cobyla", warm_start=False,
                             max_iterations=CHAIN8_BUDGET)
    return {"energy": res.energy,
            "vqe_evaluations": [s.details["vqe_evaluations"]
                                for s in res.fragment_solutions]}


def _chain8_oracle(inputs: dict) -> dict:
    return {"e_fci": _one_shot_dmet(inputs, "fci").energy}


def _chain8_check(inputs: dict, out: dict, oracle: dict) -> Verdict:
    if not _finite(out["energy"]):
        return 1, ["energy is not finite"], math.inf
    failures: list[str] = []
    err = abs(out["energy"] - oracle["e_fci"])
    _failure_if(failures, err > 5e-4,
                f"DMET energy is {err:.2e} Ha from DMET with the FCI solver")
    return 1, failures[:1], err


# -- serve_mix ----------------------------------------------------------------


def _energy(molecule: str, method: str) -> dict:
    return {"kind": "energy", "molecule": molecule, "method": method}


#: cold-unique requests, then new requests on systems already prepared
SERVE_UNIQUE = (
    _energy("h2o", "hf"), _energy("h2o", "fci"), _energy("lih", "fci"),
    {"kind": "vqe", "molecule": "chain:4", "bond": 1.5, "simulator": "fast"},
    {"kind": "vqe", "molecule": "h2", "simulator": "mps"},
    {"kind": "vqe", "molecule": "h2", "simulator": "statevector"},
    {"kind": "dmet", "molecule": "ring:10", "solver": "fci"},
    _energy("chain:6", "fci"), _energy("chain:8", "hf"),
    _energy("chain:8", "fci"),
)
SERVE_SHARED = (
    _energy("h2o", "ccsd"), _energy("lih", "ccsd"), _energy("lih", "hf"),
    _energy("chain:6", "ccsd"), _energy("chain:6", "hf"),
)
SERVE_DUPLICATES = 5
SERVE_SMOKE = (_energy("h2", "hf"), _energy("h2", "fci"),
               {"kind": "vqe", "molecule": "h2", "simulator": "fast"},
               _energy("h2", "ccsd"))


def serve_label(spec: dict) -> str:
    """Stable name of a request's computation (tags excluded)."""
    how = {"energy": spec.get("method"), "vqe": spec.get("simulator"),
           "dmet": spec.get("solver")}[spec["kind"]]
    bond = f"@{spec['bond']}" if spec.get("bond") else ""
    return f"{spec['molecule']}{bond}/{spec['kind']}/{how}"


def _serve_inputs(seed: int, smoke: bool, reference: dict) -> dict:
    rng = _rng(seed, "serve")
    base = list(SERVE_SMOKE if smoke else SERVE_UNIQUE + SERVE_SHARED)
    n_dup = 2 if smoke else SERVE_DUPLICATES
    picks = rng.choice(len(base), size=n_dup, replace=False)
    requests = [dict(spec, tag=f"req-{i}") for i, spec in enumerate(base)]
    requests += [dict(base[int(p)], tag=f"dup-{i}")
                 for i, p in enumerate(picks)]
    order = rng.permutation(len(requests))
    return {"requests": [requests[int(i)] for i in order],
            "committed": reference["energies"].get("serve_mix", {})}


def _serve_pass(service, requests: list) -> list[dict]:
    """Closed loop, one client: submit everything, then wait for it all."""
    ids = [service.submit(dict(spec)) for spec in requests]
    service.wait(ids)
    rows = []
    for spec, job_id in zip(requests, ids):
        record = service.record(job_id)
        result = record.result or {}
        rows.append({"label": serve_label(spec), "tag": spec["tag"],
                     "status": record.status, "error": record.error,
                     "energy": result.get("energy"),
                     "cache_hit": bool(record.cache_hit),
                     "wall_s": record.wall_s})
    return rows


def _serve_run(inputs: dict, timed, variant: str) -> dict:
    import time

    from repro.serve import JobService

    with JobService(observe=False) as service:
        with timed():
            jobs = _serve_pass(service, inputs["requests"])
        stats = service.stats()
        start = time.perf_counter()
        replay = _serve_pass(service, inputs["requests"])
        replay_s = time.perf_counter() - start
    return {"jobs": jobs, "replay": replay, "replay_s": replay_s,
            "stats": stats}


def serve_direct_energy(spec: dict) -> float:
    """The request's energy through a direct library call (no service)."""
    from repro import Q2Chemistry
    from repro.chem.geometry import molecule_from_spec
    from repro.serve import JobSpec

    job = JobSpec.from_dict(dict(spec))
    system = Q2Chemistry.from_molecule(
        molecule_from_spec(job.molecule, bond=job.bond), basis=job.basis)
    if job.kind == "energy":
        return float({"hf": system.hartree_fock_energy,
                      "fci": system.fci_energy,
                      "ccsd": system.ccsd_energy}[job.method]())
    if job.kind == "vqe":
        return float(system.vqe_energy(
            simulator=job.simulator, optimizer=job.optimizer,
            max_iterations=job.max_iterations,
            tolerance=job.tolerance).energy)
    return float(system.dmet_energy(
        solver=job.solver, atoms_per_group=job.atoms_per_group).energy)


def _serve_oracle(inputs: dict) -> dict:
    """Direct-call energies: committed for the full mix, computed for smoke."""
    labels = {serve_label(s): s for s in inputs["requests"]}
    committed = inputs["committed"]
    if set(labels) <= set(committed):
        return {label: committed[label] for label in labels}
    return {label: serve_direct_energy(
        {k: v for k, v in labels[label].items() if k != "tag"})
        for label in sorted(labels)}


def _serve_check(inputs: dict, out: dict, oracle: dict) -> Verdict:
    jobs = out["jobs"]
    first: dict[str, float] = {}
    fci = {row["label"].split("/")[0]: row["energy"] for row in jobs
           if row["label"].endswith("/energy/fci")
           and _finite(row["energy"])}
    failures: list[str] = []
    worst = 0.0
    for row, again in zip(jobs, out["replay"]):
        label, energy = row["label"], row["energy"]
        tol = 1e-8 if "/energy/" in label else 1e-6
        system = label.split("/")[0]
        if row["status"] != "done" or not _finite(energy):
            failures.append(f"{row['tag']} {label}: {row['status']} "
                            f"{row['error'] or energy}")
            continue
        err = abs(energy - oracle[label])
        worst = max(worst, err)
        if err > tol:
            failures.append(f"{row['tag']} {label}: {err:.2e} Ha from the "
                            f"direct library call")
        elif system in fci and energy < fci[system] - 1e-6:
            failures.append(f"{row['tag']} {label}: below FCI on {system}")
        elif first.setdefault(label, energy) != energy:
            failures.append(f"{row['tag']} {label}: duplicate differs "
                            f"from its original")
        elif not again["cache_hit"] or again["energy"] != energy:
            failures.append(f"{row['tag']} {label}: replay was not an "
                            f"identical result-cache hit")
    return len(jobs), failures, worst


# -- registry -----------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "h2_vqe",
        "time to a 1e-6 Ha H2/6-31G MPS-VQE energy: 9 energy + adjoint "
        "gradient evaluations on 8 qubits where nothing truncates; chem and "
        "measurement do almost none of the work",
        _h2_inputs, _h2_run, _h2_oracle, _h2_check),
    Workload(
        "lih_step",
        "one frozen-core LiH energy + adjoint gradient at D=8 near the "
        "optimum: 2,610-gate circuits in the truncated regime, fused "
        "forward stream and unfused adjoint unwind",
        _lih_inputs, _lih_run, _lih_oracle, _lih_check),
    Workload(
        "ring6_dmet_mps",
        "the paper's DMET-MPS-VQE path: bath, embedding, 32 forward-only "
        "8-qubit evaluations and RDM measurement; no adjoint, so it "
        "separates forward-only from backward evolution gains",
        _ring6_inputs, _ring6_run, _ring6_oracle, _ring6_check),
    Workload(
        "chain8_dmet_w2",
        "level-1 parallelism for real: the 4 fragments of one-shot DMET on "
        "2 process workers with the dense fast backend; bypasses every "
        "MPS layer",
        _chain8_inputs, _chain8_run, _chain8_oracle, _chain8_check,
        variants=("serial",)),
    Workload(
        "serve_mix",
        "20 served requests, closed loop: 10 cold-unique, 5 on prepared "
        "systems, 5 exact duplicates; chem and the serve cache tiers do "
        "the work, MPS under 10%",
        _serve_inputs, _serve_run, _serve_oracle, _serve_check),
)}
