"""Deterministic load-test harness for the job service.

Three pieces the ``tests/serve`` suite shares:

* :data:`VQE_COMBOS` / :func:`full_combo_workload` - the pinned
  backend / optimizer / executor matrix every served
  result must reproduce bitwise;
* :func:`direct_result` - the *independent* reference: the same
  computation through the plain :mod:`repro.q2chem` library path, no
  service, no shared cache (what "bitwise identical to a direct call"
  is measured against);
* :func:`make_workload` / :func:`run_concurrent` - seeded workload
  generation (duplicates on purpose) and multi-threaded submission that
  preserves the spec -> job-id correspondence.

Everything here is deterministic given the seed: the workloads, the
reference results, and therefore the cache hit/miss totals the load
tests pin exactly.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import q2chem
from repro.chem.geometry import molecule_from_spec
from repro.serve import JobService, JobSpec

#: the backend/optimizer matrix served VQE results must
#: reproduce bitwise (kept h2-sized so the whole matrix runs in
#: seconds); fields: simulator, optimizer, grad
VQE_COMBOS: tuple[dict, ...] = (
    {"simulator": "fast", "optimizer": "cobyla"},
    {"simulator": "statevector", "optimizer": "cobyla"},
    {"simulator": "statevector", "optimizer": "adam", "grad": "adjoint"},
    {"simulator": "mps", "optimizer": "cobyla"},
    {"simulator": "mps", "optimizer": "adam", "grad": "adjoint"},
)

#: iteration budget keeping the matrix fast while still optimizing
MAX_ITERATIONS = 25


def full_combo_workload(molecule: str = "h2") -> list[JobSpec]:
    """One spec per entry of the pinned combo matrix (plus closed-form)."""
    specs = [
        JobSpec(kind="energy", molecule=molecule, method="hf"),
        JobSpec(kind="energy", molecule=molecule, method="fci"),
        JobSpec(kind="energy", molecule=molecule, method="ccsd"),
        JobSpec(kind="dmet", molecule=molecule, solver="fci"),
    ]
    for combo in VQE_COMBOS:
        specs.append(JobSpec(kind="vqe", molecule=molecule,
                             max_iterations=MAX_ITERATIONS,
                             **combo))
    return specs


def direct_result(spec: JobSpec) -> dict:
    """The service-free reference result for one spec.

    Re-implements the request -> result mapping straight on the library
    facade (fresh system, module caches in their default state), so a
    comparison against a served result crosses the whole service stack.
    """
    system = q2chem.Q2Chemistry.from_molecule(
        molecule_from_spec(spec.molecule, bond=spec.bond), basis=spec.basis)
    if spec.kind == "energy":
        energy = {"hf": system.hartree_fock_energy,
                  "fci": system.fci_energy,
                  "ccsd": system.ccsd_energy}[spec.method]()
        return {"kind": "energy", "molecule": spec.molecule,
                "basis": spec.basis, "method": spec.method,
                "energy": float(energy)}
    if spec.kind == "vqe":
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


def make_workload(seed: int, n_jobs: int,
                  pool: list[JobSpec] | None = None) -> list[JobSpec]:
    """``n_jobs`` specs drawn (with repetition) from a small pool.

    The pool is cheap closed-form work (HF / FCI / fast-VQE on two
    molecules), so load tests can push dozens of jobs in seconds; the
    draw is seeded, so the workload's spec multiset - and therefore the
    service's cache hit totals - are reproducible.
    """
    if pool is None:
        pool = [
            JobSpec(kind="energy", molecule="h2", method="hf"),
            JobSpec(kind="energy", molecule="h2", method="fci"),
            JobSpec(kind="vqe", molecule="h2", simulator="fast"),
            JobSpec(kind="energy", molecule="lih", method="hf"),
        ]
    rng = np.random.default_rng(seed)
    return [pool[i] for i in rng.integers(0, len(pool), size=n_jobs)]


def run_concurrent(service: JobService, specs: list[JobSpec],
                   n_threads: int = 4,
                   timeout: float = 300.0) -> list[str]:
    """Submit ``specs`` from ``n_threads`` client threads; wait for all.

    Returns job ids aligned with ``specs`` (index i -> specs[i]), no
    matter how thread scheduling interleaved the submissions.
    """
    job_ids: list[str | None] = [None] * len(specs)

    def client(offset: int) -> None:
        for i in range(offset, len(specs), n_threads):
            job_ids[i] = service.submit(specs[i])

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(job_id is not None for job_id in job_ids)
    service.wait(job_ids, timeout=timeout)
    return job_ids  # type: ignore[return-value]
