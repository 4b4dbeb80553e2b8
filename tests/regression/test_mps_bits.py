"""MPS energies, adjoint gradients, RDMs and discarded weights, bit for bit.

The kernel layer calls LAPACK and BLAS with less wrapping than numpy's own
functions do (``tests/simulators/test_kernels.py`` pins each call to
numpy's bits).  These pins hold the whole MPS path to the values it
produced before: an UCCSD energy, its adjoint gradient, the RDMs of the
prepared state and the per-bond discarded weight on H2/6-31G at D = 16
and frozen-core LiH at D = 8 and D = 4, and a one-shot DMET-MPS-VQE run
on the H6 ring (2-atom fragments, one SLSQP iteration: energies, adjoint
gradients and RDMs in one solve).

Energies are pinned as ``float.hex`` strings, arrays as a digest of their
bytes.  BLAS threads split large GEMMs differently, so the values are
computed in a child on one BLAS thread, as the benchmark runs; another
BLAS build may round differently, and the pins are then re-recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_CHILD = r"""
import hashlib, json
import numpy as np
from repro import Q2Chemistry
from repro.chem.geometry import h2, hydrogen_ring, lih
from repro.circuits.uccsd import UCCSDAnsatz
from repro.dmet.dmet import DMET, atoms_per_fragment
from repro.dmet.solvers import make_fragment_solver
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.rdm import measure_rdms


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def step(job, bond):
    mo = job.mo_integrals
    circuit = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    ev = EnergyEvaluator(job.qubit_hamiltonian(), circuit, simulator="mps",
                         max_bond_dimension=bond)
    theta = 0.1 * np.cos(np.arange(circuit.n_parameters))
    energy = ev.energy(theta)
    grad = ev.gradient_source("adjoint")(theta)
    sim = ev.final_state(theta)
    per_bond = sorted(sim.truncation_stats.per_bond_discarded_weight.items())
    return {"energy": float(energy).hex(), "gradient": digest(grad),
            "rdms": digest(*measure_rdms(sim, mo.n_orbitals)),
            "discarded": digest(np.array(per_bond).reshape(-1, 2))}


lih_job = Q2Chemistry.from_molecule(lih(), frozen_core=1)
ring = Q2Chemistry.from_molecule(hydrogen_ring(6, 1.0))
res = DMET(ring.system, atoms_per_fragment(ring.system, 2),
           make_fragment_solver("vqe-mps", max_bond_dimension=16,
                                optimizer="slsqp", max_iterations=1)
           ).run(fit_chemical_potential=False)
fragment = res.fragment_solutions[0]
print(json.dumps({
    "h2/6-31g D=16": step(Q2Chemistry.from_molecule(h2(), basis="6-31g"), 16),
    "lih D=8": step(lih_job, 8),
    "lih D=4": step(lih_job, 4),
    "ring:6 fragment": {"energy": float(res.energy).hex(),
                        "fragment": float(fragment.energy).hex(),
                        "rdms": digest(fragment.one_rdm, fragment.two_rdm)},
}))
"""

#: recorded before the kernels called LAPACK and BLAS bare, one BLAS thread
PINNED = {
    "h2/6-31g D=16": {"energy": "-0x1.f309550433154p-1",
                      "gradient": "59e360b4503ef021",
                      "rdms": "653b69b981f00db3",
                      "discarded": "002dc4c89f4e8b99"},
    "lih D=8": {"energy": "-0x1.ecfa9a2d92c2ap+2",
                "gradient": "45b59dda23680f3e",
                "rdms": "6a67a99548f80d58",
                "discarded": "8ae4e887bfe7b1d2"},
    "lih D=4": {"energy": "-0x1.ee2982ae58cd1p+2",
                "gradient": "3cf6791885b420a5",
                "rdms": "e04bdb1a626aad68",
                "discarded": "106c851fcadd4266"},
    "ring:6 fragment": {"energy": "-0x1.9cdac9ad635c2p+1",
                        "fragment": "-0x1.1f45930afe74cp+2",
                        "rdms": "deae698ec3f46f56"},
}


@pytest.fixture(scope="module")
def mps_bits():
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(PINNED))
def test_mps_path_is_bitwise_the_recorded_one(case, mps_bits):
    assert mps_bits[case] == PINNED[case]
