"""Fig. 7(a): DMET-MPS-VQE accuracy against FCI.

Paper setup: (i) the potential curve of the 10-atom hydrogen ring with
two-atom DMET fragments stays within 0.5% relative error of FCI; (ii) full
MPS-VQE on H2, LiH and H2O reproduces FCI to ~0.01% relative error.

Energies are simulator-independent: the VQE runs use the dense statevector
backend, which the test-suite proves numerically identical to the MPS
pipeline.
"""

import numpy as np
import pytest

from repro import obs
from repro.chem import geometry
from repro.q2chem import Q2Chemistry

from conftest import print_table


def test_fig07a_h10_ring_curve(benchmark):
    """H10 ring potential curve: DMET(2-atom fragments) vs FCI."""
    bond_lengths = [0.8, 1.0, 1.2]
    rows = []
    rels = []

    def point(r):
        job = Q2Chemistry.from_molecule(geometry.hydrogen_ring(10, r))
        e_fci = job.fci_energy()
        with obs.collect() as reg:
            res = job.dmet_energy(atoms_per_group=2,
                                  solver="vqe-statevector",
                                  vqe_tolerance=1e-8, mu_tolerance=1e-4)
            # the five fragments are one symmetry orbit, found: one
            # fragment solve per mu iteration
            assert res.orbits == [[0, 1, 2, 3, 4]]
            assert reg.value("dmet.fragment_solves") == res.mu_iterations
        return e_fci, res.energy

    for r in bond_lengths:
        e_fci, e_dmet = point(r)
        rel = abs((e_dmet - e_fci) / e_fci) * 100
        rows.append([r, e_fci, e_dmet, rel])
        rels.append(rel)

    benchmark.pedantic(lambda: point(1.0), rounds=1, iterations=1)

    print_table(
        "Fig 7a: H10 ring, DMET-VQE (2-atom fragments) vs FCI",
        ["r (A)", "FCI (Ha)", "DMET-VQE (Ha)", "rel err %"],
        rows,
        "paper: relative errors within 0.5% along the curve",
    )
    assert max(rels) < 0.5
    # curve shape: a minimum exists inside the scanned window
    energies = [row[2] for row in rows]
    assert energies[1] < energies[0] and energies[1] < energies[2]


def test_fig07a_mps_vqe_small_molecules(benchmark):
    """MPS-VQE vs FCI for H2 / LiH / H2O: ~0.01% relative error."""
    systems = [
        ("H2", geometry.h2(0.7414), 4),
        ("LiH", geometry.lih(), 12),
        ("H2O", geometry.water(), 14),
    ]
    rows = []
    rels = []

    def solve(molecule):
        job = Q2Chemistry.from_molecule(molecule)
        e_fci = job.fci_energy()
        # the target is the paper's ~0.01% relative error (7.5 mHa for
        # H2O); the default L-BFGS-B on adjoint gradients crosses it in
        # tens of evaluations, so the budget below only bounds wall time
        res = job.vqe_energy(simulator="statevector", tolerance=1e-6,
                             max_iterations=2500)
        return e_fci, res.energy, res.n_evaluations

    for name, mol, nq in systems:
        e_fci, e_vqe, evals = solve(mol)
        rel = abs((e_vqe - e_fci) / e_fci) * 100
        rows.append([name, nq, e_fci, e_vqe, rel, evals])
        rels.append(rel)

    benchmark.pedantic(lambda: solve(geometry.h2(0.7414)), rounds=1,
                       iterations=1)

    print_table(
        "Fig 7a (inset): full VQE vs FCI",
        ["system", "qubits", "FCI (Ha)", "VQE (Ha)", "rel err %",
         "evaluations"],
        rows,
        "paper: H2/LiH/H2O relative errors at the 0.01% level",
    )
    assert all(r < 0.01 for r in rels)
