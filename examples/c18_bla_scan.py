#!/usr/bin/env python
"""Bond-length-alternation scan of cyclo[18]carbon (paper Fig. 7b).

The paper scans the C18 energy against the bond-length alternation (BLA)
and finds the alternated (polyynic) structure lower than the cumulenic one,
in agreement with experiment.  The ab initio cc-pVDZ calculation is beyond
a laptop, so this example runs the documented substitution (DESIGN.md #3):
a PPP/SSH model of the C18 pi system with a sigma-bond elastic term, solved
with CCSD and DMET(-VQE), which exhibits the same double-well physics.

Usage:  python examples/c18_bla_scan.py [n_sites] [n_points] [--dmet]
"""

import sys

import numpy as np

from repro.chem.ccsd import CCSDSolver
from repro.chem.lattice import ppp_carbon_ring
from repro.chem.mo import MOIntegrals
from repro.dmet.solvers import orthonormal_rhf_density
from repro.q2chem import Q2Chemistry


def canonical_mo(lat):
    """Rotate the site-basis lattice Hamiltonian to canonical orbitals."""
    _, c = orthonormal_rhf_density(lat.h1, lat.h2, lat.n_electrons)
    h1 = c.T @ lat.h1 @ c
    g = np.einsum("pqrs,pi,qj,rk,sl->ijkl", lat.h2, c, c, c, c,
                  optimize=True)
    return MOIntegrals(h1=h1, h2=g, constant=lat.constant,
                       n_electrons=lat.n_electrons)


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    use_dmet = "--dmet" in sys.argv
    n_sites = int(args[0]) if args else 18
    n_points = int(args[1]) if len(args) > 1 else 7

    blas = np.linspace(0.0, 0.25, n_points)
    print(f"C{n_sites} pi-system (PPP/SSH + sigma elastic) BLA scan")
    header = f"{'BLA(A)':>8} {'RHF':>12} {'CCSD':>12}"
    if use_dmet:
        header += f" {'DMET-VQE':>12}"
    print(header)

    rows = []
    for bla in blas:
        lat = ppp_carbon_ring(n_sites, bla=float(bla))
        mo = canonical_mo(lat)
        job = Q2Chemistry.from_lattice(lat)
        e_hf = job.hartree_fock_energy()
        e_ccsd = CCSDSolver(mo, level_shift=0.0).run().energy
        row = [bla, e_hf, e_ccsd]
        if use_dmet:
            frags = [[i, i + 1] for i in range(0, n_sites, 2)]
            res = job.dmet_energy(fragments=frags, solver="vqe-statevector",
                                  vqe_tolerance=1e-7, mu_tolerance=1e-3)
            row.append(res.energy)
        rows.append(row)
        print(" ".join(f"{v:12.6f}" if i else f"{v:8.3f}"
                       for i, v in enumerate(row)))

    ccsd = np.array([r[2] for r in rows])
    kmin = int(np.argmin(ccsd))
    print(f"\nCCSD minimum at BLA = {blas[kmin]:.3f} A "
          f"({'alternated' if blas[kmin] > 0.02 else 'cumulenic'} structure)")
    print("(paper Fig. 7b: the bond-length-alternated structure is lower)")


if __name__ == "__main__":
    main()
