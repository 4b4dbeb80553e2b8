"""All-fragments DMET: the oracle of orbit-shared fragment solves.

Every fragment gets its own bath, embedding problem and solve, each
counted once: what :class:`repro.dmet.dmet.DMET` did before fragments were
grouped into symmetry orbits.  It finds no symmetry and shares no bath,
problem or solution with ``DMET``; only the democratic-partitioning
energy of one solved fragment (``DMET._fragment_energy``) is shared.
"""

from __future__ import annotations

from repro.dmet.bath import build_bath
from repro.dmet.dmet import DMET
from repro.dmet.embedding import build_embedding_hamiltonian
from repro.dmet.solvers import FCIFragmentSolver


def all_fragments_evaluate(system, fragments, mu: float = 0.0, *,
                           solver=None) -> tuple[float, float, list[float]]:
    """(energy, fragment electron count, fragment energies) at ``mu``,
    every fragment's embedding problem built and solved."""
    solver = solver if solver is not None else FCIFragmentSolver()
    energy, n_electrons, energies = system.constant, 0.0, []
    for fragment in fragments:
        problem = build_embedding_hamiltonian(
            system, build_bath(system.density, sorted(fragment)))
        solution = solver.solve(problem, mu=mu)
        energies.append(DMET._fragment_energy(problem, solution))
        energy += energies[-1]
        n_electrons += solution.n_electrons_fragment
    return energy, n_electrons, energies
