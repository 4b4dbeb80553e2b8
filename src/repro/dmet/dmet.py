"""The DMET driver: fragment loop + global chemical-potential fitting.

Implements the 5-step procedure of the paper's Sec. III-B:

1. low-level (mean-field) calculation of the whole system - done upstream
   and carried in the :class:`OrthogonalSystem`;
2. division into fragments (:func:`atoms_per_fragment` helps);
3. bath construction + reduced Hamiltonian per fragment;
4. fragment energy and 1-RDM from the high-level solver (FCI / MPS-VQE);
5. check sum of fragment electron numbers against the whole system;
   if off, adjust the global chemical potential mu and repeat from 3.

The total energy uses democratic partitioning with the core mean field
shared half-and-half between fragments, which reduces to the exact energy
when a single fragment spans the whole system (a test-suite invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError
from repro.dmet.bath import build_bath
from repro.dmet.embedding import EmbeddingProblem, build_embedding_hamiltonian
from repro.dmet.orthogonalize import OrthogonalSystem
from repro.dmet.solvers import FCIFragmentSolver, FragmentSolution
from repro.obs import metrics as _obs
from repro.obs import trace as _trace

# observability instruments (no-ops unless `repro.obs` is enabled)
_M_FRAGMENT_SOLVES = _obs.counter(
    "dmet.fragment_solves", "embedded fragment problems solved")
_M_MU_ITERATIONS = _obs.counter(
    "dmet.mu_iterations", "chemical-potential (mu) fitting iterations")


def atoms_per_fragment(system: OrthogonalSystem,
                       atoms_per_group: int) -> list[list[int]]:
    """Partition orbitals into fragments of ``atoms_per_group`` atoms each.

    Atoms are grouped in index order (atom 0..k-1, k..2k-1, ...), matching
    the paper's "hydrogen atoms are divided into fragments with two atoms".
    """
    if atoms_per_group < 1:
        raise ValidationError("need at least one atom per fragment")
    n_atoms = max(system.orbital_atoms) + 1
    fragments: list[list[int]] = []
    for start in range(0, n_atoms, atoms_per_group):
        group = set(range(start, min(start + atoms_per_group, n_atoms)))
        orbs = [i for i, a in enumerate(system.orbital_atoms) if a in group]
        if orbs:
            fragments.append(orbs)
    return fragments


@dataclass
class DMETResult:
    """Converged DMET state."""

    energy: float
    chemical_potential: float
    n_electrons: float              # sum of fragment electron numbers
    n_electrons_target: int
    fragment_solutions: list[FragmentSolution]
    fragment_energies: list[float]
    mu_iterations: int
    converged: bool = True

    def max_fragment_qubits(self) -> int:
        """Largest embedded problem size in qubits (2 per orbital)."""
        return max(2 * sol.one_rdm.shape[0]
                   for sol in self.fragment_solutions)


class DMET:
    """Density-matrix-embedding driver.

    Parameters
    ----------
    system:
        Whole problem in an orthonormal basis with a mean-field density.
    fragments:
        Disjoint orbital-index lists covering every orbital.
    solver:
        Fragment solver (defaults to exact FCI).
    all_fragments_equivalent:
        If True, only the first fragment is solved and its energy/electron
        count is multiplied by the fragment count - exact for translationally
        symmetric systems like the paper's hydrogen rings/chains and a large
        saving when fragments are expensive VQE runs.
    mu_tolerance:
        Convergence threshold on |N(mu) - N_target| (electrons).
    max_mu_iterations:
        Budget for the chemical-potential search.
    n_workers / executor:
        ``n_workers > 1`` solves distinct fragments concurrently - the
        paper's first (embarrassingly parallel) level executed for real.
        ``executor`` names the execution engine
        (:func:`repro.parallel.resolve_executor`): "thread" (the default),
        "serial", or "process" for real multiprocess fragment dispatch
        (requires a picklable solver).  A count below 1 or an unknown
        name is a ``ValidationError`` here, whether or not a dispatch
        ever happens.
    """

    def __init__(self, system: OrthogonalSystem,
                 fragments: list[list[int]], solver=None, *,
                 bath_tolerance: float = 1e-8,
                 all_fragments_equivalent: bool = False,
                 mu_tolerance: float = 1e-5,
                 max_mu_iterations: int = 30,
                 n_workers: int = 1, executor: str = "thread"):
        self.system = system
        self.solver = solver if solver is not None else FCIFragmentSolver()
        self.bath_tolerance = bath_tolerance
        self.all_fragments_equivalent = all_fragments_equivalent
        self.mu_tolerance = mu_tolerance
        self.max_mu_iterations = max_mu_iterations
        if n_workers < 1:
            raise ValidationError(
                f"n_workers must be at least 1, got {n_workers!r}")
        if isinstance(executor, str):
            from repro.parallel.executor import resolve_executor

            # pools start on first use, so this only checks the name
            resolve_executor(executor, n_workers)
        self.n_workers = n_workers
        self.executor = executor

        seen: set[int] = set()
        for frag in fragments:
            overlap = seen.intersection(frag)
            if overlap:
                raise ValidationError(f"fragments overlap on orbitals {overlap}")
            seen.update(frag)
        if seen != set(range(system.n_orbitals)):
            missing = set(range(system.n_orbitals)) - seen
            raise ValidationError(f"fragments do not cover orbitals {missing}")
        self.fragments = [sorted(f) for f in fragments]

        # embedding problems are mu-independent: build once
        self.problems: list[EmbeddingProblem] = []
        reps = self.fragments[:1] if all_fragments_equivalent else self.fragments
        for frag in reps:
            basis = build_bath(system.density, frag,
                               bath_tolerance=bath_tolerance)
            self.problems.append(build_embedding_hamiltonian(system, basis))

    # -- single evaluation at fixed mu -------------------------------------------

    def evaluate(self, mu: float) -> tuple[float, float, list[FragmentSolution],
                                           list[float]]:
        """Solve all (representative) fragments at ``mu``.

        Returns (total energy, total fragment electron count, solutions,
        per-fragment energies), with multiplicity applied when fragments are
        declared equivalent.
        """
        mult = len(self.fragments) if self.all_fragments_equivalent else 1
        _M_MU_ITERATIONS.inc()
        _M_FRAGMENT_SOLVES.inc(len(self.problems))
        with _trace.span("dmet.evaluate", mu=float(mu),
                         n_fragments=len(self.problems)):
            if self.n_workers > 1 and len(self.problems) > 1:
                from repro.parallel.threelevel import ThreeLevelDriver

                solutions = ThreeLevelDriver.run_fragments_local(
                    self.problems, self.solver, mu,
                    max_workers=self.n_workers, executor=self.executor)
            else:
                solutions = [self.solver.solve(p, mu=mu)
                             for p in self.problems]
        energies: list[float] = []
        e_total = self.system.constant
        n_total = 0.0
        for problem, sol in zip(self.problems, solutions):
            e_frag = self._fragment_energy(problem, sol)
            energies.append(e_frag)
            e_total += mult * e_frag
            n_total += mult * sol.n_electrons_fragment
        return e_total, n_total, solutions, energies

    @staticmethod
    def _fragment_energy(problem: EmbeddingProblem,
                         sol: FragmentSolution) -> float:
        """Democratic-partitioning fragment energy.

        h_tilde = bare h + half the core mean field: each fragment-core
        interaction is counted once here and once when the core orbital is
        itself a fragment row of another fragment's calculation.
        """
        nf = problem.basis.n_fragment
        h_tilde = 0.5 * (problem.h1_bare + problem.h1)
        e1 = float(np.einsum("fq,fq->", h_tilde[:nf, :], sol.one_rdm[:nf, :]))
        e2 = 0.5 * float(np.einsum("fqrs,fqrs->", problem.h2[:nf],
                                   sol.two_rdm[:nf]))
        return e1 + e2

    # -- chemical-potential loop -----------------------------------------------------

    def run(self, *, fit_chemical_potential: bool = True,
            mu0: float = 0.0) -> DMETResult:
        """Run DMET; fits mu so fragment electrons sum to the target."""
        target = float(self.system.n_electrons)

        energy, n_elec, sols, fes = self.evaluate(mu0)
        history = [(mu0, n_elec)]
        if (not fit_chemical_potential
                or abs(n_elec - target) < self.mu_tolerance):
            return DMETResult(
                energy=energy, chemical_potential=mu0, n_electrons=n_elec,
                n_electrons_target=int(target), fragment_solutions=sols,
                fragment_energies=fes, mu_iterations=1,
            )

        # secant iteration on N(mu) - target; N is monotone increasing in mu
        mu_prev, f_prev = mu0, n_elec - target
        mu_cur = mu0 + (0.05 if f_prev < 0 else -0.05)
        for it in range(2, self.max_mu_iterations + 1):
            energy, n_elec, sols, fes = self.evaluate(mu_cur)
            history.append((mu_cur, n_elec))
            f_cur = n_elec - target
            if abs(f_cur) < self.mu_tolerance:
                return DMETResult(
                    energy=energy, chemical_potential=mu_cur,
                    n_electrons=n_elec, n_electrons_target=int(target),
                    fragment_solutions=sols, fragment_energies=fes,
                    mu_iterations=it,
                )
            denom = f_cur - f_prev
            if abs(denom) < 1e-14:
                step = 0.1 if f_cur < 0 else -0.1
                mu_prev, f_prev = mu_cur, f_cur
                mu_cur = mu_cur + step
                continue
            mu_next = mu_cur - f_cur * (mu_cur - mu_prev) / denom
            # damp absurd secant jumps
            mu_next = float(np.clip(mu_next, mu_cur - 1.0, mu_cur + 1.0))
            mu_prev, f_prev = mu_cur, f_cur
            mu_cur = mu_next
        raise ConvergenceError(
            f"DMET chemical potential did not converge in "
            f"{self.max_mu_iterations} iterations; history={history[-4:]}",
            iterations=self.max_mu_iterations,
            residual=abs(f_cur),
        )
