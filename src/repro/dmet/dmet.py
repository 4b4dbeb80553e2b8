"""The DMET driver: fragment loop + global chemical-potential fitting.

Implements the 5-step procedure of the paper's Sec. III-B:

1. low-level (mean-field) calculation of the whole system - done upstream
   and carried in the :class:`OrthogonalSystem`;
2. division into fragments (:func:`atoms_per_fragment` helps);
3. bath construction + reduced Hamiltonian per fragment;
4. fragment energy and 1-RDM from the high-level solver (FCI / MPS-VQE);
5. check sum of fragment electron numbers against the whole system;
   if off, adjust the global chemical potential mu and repeat from 3.

Step 4 is the paper's first parallel level.  With ``n_workers=1`` the
fragments are solved in-line, one after the other; with more they are
mapped over worker processes
(:meth:`repro.parallel.threelevel.ThreeLevelDriver.run_fragments_local`).
Nothing else selects between the two.

Fragments related by a symmetry of the system share one solve
(:func:`fragment_orbits`): a ring's fragments form one orbit under its
rotations, a chain's pair up under its mirror.  Each orbit's lowest
fragment is solved and its energy and electron count weighted by the
orbit size - the translational-invariance shortcut DMET codes take on
purpose, here taken only where a symmetry was found and checked.

The total energy uses democratic partitioning with the core mean field
shared half-and-half between fragments, which reduces to the exact energy
when a single fragment spans the whole system (a test-suite invariant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConvergenceError, ValidationError
from repro.dmet.bath import EmbeddingBasis, build_bath
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

#: Largest entry of |M - P^T M P| (M = h1, the mean-field density, h2) a
#: signed orbital permutation P may leave and still count as a symmetry,
#: and the largest difference two fragments' bath singular values may
#: show.  Exact symmetries of the systems built here leave <= 1.2e-14
#: (rounding of the integrals and of the SCF density); moving one atom of
#: ``chain:8`` by 1e-3 A leaves 2e-4..5e-4.  A near-symmetry accepted at
#: this size moves the energy at about this size.
SYMMETRY_TOLERANCE = 1e-10

#: Budget of the chemical-potential search (evaluations of N(mu)).
MAX_MU_ITERATIONS = 30


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


def fragment_orbits(system: OrthogonalSystem, fragments: list[list[int]],
                    baths: list[EmbeddingBasis]) -> list[list[int]]:
    """Group fragments into orbits of the system's symmetries.

    Fragment k joins the orbit of an earlier representative r when the
    two baths have the same size and singular values (a bath-tolerance cut
    that rounding put in different places fails here) and a symmetry maps
    r's orbitals onto k's (:func:`_find_symmetry`); otherwise k starts an
    orbit of its own, so a symmetry that is missed costs a solve, never
    the energy.  Orbits list fragment indices in increasing order, the
    first being the representative.
    """
    atoms = _AtomGraph(system)
    orbits: list[list[int]] = []
    for k, frag in enumerate(fragments):
        for orbit in orbits:
            r = orbit[0]
            if (_same_bath(baths[r], baths[k])
                    and _find_symmetry(system, atoms, fragments[r], frag)):
                orbit.append(k)
                break
        else:
            orbits.append([k])
    return orbits


def _same_bath(a: EmbeddingBasis, b: EmbeddingBasis) -> bool:
    return (a.n_fragment == b.n_fragment and a.n_bath == b.n_bath
            and a.entanglement_spectrum.shape == b.entanglement_spectrum.shape
            and np.allclose(a.entanglement_spectrum, b.entanglement_spectrum,
                            rtol=0.0, atol=SYMMETRY_TOLERANCE))


class _AtomGraph:
    """What the symmetry search knows of each atom before it places any.

    ``orbitals[a]`` are atom a's orbitals in label order.  ``alike[a, b]``
    holds when a symmetry could map atom a onto atom b: as many orbitals,
    and each orbital's |h1| and density rows equal as sorted multisets
    (a signed permutation only reorders and signs a row).
    ``coupling[a, b]`` is the largest |h1| or density element between the
    two atoms' orbitals: a symmetry keeps it, so the image of a is
    searched for first among the atoms coupled to the images of a's
    neighbours as a is to them.
    """

    def __init__(self, system: OrthogonalSystem):
        self.orbitals: dict[int, list[int]] = {}
        for orb, atom in enumerate(system.orbital_atoms):
            self.orbitals.setdefault(atom, []).append(orb)
        n_atoms = max(self.orbitals) + 1
        mats = (np.abs(system.h1), np.abs(system.density))
        signature = np.concatenate([np.sort(m, axis=1) for m in mats], axis=1)
        self.alike = np.zeros((n_atoms, n_atoms), dtype=bool)
        for size in {len(o) for o in self.orbitals.values()}:
            group = [a for a, o in self.orbitals.items() if len(o) == size]
            rows = np.stack([signature[self.orbitals[a]].ravel()
                             for a in group])
            gap = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
            self.alike[np.ix_(group, group)] = gap <= SYMMETRY_TOLERANCE
        strength = np.maximum(*mats)
        by_atom = np.zeros((n_atoms, strength.shape[0]))
        for a, orbs in self.orbitals.items():
            by_atom[a] = strength[orbs].max(axis=0)
        self.coupling = np.zeros((n_atoms, n_atoms))
        for b, orbs in self.orbitals.items():
            self.coupling[:, b] = by_atom[:, orbs].max(axis=1)

    def search_order(self, first: list[int]) -> tuple[list[int], list]:
        """``first``, then every other atom, each next the one most
        strongly coupled to those before it; with each atom, that
        strongest partner before it (None for the ``first`` ones)."""
        order = list(first)
        anchors: list = [None] * len(first)
        rest = [a for a in self.orbitals if a not in first]
        while rest:
            block = self.coupling[np.ix_(order, rest)]
            i, j = np.unravel_index(int(np.argmax(block)), block.shape)
            order.append(rest.pop(j))
            anchors.append(order[i])
        return order, anchors


def _atoms_fit(mats: tuple, oa: list[int], ob: list[int],
               cols_a: list[int], cols_b: list[int]) -> bool:
    """Do orbitals ``oa`` couple to ``cols_a`` as ``ob`` do to ``cols_b``,
    in every one of ``mats`` (magnitudes)?  One placement of the search."""
    return all(np.max(np.abs(m[np.ix_(oa, cols_a)] - m[np.ix_(ob, cols_b)]))
               <= SYMMETRY_TOLERANCE for m in mats)


def _find_symmetry(system: OrthogonalSystem, atoms: _AtomGraph,
                   source: list[int], target: list[int]) -> bool:
    """Is there a symmetry of ``system`` mapping orbitals ``source`` onto
    ``target``?

    A symmetry here is a signed orbital permutation induced by an atom
    permutation: atom a's orbitals map to atom b's in label order, each
    with a sign (a p orbital may flip), and h1, h2 and the density are
    unchanged.  Atom maps are searched depth first, ``source``'s atoms
    first and onto ``target``'s, then each atom after the one it couples
    to most strongly; an atom is placed only onto an atom alike to it
    (:class:`_AtomGraph`) where the magnitudes of its h1 and density
    blocks with the atoms placed so far match (:func:`_atoms_fit`), and
    is tried first where its strongest coupling is kept, so a search
    never walks all n! maps and on a ring places each atom once.  The
    signs of a complete map are then read off its strongest couplings
    and the whole map is checked.
    """
    owner = system.orbital_atoms
    src_atoms = sorted({owner[i] for i in source})
    dst_atoms = sorted({owner[i] for i in target})
    if len(src_atoms) != len(dst_atoms):
        return False
    orbitals, coupling = atoms.orbitals, atoms.coupling
    # source atoms go onto target atoms, the rest onto the rest
    order, anchors = atoms.search_order(src_atoms)
    rest = [b for b in orbitals if b not in dst_atoms]
    mats = (np.abs(system.h1), np.abs(system.density))
    placed_src: list[int] = []   # orbitals placed so far, and their images
    placed_dst: list[int] = []
    image: dict[int, int] = {}

    def extend(depth: int) -> bool:
        if depth == len(order):
            perm = np.empty(len(owner), dtype=int)
            perm[placed_src] = placed_dst
            return (set(perm[source].tolist()) == set(target)
                    and _is_symmetry(system, perm))
        a, anchor = order[depth], anchors[depth]
        pool = dst_atoms if depth < len(src_atoms) else rest
        candidates = [b for b in pool
                      if atoms.alike[a, b] and b not in image.values()]
        if anchor is not None:
            want = coupling[a, anchor]
            candidates.sort(
                key=lambda b: abs(coupling[b, image[anchor]] - want))
        for b in candidates:
            if _atoms_fit(mats, orbitals[a], orbitals[b],
                          placed_src + orbitals[a], placed_dst + orbitals[b]):
                image[a] = b
                placed_src.extend(orbitals[a])
                placed_dst.extend(orbitals[b])
                if extend(depth + 1):
                    return True
                del image[a]
                del placed_src[-len(orbitals[a]):]
                del placed_dst[-len(orbitals[b]):]
        return False

    return extend(0)


def _is_symmetry(system: OrthogonalSystem, perm: np.ndarray) -> bool:
    """Find signs s with s_i s_j M[perm_i, perm_j] = M[i, j] and check them.

    Each sign follows from the strongest h1 or density coupling to an
    orbital signed before it (a maximum spanning tree grown from orbital
    0, Prim's order), so a weak, rounding-sized element never sets one.
    """
    h1, dens = system.h1, system.density
    n = perm.size
    weight = np.maximum(np.abs(h1), np.abs(dens))
    ref = np.where(np.abs(h1) >= np.abs(dens), h1, dens)
    mapped = ref[np.ix_(perm, perm)]
    signs = np.zeros(n)
    signs[0] = 1.0
    best = weight[0].copy()
    parent = np.zeros(n, dtype=int)
    for _ in range(n - 1):
        j = int(np.argmax(np.where(signs == 0.0, best, -1.0)))
        i = parent[j]
        signs[j] = signs[i] if ref[i, j] * mapped[i, j] >= 0.0 else -signs[i]
        closer = (signs == 0.0) & (weight[j] > best)
        best[closer] = weight[j][closer]
        parent[closer] = j
    ss = np.outer(signs, signs)
    for m in (h1, dens):
        if np.max(np.abs(m[np.ix_(perm, perm)] * ss - m)) > SYMMETRY_TOLERANCE:
            return False
    s4 = ss[:, :, None, None] * ss[None, None, :, :]
    h2 = system.h2
    return bool(np.max(np.abs(h2[np.ix_(perm, perm, perm, perm)] * s4 - h2))
                <= SYMMETRY_TOLERANCE)


@dataclass
class DMETResult:
    """Converged DMET state."""

    energy: float
    chemical_potential: float
    n_electrons: float              # sum of fragment electron numbers
    n_electrons_target: int
    fragment_solutions: list[FragmentSolution]  # one per orbit
    fragment_energies: list[float]  # one per orbit, weight len(orbits[k])
    orbits: list[list[int]]         # fragment indices; the first was solved
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
        If True, assert that the fragments form a single symmetry orbit
        (a ring cut into equal fragments does; a chain does not, its
        mirror pairs them up): anything else is a ``ValidationError``
        naming the orbits found.  Orbits are found whatever this says
        (:func:`fragment_orbits`), so it saves nothing; it is kept because
        ``benchmarks/e2e`` is frozen and passes it.
    mu_tolerance:
        Convergence threshold on |N(mu) - N_target| (electrons), met
        within :data:`MAX_MU_ITERATIONS`.
    n_workers:
        1 solves the fragments in-line; ``n_workers > 1`` solves one
        fragment per orbit on that many worker processes - the paper's first
        (embarrassingly parallel) level executed for real, as separate
        processes that share nothing (the solver must pickle).  A count
        below 1 is a ``ValidationError`` here, whether or not a dispatch
        ever happens.
    executor:
        Must be "process".  Kept only because ``benchmarks/e2e`` is
        frozen and passes it; any other value is a ``ValidationError``.
    """

    def __init__(self, system: OrthogonalSystem,
                 fragments: list[list[int]], solver=None, *,
                 all_fragments_equivalent: bool = False,
                 mu_tolerance: float = 1e-5,
                 n_workers: int = 1, executor: str = "process"):
        self.system = system
        self.solver = solver if solver is not None else FCIFragmentSolver()
        self.mu_tolerance = mu_tolerance
        if n_workers < 1:
            raise ValidationError(
                f"n_workers must be at least 1, got {n_workers!r}")
        if executor != "process":
            raise ValidationError(
                f"unknown executor {executor!r}; fragments run in-line "
                f"(n_workers=1) or on 'process' workers (n_workers > 1)")
        self.n_workers = n_workers

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

        baths = [build_bath(system.density, frag) for frag in self.fragments]
        self.orbits = fragment_orbits(system, self.fragments, baths)
        if all_fragments_equivalent and len(self.orbits) > 1:
            raise ValidationError(
                f"all_fragments_equivalent=True, but the fragments form "
                f"{len(self.orbits)} symmetry orbits: {self.orbits}")
        # embedding problems are mu-independent: build once per orbit
        self.problems: list[EmbeddingProblem] = [
            build_embedding_hamiltonian(system, baths[orbit[0]])
            for orbit in self.orbits]

    # -- single evaluation at fixed mu -------------------------------------------

    def evaluate(self, mu: float) -> tuple[float, float, list[FragmentSolution],
                                           list[float]]:
        """Solve each orbit's representative fragment at ``mu``.

        Returns (total energy, total fragment electron count, solutions,
        fragment energies), solutions and energies one per orbit; the
        totals weight each by its orbit's size.
        """
        _M_MU_ITERATIONS.inc()
        _M_FRAGMENT_SOLVES.inc(len(self.problems))
        with _trace.span("dmet.evaluate", mu=float(mu),
                         n_fragments=len(self.problems)):
            if self.n_workers > 1 and len(self.problems) > 1:
                from repro.parallel.threelevel import ThreeLevelDriver

                solutions = ThreeLevelDriver.run_fragments_local(
                    self.problems, self.solver, mu,
                    max_workers=self.n_workers)
            else:
                solutions = [self.solver.solve(p, mu=mu)
                             for p in self.problems]
        energies: list[float] = []
        e_total = self.system.constant
        n_total = 0.0
        for orbit, problem, sol in zip(self.orbits, self.problems, solutions):
            e_frag = self._fragment_energy(problem, sol)
            energies.append(e_frag)
            e_total += len(orbit) * e_frag
            n_total += len(orbit) * sol.n_electrons_fragment
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

    def run(self, *, fit_chemical_potential: bool = True) -> DMETResult:
        """Run DMET from mu = 0; fits mu so fragment electrons sum to the
        target."""
        target = float(self.system.n_electrons)

        energy, n_elec, sols, fes = self.evaluate(0.0)
        history = [(0.0, n_elec)]
        if (not fit_chemical_potential
                or abs(n_elec - target) < self.mu_tolerance):
            return DMETResult(
                energy=energy, chemical_potential=0.0, n_electrons=n_elec,
                n_electrons_target=int(target), fragment_solutions=sols,
                fragment_energies=fes, orbits=self.orbits, mu_iterations=1,
            )

        # secant iteration on N(mu) - target; N is monotone increasing in mu
        mu_prev, f_prev = 0.0, n_elec - target
        mu_cur = 0.05 if f_prev < 0 else -0.05
        for it in range(2, MAX_MU_ITERATIONS + 1):
            energy, n_elec, sols, fes = self.evaluate(mu_cur)
            history.append((mu_cur, n_elec))
            f_cur = n_elec - target
            if abs(f_cur) < self.mu_tolerance:
                return DMETResult(
                    energy=energy, chemical_potential=mu_cur,
                    n_electrons=n_elec, n_electrons_target=int(target),
                    fragment_solutions=sols, fragment_energies=fes,
                    orbits=self.orbits, mu_iterations=it,
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
            f"{MAX_MU_ITERATIONS} iterations; history={history[-4:]}",
            iterations=MAX_MU_ITERATIONS,
            residual=abs(f_cur),
        )
