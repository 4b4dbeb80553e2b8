"""High-level fragment solvers for DMET: exact FCI and (MPS-/SV-)VQE.

Both produce the same :class:`FragmentSolution` - raw energy, spin-summed
1-RDM and 2-RDM in the *embedding orbital* basis - so the DMET driver is
solver-agnostic ("which can be done using the state vector or MPS simulators
(or ultimately using a quantum computer)", Sec. III-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from repro.backends import check_backend
from repro.common.errors import ConvergenceError, ValidationError
from repro.chem.mo import MOIntegrals
from repro.chem.fci import FCISolver
from repro.dmet.embedding import EmbeddingProblem
from repro.vqe.optimizers import DEFAULT_OPTIMIZER, check_optimizer


#: Default VQE tolerance of a fragment solve.  The DMET energy is built
#: from the fragment's RDMs, which are first order in the VQE parameters:
#: a solve stopped at 1e-8 Ha left the H4 ring's 2-atom-fragment DMET
#: energy uncertain by ~5e-6 Ha (forward-difference SLSQP under 1e-16
#: perturbations of h1), at 1e-12 by ~3e-8 Ha.
FRAGMENT_TOLERANCE = 1e-12


@dataclass
class FragmentSolution:
    """Solver output for one embedded fragment."""

    energy: float            # <H_emb> without chemical-potential correction
    one_rdm: np.ndarray      # spin-summed, embedding basis
    two_rdm: np.ndarray      # spin-summed, chemists' pairing, embedding basis
    n_electrons_fragment: float  # trace of the 1-RDM over fragment orbitals
    solver: str = ""
    details: dict | None = None


def orthonormal_rhf_density(h1: np.ndarray, h2: np.ndarray, n_electrons: int,
                            *, max_iterations: int = 200,
                            tolerance: float = 1e-10
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-shell SCF in an orthonormal basis: returns (density, C).

    Used to get the DMET low-level density for lattice models and the
    reference determinant for VQE fragment solvers.
    """
    if n_electrons % 2:
        raise ValidationError("closed-shell SCF needs an even electron count")
    n_occ = n_electrons // 2
    n = h1.shape[0]
    if n_occ > n:
        raise ValidationError(f"{n_electrons} electrons exceed 2x{n} orbitals")
    # core guess.  When its frontier shell is degenerate, which of its
    # orbitals LAPACK returns first follows last-bit rounding of h1, and so
    # does the SCF solution reached (on the H4 ring's fragments, one 66 mHa
    # above the other).  Start from rotations of the HOMO into each
    # degenerate virtual too and keep the lowest energy; ties go to the
    # plain guess.
    e, c = sla.eigh(h1)
    best = None
    for guess in _frontier_guesses(e, c, n_occ):
        try:
            d, c_out = _closed_shell_scf(h1, h2, n_occ, guess,
                                         max_iterations, tolerance)
        except ConvergenceError:
            if best is None:
                raise
            continue
        j = np.einsum("pqrs,rs->pq", h2, d, optimize=True)
        k = np.einsum("prqs,rs->pq", h2, d, optimize=True)
        energy = float(np.sum(d * (h1 + 0.5 * j - 0.25 * k)))
        if best is None or energy < best[0] - 1e-10:
            best = (energy, d, c_out)
    return best[1], best[2]


def _frontier_guesses(e: np.ndarray, c: np.ndarray, n_occ: int):
    """The core guess, then its HOMO rotated into each degenerate virtual."""
    yield c
    if n_occ == 0 or n_occ == e.size:
        return
    homo = n_occ - 1
    for r in range(n_occ, e.size):
        if e[r] - e[homo] > 1e-8 * max(1.0, abs(e[homo])):
            break
        for angle in (0.25 * np.pi, 0.5 * np.pi, 0.75 * np.pi):
            g = c.copy()
            g[:, homo] = np.cos(angle) * c[:, homo] + np.sin(angle) * c[:, r]
            g[:, r] = -np.sin(angle) * c[:, homo] + np.cos(angle) * c[:, r]
            yield g


def _closed_shell_scf(h1, h2, n_occ, c, max_iterations, tolerance):
    d = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    for _ in range(max_iterations):
        j = np.einsum("pqrs,rs->pq", h2, d, optimize=True)
        k = np.einsum("prqs,rs->pq", h2, d, optimize=True)
        f = h1 + j - 0.5 * k
        _, c = sla.eigh(f)
        d_new = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        if np.max(np.abs(d_new - d)) < tolerance:
            return d_new, c
        d = 0.5 * d + 0.5 * d_new  # damped update for robustness
    raise ConvergenceError("orthonormal-basis SCF did not converge",
                           iterations=max_iterations)


class FCIFragmentSolver:
    """Exact diagonalization of the embedded problem."""

    name = "fci"

    def solve(self, problem: EmbeddingProblem, mu: float = 0.0
              ) -> FragmentSolution:
        h1 = problem.h1_with_mu(mu)
        mo = MOIntegrals(h1=h1, h2=problem.h2, constant=0.0,
                         n_electrons=problem.n_electrons)
        res = FCISolver(mo).solve()
        nf = problem.basis.n_fragment
        n_frag_elec = float(np.trace(res.one_rdm[:nf, :nf]))
        return FragmentSolution(
            energy=res.energy,
            one_rdm=res.one_rdm,
            two_rdm=res.two_rdm,
            n_electrons_fragment=n_frag_elec,
            solver=self.name,
            details={"n_determinants": res.n_determinants},
        )


class VQEFragmentSolver:
    """UCCSD-VQE on the embedded problem (the paper's DMET-MPS-VQE mode).

    The embedded Hamiltonian is first brought to its own canonical RHF
    orbitals (so the HF determinant is a good reference), then solved with
    UCCSD-VQE on the chosen simulator; RDMs are measured on the final state
    (every element from one pass over the state,
    :func:`repro.vqe.rdm.measure_rdms`) and rotated back to the embedding
    orbital basis for the DMET energy assembly.

    ``simulator`` is a name of :data:`repro.backends.BACKENDS`:
    "statevector" (dense; each excitation one rotation of the amplitude
    pairs it couples, the fastest engine at DMET fragment sizes, the
    default), "mps" (the paper-faithful MPS pipeline), "density_matrix"
    or "fast".

    The gradient source is not an option: ``VQE`` resolves it by its one
    rule (:meth:`repro.vqe.vqe.VQE.default_gradient`).  The default
    optimizer ("l-bfgs-b") and the other gradient optimizers on a backend
    with the adjoint ("mps", "statevector") get
    ``grad="adjoint"`` - energy, gradient and the final RDM state then
    share one prepared state per theta.  Gradient-free optimizers
    ("cobyla" by name) and "fast" (the statevector under a name without
    the adjoint) get no source.  ``self.grad`` and
    ``details["grad"]`` record which.

    The solver holds plain config and its warm-start amplitudes, so it
    pickles.  Process workers receive a copy per task and solve cold: what
    a worker learns never comes back to this object.
    """

    def __init__(self, *, simulator: str = "statevector",
                 max_bond_dimension: int | None = None,
                 optimizer: str = DEFAULT_OPTIMIZER,
                 tolerance: float = FRAGMENT_TOLERANCE,
                 max_iterations: int = 4000,
                 initial_parameters: str = "zeros",
                 warm_start: bool = True):
        from repro.vqe.vqe import VQE

        # fails fast on unknown optimizer and backend names
        check_optimizer(optimizer)
        self.grad = VQE.default_gradient(optimizer, simulator)
        self.simulator = simulator
        self.max_bond_dimension = max_bond_dimension
        self.optimizer = optimizer
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.initial_parameters = initial_parameters
        # the DMET mu loop re-solves the same fragment at nearby chemical
        # potentials; starting from the previous amplitudes cuts the
        # optimizer's work dramatically.  Keyed by the fragment's orbitals,
        # so fragment k at mu_i starts from fragment k at mu_(i-1), never
        # from another fragment's (a different Hamiltonian)
        self.warm_start = warm_start
        self._last_parameters: dict[tuple[int, ...], np.ndarray] = {}
        self.name = f"vqe-{simulator}"

    def solve(self, problem: EmbeddingProblem, mu: float = 0.0
              ) -> FragmentSolution:
        from repro.circuits.uccsd import UCCSDAnsatz
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.vqe.vqe import VQE

        h1 = problem.h1_with_mu(mu)
        n_elec = problem.n_electrons
        # canonical orbitals of the embedded problem
        _, c = orthonormal_rhf_density(h1, problem.h2, n_elec)
        h1_mo = c.T @ h1 @ c
        g = np.einsum("pqrs,pi->iqrs", problem.h2, c, optimize=True)
        g = np.einsum("iqrs,qj->ijrs", g, c, optimize=True)
        g = np.einsum("ijrs,rk->ijks", g, c, optimize=True)
        g_mo = np.einsum("ijks,sl->ijkl", g, c, optimize=True)

        mo = MOIntegrals(h1=h1_mo, h2=g_mo, constant=0.0, n_electrons=n_elec)
        hamiltonian = molecular_qubit_hamiltonian(mo)
        ansatz = UCCSDAnsatz(mo.n_orbitals, n_elec)
        vqe = VQE(hamiltonian, ansatz, simulator=self.simulator,
                  max_bond_dimension=self.max_bond_dimension,
                  optimizer=self.optimizer, tolerance=self.tolerance,
                  max_iterations=self.max_iterations)
        key = tuple(problem.basis.fragment)
        last = self._last_parameters.get(key)
        if (self.warm_start and last is not None
                and last.size == ansatz.n_parameters):
            x0 = last
        else:
            x0 = ansatz.initial_parameters(self.initial_parameters)
        result = vqe.run(x0)
        self._last_parameters[key] = result.parameters.copy()
        gamma_mo, g2_mo = vqe.reduced_density_matrices(result.parameters)

        # rotate RDMs back to the embedding orbital basis
        gamma = c @ gamma_mo @ c.T
        g2 = np.einsum("pqrs,ip->iqrs", g2_mo, c, optimize=True)
        g2 = np.einsum("iqrs,jq->ijrs", g2, c, optimize=True)
        g2 = np.einsum("ijrs,kr->ijks", g2, c, optimize=True)
        g2 = np.einsum("ijks,ls->ijkl", g2, c, optimize=True)

        nf = problem.basis.n_fragment
        return FragmentSolution(
            energy=result.energy,
            one_rdm=gamma,
            two_rdm=g2,
            n_electrons_fragment=float(np.trace(gamma[:nf, :nf])),
            solver=self.name,
            details={
                "vqe_evaluations": result.n_evaluations,
                "vqe_gradient_evaluations": result.n_gradient_evaluations,
                "grad": vqe.grad,
                "vqe_iterations": result.n_iterations,
                "n_parameters": ansatz.n_parameters,
            },
        )


def make_fragment_solver(name: str, *,
                         max_bond_dimension: int | None = None,
                         optimizer: str = DEFAULT_OPTIMIZER,
                         tolerance: float = FRAGMENT_TOLERANCE,
                         max_iterations: int = 4000,
                         **vqe_options):
    """Build a fragment solver from its name (the single dispatch point).

    ``"fci"`` gives exact diagonalization; ``"vqe-<backend>"`` gives
    UCCSD-VQE on a backend of :data:`repro.backends.BACKENDS`
    (``vqe-statevector``, ``vqe-mps``, ``vqe-density_matrix``,
    ``vqe-fast``).  VQE options are ignored by the FCI solver so one call
    signature serves every solver choice.
    """
    if name == "fci":
        return FCIFragmentSolver()
    if name.startswith("vqe-"):
        return VQEFragmentSolver(
            simulator=check_backend(name, "vqe-"),
            max_bond_dimension=max_bond_dimension,
            optimizer=optimizer, tolerance=tolerance,
            max_iterations=max_iterations, **vqe_options)
    raise ValidationError(
        f"unknown DMET solver {name!r}; use 'fci' or 'vqe-<backend>'"
    )


def embedded_rhf(problem: EmbeddingProblem, mu: float = 0.0
                 ) -> FragmentSolution:
    """Mean-field fragment 'solver' (diagnostics/baselines)."""
    h1 = problem.h1_with_mu(mu)
    d, _ = orthonormal_rhf_density(h1, problem.h2, problem.n_electrons)
    j = np.einsum("pqrs,rs->pq", problem.h2, d, optimize=True)
    k = np.einsum("prqs,rs->pq", problem.h2, d, optimize=True)
    energy = float(0.5 * np.einsum("pq,pq->", d, 2 * h1 + j - 0.5 * k))
    # mean-field 2-RDM: Gamma_pqrs = g_pq g_rs - 1/2 g_ps g_rq
    g2 = (np.einsum("pq,rs->pqrs", d, d)
          - 0.5 * np.einsum("ps,rq->pqrs", d, d))
    nf = problem.basis.n_fragment
    return FragmentSolution(
        energy=energy,
        one_rdm=d,
        two_rdm=g2,
        n_electrons_fragment=float(np.trace(d[:nf, :nf])),
        solver="rhf",
    )
