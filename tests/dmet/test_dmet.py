"""Tests for the DMET driver: exactness limits, accuracy, mu fitting."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.dmet.dmet import DMET, atoms_per_fragment
from repro.dmet.orthogonalize import from_lattice, lowdin_orthogonalize
from repro.dmet.solvers import FCIFragmentSolver, VQEFragmentSolver

from .all_fragments_reference import all_fragments_evaluate


@pytest.fixture(scope="module")
def h6_system(request):
    h6 = request.getfixturevalue("h6_ring")
    return h6, lowdin_orthogonalize(h6.scf)


class TestExactLimits:
    def test_single_fragment_equals_fci(self, h6_system):
        h6, system = h6_system
        dmet = DMET(system, [list(range(6))])
        res = dmet.run(fit_chemical_potential=False)
        assert res.energy == pytest.approx(h6.fci.energy, abs=1e-8)
        assert res.chemical_potential == 0.0

    def test_fragments_must_cover(self, h6_system):
        _, system = h6_system
        with pytest.raises(ValidationError):
            DMET(system, [[0, 1], [2, 3]])  # orbitals 4,5 missing

    def test_fragments_must_not_overlap(self, h6_system):
        _, system = h6_system
        with pytest.raises(ValidationError):
            DMET(system, [[0, 1, 2], [2, 3, 4, 5]])

    @pytest.mark.parametrize("n_workers, executor, message", [
        (0, "thread", "n_workers must be at least 1"),
        (-3, "process", "n_workers must be at least 1"),
        (1, "proces", "unknown executor 'proces'"),
        (2, "threads", "unknown executor 'threads'"),
        (2, "thread", "unknown executor 'thread'"),
    ])
    def test_bad_workers_or_executor_rejected(self, h6_system, n_workers,
                                              executor, message):
        """At construction - not only if a dispatch ever happens.  The
        only executor name left is "process"."""
        _, system = h6_system
        with pytest.raises(ValidationError, match=message):
            DMET(system, [list(range(6))], n_workers=n_workers,
                 executor=executor)


class TestAccuracy:
    def test_h6_two_atom_fragments(self, h6_system):
        """Paper Fig. 7a claims <0.5% relative error for H rings."""
        h6, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, all_fragments_equivalent=True).run()
        rel = abs((res.energy - h6.fci.energy) / h6.fci.energy)
        assert rel < 0.005
        assert res.energy < h6.scf.energy  # captures correlation

    def test_equivalence_shortcut_matches_full(self, h6_system):
        """One solve for the ring's one orbit gives what solving all three
        fragments gives, at the fitted mu."""
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        fast = DMET(system, frags, all_fragments_equivalent=True).run()
        assert fast.orbits == [[0, 1, 2]]
        energy, n_elec, energies = all_fragments_evaluate(
            system, frags, fast.chemical_potential)
        assert fast.energy == pytest.approx(energy, abs=1e-10)
        assert fast.n_electrons == pytest.approx(n_elec, abs=1e-10)
        assert energies == pytest.approx(3 * fast.fragment_energies,
                                         abs=1e-10)

    def test_electron_count_conserved(self, h6_system):
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, all_fragments_equivalent=True).run()
        assert res.n_electrons == pytest.approx(6.0, abs=1e-4)

    def test_vqe_solver_matches_fci_solver(self, h6_system):
        h6, system = h6_system
        frags = atoms_per_fragment(system, 2)
        fci_res = DMET(system, frags, all_fragments_equivalent=True).run()
        vqe_res = DMET(system, frags,
                       solver=VQEFragmentSolver(simulator="statevector",
                                                tolerance=1e-9),
                       all_fragments_equivalent=True).run()
        assert vqe_res.energy == pytest.approx(fci_res.energy, abs=5e-4)

    def test_result_metadata(self, h6_system):
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, all_fragments_equivalent=True).run()
        assert res.max_fragment_qubits() == 8  # 2 frag + 2 bath orbitals
        assert res.mu_iterations >= 1
        assert len(res.fragment_energies) == 1  # equivalent shortcut


class TestHubbardDMET:
    def test_hubbard_ring_dmet_vs_fci(self):
        """Lattice pipeline end to end: Hubbard ring, 2-site fragments."""
        from repro.chem.lattice import hubbard_ring
        from repro.chem.fci import FCISolver

        lat = hubbard_ring(6, u=4.0, t=1.0)
        exact = FCISolver(lat.to_mo_integrals()).solve().energy
        system = from_lattice(lat)
        frags = [[0, 1], [2, 3], [4, 5]]
        res = DMET(system, frags, all_fragments_equivalent=True).run()
        rel = abs((res.energy - exact) / exact)
        assert rel < 0.03  # DMET on Hubbard at U=4t: few-percent accuracy

    def test_noninteracting_hubbard_exact(self):
        """U=0: mean-field is exact, DMET must reproduce it exactly."""
        from repro.chem.lattice import hubbard_ring
        from repro.chem.fci import FCISolver

        lat = hubbard_ring(6, u=0.0, t=1.0)
        exact = FCISolver(lat.to_mo_integrals()).solve().energy
        system = from_lattice(lat)
        res = DMET(system, [[0, 1], [2, 3], [4, 5]],
                   all_fragments_equivalent=True).run()
        assert res.energy == pytest.approx(exact, abs=1e-7)


class TestChemicalPotential:
    def test_mu_restores_electron_count(self, h6_system):
        """Without fitting the count can drift; with fitting it must not."""
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        dmet = DMET(system, frags, all_fragments_equivalent=True,
                    mu_tolerance=1e-6)
        res = dmet.run()
        assert abs(res.n_electrons - 6.0) < 1e-5

    def test_monotonic_response(self, h6_system):
        """More negative mu -> fewer electrons on the fragment."""
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        dmet = DMET(system, frags, all_fragments_equivalent=True)
        _, n_minus, _, _ = dmet.evaluate(-0.3)
        _, n_plus, _, _ = dmet.evaluate(+0.3)
        assert n_minus < n_plus

    def test_nonconvergence_raises(self, h6_system):
        from repro.common.errors import ConvergenceError

        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        dmet = DMET(system, frags, all_fragments_equivalent=True,
                    mu_tolerance=1e-14, max_mu_iterations=2)
        with pytest.raises(ConvergenceError):
            dmet.run()


class TestAtomsPerFragment:
    def test_partition_covers(self, h6_system):
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        assert len(frags) == 3
        assert sorted(sum(frags, [])) == list(range(6))

    def test_uneven_division(self, h4_ring):
        system = lowdin_orthogonalize(h4_ring.scf)
        frags = atoms_per_fragment(system, 3)
        assert len(frags) == 2
        assert len(frags[0]) == 3 and len(frags[1]) == 1

    def test_invalid_group_size(self, h6_system):
        _, system = h6_system
        with pytest.raises(ValidationError):
            atoms_per_fragment(system, 0)


@pytest.fixture(scope="module")
def h4_system(request):
    h4 = request.getfixturevalue("h4_ring")
    return lowdin_orthogonalize(h4.scf)


def _one_shot(system, atoms, solver, **dmet_options):
    """DMET at mu = 0: one solve per symmetry orbit, no mu fit.  The H4
    ring's 2-atom fragments form one orbit, its 1-atom fragments two (the
    RHF density keeps only the 2-atom shift and the mirrors)."""
    frags = atoms_per_fragment(system, atoms)
    res = DMET(system, frags, solver,
               **dmet_options).run(fit_chemical_potential=False)
    return res, res.fragment_solutions[0]


class TestGradientFirstSolver:
    """The fragment solver hands gradient optimizers the backend's adjoint
    jacobian; gradient-free configurations run what they always ran."""

    @pytest.mark.parametrize("optimizer", ["slsqp", "l-bfgs-b"])
    @pytest.mark.parametrize("backend", ["mps", "statevector"])
    def test_gradient_optimizers_run_on_the_adjoint(self, h4_system,
                                                    backend, optimizer):
        """The adjoint jacobian and the fast backend's forward differences
        land on the same converged energy."""
        res, frag = _one_shot(h4_system, 1, VQEFragmentSolver(
            simulator=backend, optimizer=optimizer, tolerance=1e-10))
        assert frag.details["grad"] == "adjoint"
        assert frag.details["vqe_gradient_evaluations"] > 0
        fast, fast_frag = _one_shot(h4_system, 1, VQEFragmentSolver(
            simulator="fast", optimizer=optimizer, tolerance=1e-10))
        assert fast_frag.details["grad"] is None
        assert fast_frag.details["vqe_gradient_evaluations"] == 0
        assert res.energy == pytest.approx(fast.energy, abs=1e-6)

    def test_eight_qubit_fragment_reaches_the_fast_optimum(self, h4_system):
        """The benchmark's configuration (vqe-mps, D=16, SLSQP) run to
        convergence: 21 energies + 12 adjoint gradients, then the rejected
        saddle-escape restart's 25 + 12 (both runs counted), where scipy's
        forward differences took ~400 energies over the same two runs."""
        fast, _ = _one_shot(h4_system, 2, VQEFragmentSolver(
            simulator="fast", optimizer="slsqp", tolerance=1e-10))
        res, frag = _one_shot(h4_system, 2, VQEFragmentSolver(
            simulator="mps", max_bond_dimension=16, optimizer="slsqp",
            tolerance=1e-10))
        assert res.energy == pytest.approx(fast.energy, abs=1e-6)
        assert frag.details["grad"] == "adjoint"
        assert frag.details["vqe_gradient_evaluations"] \
            == frag.details["vqe_iterations"]
        assert frag.details["vqe_evaluations"] < 50

    #: (simulator, optimizer, budget) -> (DMET energy, fragment energy,
    #: theta, sum of the energy history), recorded at the parent of ISSUE 19
    #: (06780fc); the budget is also the number of evaluations
    PARENT = {
        ("fast", "cobyla", 120): (
            -1.9047971005054372, -4.7781016208975995,
            [0.0017211276012972982, -0.0020751444888621687,
             0.03416691841077494, 0.005675434183591567,
             -0.0012092073614106142, 0.00241807810729896,
             0.001067170567293579, 0.11999607651526613,
             -0.03250938912164804, 0.05868717555761655,
             -0.00024476064443918876, 1.1647173674566875,
             0.008994316704899785, 0.003187297655359077],
            -553.3506918872306),
        ("mps", "cobyla", 30): (
            -1.8945364496343693, -4.7486836110663955,
            [0.001547059740700065, -0.014776518006345263,
             0.008855471438479935, -0.011009851856360362,
             -0.001887017667217085, -0.031162173815027783,
             0.005330472736596068, 0.11897403933894367,
             -0.03689766553065795, 0.07039070312836537,
             -0.0345510225985702, 1.0284477758082202,
             -0.05238664973459408, -0.004723843050094282],
            -124.13309268247755),
    }

    @pytest.mark.parametrize("config", sorted(PARENT))
    def test_gradient_free_configurations_are_what_they_were(
            self, h4_system, config, monkeypatch):
        """No source is resolved for a gradient-free optimizer, so `VQE`
        is built exactly as before and the trajectory (parameters, energy
        history) is the parent's; only the RDM summation order behind the
        DMET energy changed (1e-15)."""
        from repro.vqe.vqe import VQE

        results = []
        run = VQE.run
        monkeypatch.setattr(VQE, "run", lambda self, *args, **kwargs: (
            results.append(run(self, *args, **kwargs)) or results[-1]))
        simulator, optimizer, budget = config
        solver = VQEFragmentSolver(simulator=simulator, optimizer=optimizer,
                                   max_iterations=budget)
        assert solver.grad is None
        res, frag = _one_shot(h4_system, 2, solver)
        e_dmet, e_frag, theta, history_sum = self.PARENT[config]
        assert res.energy == pytest.approx(e_dmet, abs=1e-12)
        assert frag.energy == pytest.approx(e_frag, abs=1e-12)
        (vqe_result,) = results
        assert np.allclose(vqe_result.parameters, theta, rtol=0, atol=1e-12)
        assert len(vqe_result.history) == budget
        assert sum(vqe_result.history) == pytest.approx(history_sum,
                                                        abs=1e-10)
        assert frag.details["vqe_evaluations"] == budget
        assert frag.details["vqe_gradient_evaluations"] == 0

    def test_fast_backend_keeps_its_forward_differences(self, h4_system):
        """`fast` declares no adjoint engine, so SLSQP differentiates the
        energy itself as at the parent.  Its trajectory there depends on
        the BLAS thread count (174 evaluations on one thread, 190 on two:
        the 1e-8 difference step amplifies last-bit rounding), so only the
        converged point is pinned."""
        solver = VQEFragmentSolver(simulator="fast", optimizer="slsqp")
        assert solver.grad is None
        res, frag = _one_shot(h4_system, 2, solver)
        assert res.energy == pytest.approx(-1.914017267277309, abs=1e-6)
        assert frag.energy == pytest.approx(-4.779095143240721, abs=1e-6)
        (theta,) = solver._last_parameters.values()
        assert np.abs(theta).sum() == pytest.approx(0.6079950163619384,
                                                    abs=1e-3)
        assert frag.details["vqe_evaluations"] > 100
        assert frag.details["vqe_gradient_evaluations"] == 0

    def test_process_workers_match_serial(self, h4_system):
        """The solver with its resolved ``grad`` still pickles, and the
        default warm start is per fragment: in-line, fragment k's first
        solve starts cold as it does on a worker, not from fragment
        k-1's amplitudes."""
        frags = atoms_per_fragment(h4_system, 1)
        runs = [DMET(h4_system, frags,
                     VQEFragmentSolver(simulator="mps", optimizer="slsqp"),
                     n_workers=n_workers).run(fit_chemical_potential=False)
                for n_workers in (1, 2)]
        # not bitwise: pickling hands the worker C-contiguous integrals, so
        # its einsum sums in another order (last-bit, as at the parent)
        assert runs[0].energy == pytest.approx(runs[1].energy, abs=1e-10)
        for a, b in zip(runs[0].fragment_solutions,
                        runs[1].fragment_solutions):
            assert a.details == b.details
            assert a.details["grad"] == "adjoint"
            assert np.allclose(a.two_rdm, b.two_rdm, rtol=0, atol=1e-9)

    def test_source_follows_optimizer_and_backend(self):
        for simulator, optimizer, grad in (
                ("mps", "slsqp", "adjoint"),
                ("statevector", "L-BFGS-B", "adjoint"),
                ("mps", "cobyla", None),
                ("fast", "slsqp", None),
                # nothing to resolve to on a backend without the engine
                ("density_matrix", "slsqp", None)):
            assert VQEFragmentSolver(simulator=simulator,
                                     optimizer=optimizer).grad == grad

    def test_nan_start_is_a_structured_error(self, h4_system):
        """A poisoned warm start must not reach the DMET energy."""
        solver = VQEFragmentSolver(simulator="mps", optimizer="slsqp")
        first = atoms_per_fragment(h4_system, 1)[0]
        solver._last_parameters[tuple(first)] = np.array([0.0, np.nan])
        with pytest.raises(ValidationError, match="parameter 1 is nan") as err:
            _one_shot(h4_system, 1, solver)
        assert err.value.flight is not None


class TestWarmStart:
    def test_each_fragment_starts_from_its_own_amplitudes(self, h4_system,
                                                          monkeypatch):
        """Fragment k at mu_i starts from fragment k at mu_(i-1); the first
        solve of every fragment starts cold, whatever was solved before."""
        from repro.vqe.vqe import VQE

        starts, finals = [], []
        run = VQE.run

        def wrapper(self, x0, *args, **kwargs):
            starts.append(np.array(x0, copy=True))
            result = run(self, x0, *args, **kwargs)
            finals.append(result.parameters.copy())
            return result

        monkeypatch.setattr(VQE, "run", wrapper)
        dmet = DMET(h4_system, atoms_per_fragment(h4_system, 1),
                    VQEFragmentSolver(simulator="statevector",
                                      optimizer="slsqp"))
        n = len(dmet.problems)
        dmet.evaluate(0.0)
        dmet.evaluate(0.05)
        assert len(starts) == 2 * n
        for k in range(n):
            assert not np.any(starts[k])
            assert np.array_equal(starts[n + k], finals[k])
