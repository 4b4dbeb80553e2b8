"""Tests for the Davidson-Liu eigensolver."""

import importlib

import numpy as np
import pytest

from repro.common.errors import ConvergenceError
from repro.chem.davidson import davidson

# the module itself: ``repro.chem.davidson`` names the function
davidson_module = importlib.import_module("repro.chem.davidson")


def _random_sparse_symmetric(dim, seed=0, diag_spread=10.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) * 0.05
    a = 0.5 * (a + a.T)
    a += np.diag(np.linspace(0.0, diag_spread, dim))
    return a


class TestDavidson:
    def test_lowest_eigenvalue(self):
        a = _random_sparse_symmetric(200, seed=1)
        exact = np.linalg.eigvalsh(a)[0]
        out = davidson(lambda x: a @ x, np.diag(a).copy())
        assert out.eigenvalue == pytest.approx(exact, abs=1e-8)
        assert out.residual_norm < 1e-9

    def test_eigenvector_quality(self):
        a = _random_sparse_symmetric(100, seed=3)
        out = davidson(lambda x: a @ x, np.diag(a).copy())
        v = out.eigenvector
        assert np.linalg.norm(a @ v - out.eigenvalue * v) < 1e-8
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_subspace_collapse_path(self, monkeypatch):
        """A small subspace forces collapses but must still converge."""
        monkeypatch.setattr(davidson_module, "MAX_SUBSPACE", 6)
        monkeypatch.setattr(davidson_module, "MAX_ITERATIONS", 500)
        a = _random_sparse_symmetric(120, seed=4)
        exact = np.linalg.eigvalsh(a)[0]
        out = davidson(lambda x: a @ x, np.diag(a).copy())
        assert out.eigenvalue == pytest.approx(exact, abs=1e-7)

    def test_lowest_diagonal_not_at_index_zero(self):
        """A unit guess off index 0 keeps its sign as the basis grows."""
        a = _random_sparse_symmetric(200, seed=1)[::-1, ::-1].copy()
        exact = np.linalg.eigvalsh(a)[0]
        out = davidson(lambda x: a @ x, np.diag(a).copy())
        assert out.eigenvalue == pytest.approx(exact, abs=1e-8)

    def test_initial_guess(self):
        """The guess is the unit vector at the lowest diagonal entry: on a
        diagonal operator it is the answer, after one matvec."""
        diagonal = np.array([3.0, 1.0, -2.0, 5.0])
        out = davidson(lambda x: diagonal * x, diagonal)
        assert out.n_iterations == out.n_matvecs == 1
        assert out.eigenvalue == -2.0
        assert np.array_equal(np.abs(out.eigenvector), [0.0, 0.0, 1.0, 0.0])

    def test_matvec_count_tracked(self):
        a = _random_sparse_symmetric(60, seed=6)
        out = davidson(lambda x: a @ x, np.diag(a).copy())
        assert out.n_matvecs >= out.n_iterations

    def test_validation(self):
        """One root from the lowest diagonal entry: the root count and the
        guess are no options, the convergence controls module constants."""
        a = np.eye(4)
        for option in ("n_roots", "initial_guess", "max_subspace",
                       "tolerance", "max_iterations"):
            with pytest.raises(TypeError):
                davidson(lambda x: a @ x, np.ones(4), **{option: 2})

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(davidson_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(davidson_module, "TOLERANCE", 1e-14)
        a = _random_sparse_symmetric(100, seed=7, diag_spread=0.0)
        with pytest.raises(ConvergenceError):
            davidson(lambda x: a @ x, np.diag(a).copy())


class TestFCIDavidson:
    def test_matches_dense(self, water):
        from repro.chem.fci import FCISolver

        dense = FCISolver(water.mo, dense_cutoff=10**6).solve()
        dav = FCISolver(water.mo, dense_cutoff=1).solve()
        assert dav.energy == pytest.approx(dense.energy, abs=1e-12)

    def test_lih_does_not_stagnate(self, lih):
        """LiH/STO-3G (225 determinants) used to stall at residual 2.9e-8."""
        from repro.chem.fci import FCISolver

        dense = FCISolver(lih.mo, dense_cutoff=10**6).solve()
        dav = FCISolver(lih.mo, dense_cutoff=1).solve()
        assert dav.energy == pytest.approx(dense.energy, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_hubbard_ring_lowest_diagonal_off_index_zero(self, n_sites):
        """The guess is a unit vector away from index 0: no sign flips."""
        from repro.chem.fci import FCISolver
        from repro.chem.lattice import hubbard_ring

        mo = hubbard_ring(n_sites, u=4.0, t=1.0).to_mo_integrals()
        solver = FCISolver(mo, dense_cutoff=1)
        assert np.argmin(solver.hamiltonian_diagonal()) != 0
        dense = FCISolver(mo, dense_cutoff=10**6).solve()
        assert solver.solve().energy == pytest.approx(dense.energy, abs=1e-12)

    def test_diagonal_matches_dense(self, h2, water):
        from repro.chem.fci import FCISolver

        for solver in (FCISolver(h2.mo),
                       FCISolver(water.mo, n_alpha=6, n_beta=4)):
            hdiag = solver.hamiltonian_diagonal().ravel()
            dense = solver._dense_hamiltonian()
            assert np.allclose(hdiag, np.diag(dense), atol=1e-12)

    def test_unknown_method(self, h2):
        """Davidson is the one iterative path: ``method=`` is no keyword."""
        from repro.chem.fci import FCISolver

        for method in ("davidson", "eigsh", "lanczos"):
            with pytest.raises(TypeError):
                FCISolver(h2.mo, method=method)
