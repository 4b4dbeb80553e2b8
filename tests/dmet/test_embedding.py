"""Tests for embedding Hamiltonian construction."""

import numpy as np
import pytest

from repro.chem.fci import FCISolver
from repro.chem.mo import MOIntegrals
from repro.dmet.bath import build_bath
from repro.chem.scf import build_jk
from repro.dmet.embedding import build_embedding_hamiltonian
from repro.dmet.orthogonalize import lowdin_orthogonalize


@pytest.fixture(scope="module")
def h4_problem(request):
    h4 = request.getfixturevalue("h4_ring")
    system = lowdin_orthogonalize(h4.scf)
    basis = build_bath(system.density, [0, 1])
    return system, basis, build_embedding_hamiltonian(system, basis)


class TestEmbeddingProblem:
    def test_shapes(self, h4_problem):
        _, basis, prob = h4_problem
        ne = basis.n_embedding
        assert prob.h1.shape == (ne, ne)
        assert prob.h2.shape == (ne,) * 4
        assert prob.n_electrons == basis.n_electrons

    def test_h1_symmetric(self, h4_problem):
        _, _, prob = h4_problem
        assert np.allclose(prob.h1, prob.h1.T, atol=1e-10)
        assert np.allclose(prob.h1_bare, prob.h1_bare.T, atol=1e-10)

    def test_h2_eightfold_symmetry(self, h4_problem):
        _, _, prob = h4_problem
        g = prob.h2
        assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-10)
        assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-10)

    def test_mu_shift_on_fragment_only(self, h4_problem):
        _, basis, prob = h4_problem
        h = prob.h1_with_mu(0.3)
        nf = basis.n_fragment
        diff = h - prob.h1
        assert np.allclose(np.diag(diff)[:nf], -0.3)
        assert np.allclose(np.diag(diff)[nf:], 0.0)
        assert np.allclose(diff - np.diag(np.diag(diff)), 0.0)

    def test_core_veff_vanishes_for_whole_fragment(self, h4_problem):
        system, _, _ = h4_problem
        basis = build_bath(system.density, [0, 1, 2, 3])
        prob = build_embedding_hamiltonian(system, basis)
        assert np.allclose(prob.core_veff_emb(), 0.0, atol=1e-10)

    def test_embedded_fci_recovers_full_fci_for_whole_fragment(
            self, h4_problem, h4_ring):
        """Fragment = whole system: embedded FCI == molecular FCI."""
        system, _, _ = h4_problem
        basis = build_bath(system.density, [0, 1, 2, 3])
        prob = build_embedding_hamiltonian(system, basis)
        mo = MOIntegrals(h1=prob.h1, h2=prob.h2, constant=system.constant,
                         n_electrons=prob.n_electrons)
        res = FCISolver(mo).solve()
        assert res.energy == pytest.approx(h4_ring.fci.energy, abs=1e-8)

    def test_projected_density_reconstructs_hf_energy(self, h4_problem,
                                                      h4_ring):
        """Exact identity: with the *projected* HF density D = T^t P T,
        E_core + Tr(D h1_emb) + 1/2 Tr(D G_emb(D)) + E_nuc = E_HF."""
        system, basis, prob = h4_problem
        d = basis.transform.T @ system.density @ basis.transform
        j_e, k_e = build_jk(prob.h2, d)
        e_emb = (np.einsum("pq,pq->", d, prob.h1)
                 + 0.5 * np.einsum("pq,pq->", d, j_e)
                 - 0.25 * np.einsum("pq,pq->", d, k_e))
        j, k = build_jk(system.h2, basis.core_density)
        e_core = (np.einsum("pq,pq->", basis.core_density, system.h1)
                  + 0.5 * np.einsum("pq,pq->", basis.core_density, j)
                  - 0.25 * np.einsum("pq,pq->", basis.core_density, k))
        total = e_emb + e_core + system.constant
        assert total == pytest.approx(h4_ring.scf.energy, abs=1e-8)

    def test_embedded_scf_relaxes_below_projected_hf(self, h4_problem):
        """The interacting-bath embedded SCF may lower the embedding energy
        relative to the projected density (it re-optimizes in that space)."""
        _, basis, prob = h4_problem
        from repro.dmet.solvers import embedded_rhf

        sol = embedded_rhf(prob, mu=0.0)
        j, k = build_jk(prob.h2, sol.one_rdm)
        e_scf = (np.einsum("pq,pq->", sol.one_rdm, prob.h1)
                 + 0.5 * np.einsum("pq,pq->", sol.one_rdm, j)
                 - 0.25 * np.einsum("pq,pq->", sol.one_rdm, k))
        assert e_scf == pytest.approx(sol.energy, abs=1e-8)
        assert sol.n_electrons_fragment > 0
