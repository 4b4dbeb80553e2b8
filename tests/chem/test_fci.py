"""Tests for determinant FCI: literature values, RDMs, sector handling."""

import numpy as np
import pytest
from scipy import sparse

from repro.common.errors import ValidationError
from repro.chem.fci import FCISolver, occupation_strings, _excitation_tables
from repro.chem.lattice import hubbard_chain, hubbard_ring
from repro.chem.mo import MOIntegrals


def _densified_tables(strings, n_orbitals):
    """The sparse E table densified to e[p, q] = (ns, ns) matrices."""
    e, _ = _excitation_tables(strings, n_orbitals)
    ns = len(strings)
    return e.toarray().reshape(n_orbitals, n_orbitals, ns, ns)


def _sigma_columns(solver):
    """H built one sigma call per determinant: the closed form's oracle."""
    na, nb = len(solver.alpha_strings), len(solver.beta_strings)
    basis = np.eye(na * nb)
    return np.column_stack([
        solver._sigma(basis[:, col].reshape(na, nb)).ravel()
        for col in range(na * nb)])


def _raise(*args, **kwargs):
    raise AssertionError("called on a path that must not call it")


class TestOccupationStrings:
    def test_counts(self):
        assert len(occupation_strings(4, 2)) == 6
        assert len(occupation_strings(6, 3)) == 20

    def test_sorted_and_unique(self):
        s = occupation_strings(5, 2)
        assert s == sorted(set(s))

    def test_bit_counts(self):
        for mask in occupation_strings(6, 3):
            assert bin(mask).count("1") == 3

    def test_invalid(self):
        with pytest.raises(ValidationError):
            occupation_strings(3, 5)


class TestExcitationMatrices:
    def test_number_operator(self):
        """e_pp is diagonal with the occupation of orbital p."""
        strings = occupation_strings(4, 2)
        e = _densified_tables(strings, 4)
        for p in range(4):
            diag = np.diag(e[p, p])
            for i, s in enumerate(strings):
                assert diag[i] == ((s >> p) & 1)

    def test_adjoint_relation(self):
        """e_pq^T = e_qp (real matrices)."""
        strings = occupation_strings(4, 2)
        e = _densified_tables(strings, 4)
        for p in range(4):
            for q in range(4):
                assert np.allclose(e[p, q].T, e[q, p])

    def test_commutator_algebra(self):
        """[E_pq, E_rs] = delta_qr E_ps - delta_sp E_rq on one spin sector."""
        strings = occupation_strings(4, 2)
        e = _densified_tables(strings, 4)
        p, q, r, s = 0, 1, 1, 2
        comm = e[p, q] @ e[r, s] - e[r, s] @ e[p, q]
        expected = e[p, s]  # delta_qr = 1, delta_sp = 0
        assert np.allclose(comm, expected)

    def test_f_is_e_relaid(self):
        """F[I, (pq, J)] = E[(pq, I), J]: the same links, two layouts."""
        m, strings = 5, occupation_strings(5, 2)
        ns = len(strings)
        e, f = _excitation_tables(strings, m)
        dense_f = f.toarray().reshape(ns, m * m, ns).transpose(1, 0, 2)
        assert np.array_equal(dense_f, e.toarray().reshape(m * m, ns, ns))

    def test_tables_are_sparse_one_entry_per_link(self):
        """chain:8 sector (8 orbitals, 4 electrons): 1,400 links, not 313,600
        dense entries."""
        e, f = _excitation_tables(occupation_strings(8, 4), 8)
        assert sparse.issparse(e) and sparse.issparse(f)
        assert e.shape == (64 * 70, 70) and f.shape == (70, 64 * 70)
        # each string: q among its 4 electrons, p = q or one of 4 holes
        assert e.nnz == f.nnz == 70 * 4 * 5

    def test_empty_sector(self):
        e, f = _excitation_tables(occupation_strings(3, 0), 3)
        assert e.shape == (9, 1) and f.shape == (1, 9) and e.nnz == f.nnz == 0


#: (id, molecule fixture or lattice, sector): spin-balanced molecules, an
#: n_alpha != n_beta sector and Hubbard lattices (one with 3 alpha, 2 beta)
SECTORS = [
    ("h2", "h2", {}), ("lih", "lih", {}), ("water", "water", {}),
    ("lih-3a1b", "lih", {"n_alpha": 3, "n_beta": 1}),
    ("hubbard-ring-4", hubbard_ring(4, u=4.0, t=1.0), {}),
    ("hubbard-chain-5", hubbard_chain(5, u=2.0, t=1.0), {}),
]


@pytest.fixture(params=SECTORS, ids=[row[0] for row in SECTORS])
def sector_solver(request):
    _, system, sector = request.param
    if isinstance(system, str):
        mo = request.getfixturevalue(system).mo
    else:
        mo = system.to_mo_integrals()
    return FCISolver(mo, **sector)


class TestClosedFormHamiltonian:
    def test_matches_column_by_column_sigma(self, sector_solver):
        h = sector_solver._dense_hamiltonian()
        assert np.abs(h - _sigma_columns(sector_solver)).max() < 1e-12
        assert np.abs(h - h.T).max() < 1e-12

    def test_sparse_sigma_is_h_times_v(self, sector_solver):
        na = len(sector_solver.alpha_strings)
        nb = len(sector_solver.beta_strings)
        h = sector_solver._dense_hamiltonian()
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal((na, nb))
            sigma = sector_solver._sigma(v)
            assert sigma.shape == (na, nb)
            assert np.abs(sigma.ravel() - h @ v.ravel()).max() < 1e-12

    def test_dense_path_makes_no_sigma_call(self, water, monkeypatch):
        expected = FCISolver(water.mo, dense_cutoff=1).solve().energy
        monkeypatch.setattr(FCISolver, "_sigma", _raise)
        res = FCISolver(water.mo, dense_cutoff=10**6).solve()
        assert res.energy == pytest.approx(expected, abs=1e-12)

    def test_davidson_path_holds_no_excitation_tensor(self, water,
                                                      monkeypatch):
        expected = FCISolver(water.mo, dense_cutoff=10**6).solve().energy
        solver = FCISolver(water.mo, dense_cutoff=1)
        monkeypatch.setattr(FCISolver, "_dense_hamiltonian", _raise)
        monkeypatch.setattr(sparse.csr_matrix, "toarray", _raise)
        assert solver.solve().energy == pytest.approx(expected, abs=1e-12)
        m, ns = water.mo.n_orbitals, len(solver.alpha_strings)
        for value in vars(solver).values():
            if isinstance(value, np.ndarray):
                assert value.size < m * m * ns * ns
            elif sparse.issparse(value):
                assert value.nnz == ns * 5 * (m - 5 + 1)


class TestFCIEnergies:
    def test_h2_literature(self, h2):
        assert h2.fci.energy == pytest.approx(-1.13727, abs=1e-4)

    def test_water_literature(self, water):
        # FCI/STO-3G water ~ -75.0124 (correlation ~ -49.5 mH)
        assert water.fci.energy == pytest.approx(-75.0124, abs=5e-4)

    def test_below_hf(self, h2, water):
        assert h2.fci.energy < h2.scf.energy
        assert water.fci.energy < water.scf.energy

    def test_sparse_path_matches_dense(self, h2):
        dense = FCISolver(h2.mo, dense_cutoff=10**6).solve().energy
        sparse = FCISolver(h2.mo, dense_cutoff=1).solve().energy
        assert dense == pytest.approx(sparse, abs=1e-9)

    def test_excited_roots_ordered(self, h2):
        res = FCISolver(h2.mo).solve(n_roots=3)
        assert res.energies[0] <= res.energies[1] <= res.energies[2]

    @pytest.mark.parametrize("cutoff", [10**6, 1], ids=["dense", "davidson"])
    @pytest.mark.parametrize("n_roots", [0, -1, 5, 10])
    def test_n_roots_out_of_range_rejected(self, h2, n_roots, cutoff):
        """H2/STO-3G has 4 determinants: every path asks 1 <= n_roots <= 4."""
        with pytest.raises(ValidationError, match="n_roots"):
            FCISolver(h2.mo, dense_cutoff=cutoff).solve(n_roots=n_roots)

    def test_every_root_of_the_dense_path(self, h2):
        res = FCISolver(h2.mo, dense_cutoff=10**6).solve(n_roots=4)
        assert res.energies.shape == (4,)


class TestRDMs:
    def test_trace_1rdm(self, water):
        assert np.trace(water.fci.one_rdm) == pytest.approx(10.0, abs=1e-8)

    def test_1rdm_symmetric_bounded(self, water):
        g = water.fci.one_rdm
        assert np.allclose(g, g.T, atol=1e-10)
        evals = np.linalg.eigvalsh(g)
        assert evals.min() > -1e-10
        assert evals.max() < 2.0 + 1e-10

    def test_energy_from_rdms(self, water):
        solver = FCISolver(water.mo)
        res = solver.solve()
        e = solver.energy_from_rdms(res.one_rdm, res.two_rdm)
        assert e == pytest.approx(res.energy, abs=1e-9)

    def test_2rdm_partial_trace(self, h2):
        """sum_r Gamma_pqrr = (N-1) gamma_pq (number-operator contraction)."""
        g1, g2 = h2.fci.one_rdm, h2.fci.two_rdm
        n = np.trace(g1)
        lhs = np.einsum("pqrr->pq", g2)
        assert np.allclose(lhs, (n - 1.0) * g1, atol=1e-8)


class TestSectors:
    def test_explicit_sector(self, h2):
        res = FCISolver(h2.mo, n_alpha=1, n_beta=1).solve()
        assert res.energy == pytest.approx(h2.fci.energy, abs=1e-10)

    def test_bad_sector_rejected(self, h2):
        with pytest.raises(ValidationError):
            FCISolver(h2.mo, n_alpha=2, n_beta=1)

    def test_triplet_above_singlet(self, h2):
        """The Sz=1 (triplet) ground state lies above the singlet for H2."""
        triplet = FCISolver(h2.mo, n_alpha=2, n_beta=0).solve()
        assert triplet.energy > h2.fci.energy


class TestModelHamiltonians:
    def test_two_site_hubbard_analytic(self):
        """2-site Hubbard at half filling: E0 = U/2 - sqrt((U/2)^2 + 4t^2)."""
        from repro.chem.lattice import hubbard_chain

        u, t = 4.0, 1.0
        lat = hubbard_chain(2, u=u, t=t)
        res = FCISolver(lat.to_mo_integrals()).solve()
        exact = u / 2.0 - np.sqrt((u / 2.0) ** 2 + 4.0 * t * t)
        assert res.energy == pytest.approx(exact, abs=1e-10)

    def test_noninteracting_limit(self):
        """U=0 Hubbard: FCI equals the filled single-particle spectrum."""
        from repro.chem.lattice import hubbard_ring

        lat = hubbard_ring(4, u=0.0, t=1.0)
        res = FCISolver(lat.to_mo_integrals()).solve()
        evals = np.linalg.eigvalsh(lat.h1)
        exact = 2.0 * evals[:2].sum()
        assert res.energy == pytest.approx(exact, abs=1e-10)
