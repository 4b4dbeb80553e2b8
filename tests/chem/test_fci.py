"""Tests for determinant FCI: literature values, RDMs, sector handling, and
the pair-packed sigma against the full-table oracle in
:mod:`tests.chem.fci_reference`."""

import numpy as np
import pytest
from scipy import sparse

from repro.common.errors import ValidationError
from repro.chem.fci import FCISolver, occupation_strings, _excitation_tables
from repro.chem.geometry import hydrogen_chain
from repro.chem.lattice import hubbard_chain, hubbard_ring
from repro.chem.mo import MOIntegrals

from .fci_reference import ReferenceSigma, excitation_tables


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

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_tables_equal_the_loop_reference(self, m):
        """The array-built links give the per-string loop's CSR tables
        entry for entry (the dense H and the RDMs read them)."""
        for n in range(m + 1):
            strings = occupation_strings(m, n)
            for ours, ref in zip(_excitation_tables(strings, m),
                                 excitation_tables(strings, m)):
                assert np.array_equal(ours.indptr, ref.indptr)
                assert np.array_equal(ours.indices, ref.indices)
                assert np.array_equal(ours.data, ref.data)


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

    @pytest.mark.parametrize("cutoff", [10**6, 1], ids=["dense", "davidson"])
    @pytest.mark.parametrize("n_roots", [0, -1, 5, 10])
    def test_n_roots_out_of_range_rejected(self, h2, n_roots, cutoff):
        """FCI solves for the ground state only: there is no root count,
        so every ``n_roots=`` is a TypeError on either path."""
        with pytest.raises(TypeError):
            FCISolver(h2.mo, dense_cutoff=cutoff).solve(n_roots=n_roots)


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


def _random_integrals(m, n_electrons, seed=12):
    """Random real integrals with the 8-fold symmetry restored, as PySCF's
    ``examples/fci/01-given_h1e_h2e.py`` builds them."""
    rng = np.random.default_rng(seed)
    h1 = rng.random((m, m))
    h1 = h1 + h1.T
    h2 = rng.random((m, m, m, m))
    h2 = h2 + h2.transpose(1, 0, 2, 3)
    h2 = h2 + h2.transpose(0, 1, 3, 2)
    h2 = h2 + h2.transpose(2, 3, 0, 1)
    return MOIntegrals(h1=h1, h2=h2, constant=0.0, n_electrons=n_electrons)


#: (m, n_alpha, n_beta): balanced, one extra alpha, and a 3 + 1 sector
RANDOM_SECTORS = [(8, 4, 4), (7, 5, 4), (6, 3, 1)]


class TestPairSigmaAgainstFullTableOracle:
    """The m(m+1)/2-pair gather sigma is the m^2-pair sparse-product one."""

    @staticmethod
    def _assert_matches(solver, seed=3):
        na, nb = len(solver.alpha_strings), len(solver.beta_strings)
        oracle = ReferenceSigma(solver.mo, solver.n_alpha, solver.n_beta)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            v = rng.standard_normal((na, nb))
            v /= np.linalg.norm(v)
            assert np.abs(solver._sigma(v) - oracle(v)).max() < 1e-12

    @pytest.mark.parametrize("m, n_alpha, n_beta", RANDOM_SECTORS,
                             ids=[f"m{m}-{a}a{b}b" for m, a, b
                                  in RANDOM_SECTORS])
    def test_random_symmetric_integrals(self, m, n_alpha, n_beta):
        mo = _random_integrals(m, n_alpha + n_beta)
        self._assert_matches(FCISolver(mo, n_alpha, n_beta))

    def test_chain8(self, solved_molecule):
        """4,900 determinants: the served Davidson FCI."""
        mo = solved_molecule(hydrogen_chain(8, 1.0)).mo
        self._assert_matches(FCISolver(mo))

    def test_water(self, water):
        self._assert_matches(FCISolver(water.mo))

    def test_buffers_are_reused_and_sigma_is_fresh(self, water):
        """The gathers write into the solver's own buffers; each returned
        sigma is a new array that a later call leaves alone."""
        solver = FCISolver(water.mo)
        na, nb = len(solver.alpha_strings), len(solver.beta_strings)
        rng = np.random.default_rng(5)
        v1, v2 = rng.standard_normal((2, na, nb))
        s1 = solver._sigma(v1)
        kept = s1.copy()
        buffer = solver._y
        s2 = solver._sigma(v2)
        assert solver._y is buffer and s2 is not s1
        assert np.array_equal(s1, kept)

    def test_davidson_ground_state_matches_dense(self):
        """Davidson on 400 determinants of random integrals finds the
        dense path's ground energy."""
        mo = _random_integrals(6, 6, seed=4)
        dense = FCISolver(mo, dense_cutoff=10**6).solve()
        dav = FCISolver(mo, dense_cutoff=1).solve()
        assert dav.n_determinants == 400
        assert abs(dav.energy - dense.energy) < 1e-9


class TestRDMsOnlyWhenRead:
    def test_energy_builds_no_rdm(self, solved_molecule, monkeypatch):
        """An energy, dense or Davidson, never builds an RDM (nor, on the
        Davidson path, the full m^2 excitation tables)."""
        mo = solved_molecule(hydrogen_chain(6, 1.0)).mo
        monkeypatch.setattr(FCISolver, "_rdms", _raise)
        for cutoff in (1, 10**6):
            solver = FCISolver(mo, dense_cutoff=cutoff)
            assert solver.solve().energy < 0.0
        assert solver._ea is not None          # the dense H reads them
        solver = FCISolver(mo, dense_cutoff=1)
        solver.solve()
        assert solver._ea is None

    def test_rdms_are_built_once_on_read(self, water, monkeypatch):
        res = FCISolver(water.mo).solve()
        first = res.one_rdm
        monkeypatch.setattr(FCISolver, "_rdms", _raise)
        assert res.one_rdm is first and res.two_rdm.shape == (7,) * 4

    def test_dmet_fragment_rdms_are_the_full_table_ones(self, h6_ring,
                                                        monkeypatch):
        """The DMET-FCI fragments (dense path) read RDMs with the full-table
        arithmetic: bitwise equal to the oracle's on the solved civec."""
        from repro.dmet.dmet import DMET, atoms_per_fragment
        from repro.dmet.orthogonalize import lowdin_orthogonalize

        solved = []
        solve = FCISolver.solve

        def recording_solve(solver):
            res = solve(solver)
            solved.append((solver, res))
            return res

        monkeypatch.setattr(FCISolver, "solve", recording_solve)
        system = lowdin_orthogonalize(h6_ring.scf)
        DMET(system, atoms_per_fragment(system, 2),
             all_fragments_equivalent=True).run()
        assert solved
        for solver, res in solved:
            assert res.n_determinants <= solver.dense_cutoff
            oracle = ReferenceSigma(solver.mo, solver.n_alpha, solver.n_beta)
            gamma, g2 = oracle.rdms(res.civec)
            assert np.array_equal(res.one_rdm, gamma)
            assert np.array_equal(res.two_rdm, g2)
