"""Tests for RHF: literature energies, invariances, failure modes."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.chem.geometry import Molecule, h2, hydrogen_chain, lih, water
from repro.chem.scf import DIIS, DIIS_SIZE, RHF, build_jk


class TestLiteratureEnergies:
    def test_h2(self, h2):
        assert h2.scf.energy == pytest.approx(-1.11675, abs=2e-4)

    def test_lih(self, lih):
        assert lih.scf.energy == pytest.approx(-7.8620, abs=1e-3)

    def test_water(self, water):
        assert water.scf.energy == pytest.approx(-74.9629, abs=1e-3)

    def test_h2_631g(self):
        res = RHF(h2(0.7414), "6-31g").run()
        assert res.energy == pytest.approx(-1.1268, abs=1e-3)


class TestSCFInvariants:
    def test_density_trace(self, water):
        # tr(D S) = n_electrons
        d, s = water.scf.density, water.scf.overlap
        assert np.trace(d @ s) == pytest.approx(10.0, abs=1e-8)

    def test_density_idempotent(self, water):
        d, s = water.scf.density, water.scf.overlap
        p = d @ s / 2.0
        assert np.allclose(p @ p, p, atol=1e-7)

    def test_orbitals_orthonormal(self, water):
        c, s = water.scf.mo_coefficients, water.scf.overlap
        assert np.allclose(c.T @ s @ c, np.eye(c.shape[1]), atol=1e-8)

    def test_fock_diagonal_in_mo(self, water):
        c, f = water.scf.mo_coefficients, water.scf.fock
        fm = c.T @ f @ c
        assert np.allclose(fm, np.diag(water.scf.mo_energies), atol=1e-6)

    def test_energy_below_core_guess(self, h2):
        # variational: converged energy below one-iteration core guess
        assert h2.scf.converged
        assert h2.scf.iterations >= 2

    def test_aufbau_gap(self, water):
        e = water.scf.mo_energies
        nocc = water.scf.n_occupied
        assert e[nocc - 1] < e[nocc]  # HOMO below LUMO

    def test_translation_invariance(self):
        a = RHF(h2(0.7414), "sto-3g").run().energy
        shifted = Molecule.from_angstrom(
            [("H", 1.0, 2.0, 3.0), ("H", 1.0, 2.0, 3.7414)])
        b = RHF(shifted, "sto-3g").run().energy
        assert a == pytest.approx(b, abs=1e-10)

    def test_dissociation_limit_above_equilibrium(self):
        # RHF H2 energy at 5 A must lie above equilibrium (no minimum there)
        e_eq = RHF(h2(0.7414), "sto-3g").run().energy
        e_far = RHF(h2(5.0), "sto-3g").run().energy
        assert e_far > e_eq


class TestFailureModes:
    def test_odd_electrons_rejected(self):
        mol = Molecule.from_angstrom([("H", 0, 0, 0)])
        with pytest.raises(ValidationError):
            RHF(mol, "sto-3g")

    def test_too_many_electrons(self):
        mol = Molecule.from_angstrom([("H", 0, 0, 0), ("H", 0, 0, 0.8)],
                                     charge=-4)
        with pytest.raises(ValidationError):
            RHF(mol, "sto-3g").run()

    def test_nonconvergence_raises(self):
        from repro.common.errors import ConvergenceError

        rhf = RHF(hydrogen_chain(4, 1.0), "sto-3g", max_iterations=1)
        with pytest.raises(ConvergenceError):
            rhf.run()


class TestJK:
    def test_jk_traces(self, h2):
        eri = h2.scf.eri
        d = h2.scf.density
        j, k = build_jk(eri, d)
        # both symmetric, J "more positive" than K in total energy sense
        assert np.allclose(j, j.T)
        assert np.allclose(k, k.T)
        ej = 0.5 * np.einsum("pq,pq->", d, j)
        ek = 0.25 * np.einsum("pq,pq->", d, k)
        assert ej > ek > 0


def _rebuilt_diis(vectors, errors):
    """The former ``scf.diis``: the whole error overlap rebuilt per call."""
    m = len(vectors)
    b = -np.ones((m + 1, m + 1))
    b[m, m] = 0.0
    for i in range(m):
        for j in range(m):
            b[i, j] = np.vdot(errors[i], errors[j])
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    coeff = np.linalg.solve(b, rhs)
    out = np.zeros_like(vectors[0])
    for i in range(m):
        out += coeff[i] * vectors[i]
    return out


class TestDIIS:
    def test_kept_overlap_is_bitwise_the_rebuilt_one(self, rng):
        """Past DIIS_SIZE pairs too, where the oldest row and column go."""
        accelerator = DIIS()
        vectors, errors = [], []
        for step in range(DIIS_SIZE + 5):
            vector, error = rng.normal(size=30), rng.normal(size=30)
            vectors.append(vector)
            errors.append(error)
            del vectors[:-DIIS_SIZE], errors[:-DIIS_SIZE]
            out = accelerator.extrapolate(vector, error)
            if step == 0:
                assert out is None
                continue
            assert np.array_equal(out, _rebuilt_diis(vectors, errors))
            assert len(accelerator.vectors) == len(vectors)
            expected = np.array([[np.vdot(a, b) for b in errors]
                                 for a in errors])
            assert np.array_equal(accelerator.overlap, expected)

    def test_singular_overlap_returns_none(self):
        accelerator = DIIS()
        error = np.ones(4)
        accelerator.extrapolate(np.zeros(4), error)
        assert accelerator.extrapolate(np.ones(4), error) is None
