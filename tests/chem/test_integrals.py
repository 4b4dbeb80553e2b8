"""Tests for McMurchie-Davidson integrals: analytic values, symmetries,
literature energies, and the class-batched engine against the per-quartet
reference in :mod:`tests.chem.md_reference`."""

import math

import numpy as np
import pytest
from scipy import special as sps

from repro.chem import integrals
from repro.chem.basis import get_basis
from repro.chem.geometry import (Molecule, PointCharge, h2, hydrogen_ring,
                                 lih, water)
from repro.chem.integrals import IntegralEngine, boys

from .md_reference import ReferenceIntegrals


class TestBoys:
    def test_f0_at_zero(self):
        assert boys(0, np.array(0.0))[0] == pytest.approx(1.0)

    def test_fm_at_zero(self):
        f = boys(4, np.array(0.0))
        for m in range(5):
            assert f[m] == pytest.approx(1.0 / (2 * m + 1))

    def test_f0_analytic(self):
        # F0(x) = sqrt(pi/4x) erf(sqrt(x))
        from scipy.special import erf

        x = np.array([0.3, 1.7, 9.0])
        expected = 0.5 * np.sqrt(np.pi / x) * erf(np.sqrt(x))
        assert np.allclose(boys(0, x)[0], expected, rtol=1e-12)

    def test_downward_recursion_consistency(self):
        # F_{m}(x) = (2x F_{m+1} + e^-x) / (2m+1)
        x = np.array([0.5, 2.0, 8.0])
        f = boys(5, x)
        for m in range(5):
            lhs = f[m]
            rhs = (2 * x * f[m + 1] + np.exp(-x)) / (2 * m + 1)
            assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_large_argument_asymptotic(self):
        # F0(x) -> sqrt(pi)/(2 sqrt(x)) for large x
        x = np.array([50.0])
        assert boys(0, x)[0] == pytest.approx(
            np.sqrt(np.pi) / (2 * np.sqrt(50.0)), rel=1e-8)

    def test_table_matches_the_incomplete_gamma_formula(self):
        """F_m(x) = Gamma(m+1/2) P(m+1/2, x) / (2 x^(m+1/2)) on every grid
        point and midpoint up to x = 100, and on both sides of the switch
        to the asymptote.  The series replaces gammainc below x = 0.5,
        where gammainc loses ~1e-14 of its own."""
        dx, far = integrals._BOYS_DX, integrals._BOYS_FAR
        k = np.arange(int(round(100.0 / dx)) + 1)
        x = np.concatenate([k * dx, (k + 0.5) * dx, [1e-13, 1e-9],
                            far * (1.0 + np.array([-1e-12, 0.0, 1e-12]))])
        x = x[x <= 100.0]
        f = boys(16, x)
        small = x < 0.5
        for m in range(17):
            a = m + 0.5
            series = sum((-x[small]) ** j
                         / (math.factorial(j) * (2 * m + 2 * j + 1))
                         for j in range(30))
            big = x[~small]
            exact = np.empty_like(x)
            exact[small] = series
            exact[~small] = sps.gamma(a) * sps.gammainc(a, big) / (2 * big ** a)
            rel = np.max(np.abs(f[m] - exact) / exact)
            assert rel <= (1e-14 if m <= 8 else 5e-14), (m, rel)


@pytest.fixture(scope="module")
def h2_engine():
    mol = h2(0.7414)
    return IntegralEngine(mol, get_basis(mol, "sto-3g"))


@pytest.fixture(scope="module")
def water_engine():
    mol = water()
    return IntegralEngine(mol, get_basis(mol, "sto-3g"))


class TestOneElectron:
    def test_overlap_normalized_diagonal(self, water_engine):
        s = water_engine.overlap()
        assert np.allclose(np.diag(s), 1.0, atol=1e-9)

    def test_overlap_symmetric_pd(self, water_engine):
        s = water_engine.overlap()
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() > 0

    def test_h2_overlap_literature(self, h2_engine):
        # classic H2/STO-3G overlap at 1.4 a0 is ~0.6593
        s = h2_engine.overlap()
        assert s[0, 1] == pytest.approx(0.6593, abs=2e-3)

    def test_kinetic_positive_definite(self, water_engine):
        t = water_engine.kinetic()
        assert np.allclose(t, t.T)
        assert np.linalg.eigvalsh(t).min() > 0

    def test_h2_kinetic_literature(self, h2_engine):
        t = h2_engine.kinetic()
        assert t[0, 0] == pytest.approx(0.7600, abs=2e-3)
        assert t[0, 1] == pytest.approx(0.2365, abs=2e-3)

    def test_h2_nuclear_literature(self, h2_engine):
        v = h2_engine.nuclear_attraction()
        assert v[0, 0] == pytest.approx(-1.8804, abs=2e-3)

    def test_nuclear_includes_point_charges(self):
        base = h2(0.7414)
        charged = base.with_point_charges([])
        from repro.chem.geometry import PointCharge

        charged = base.with_point_charges(
            [PointCharge(charge=1.0, position=(0, 0, 50.0))])
        v0 = IntegralEngine(base, get_basis(base, "sto-3g")
                            ).nuclear_attraction()
        v1 = IntegralEngine(charged, get_basis(charged, "sto-3g")
                            ).nuclear_attraction()
        # a +1 charge 50 bohr away shifts the potential by ~ -1/50 per e
        assert v1[0, 0] - v0[0, 0] == pytest.approx(-1.0 / 50.0, abs=1e-3)


class TestERI:
    def test_h2_eri_literature(self, h2_engine):
        g = h2_engine.eri()
        assert g[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-3)
        assert g[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-3)

    def test_eightfold_symmetry(self, water_engine):
        g = water_engine.eri()
        assert np.allclose(g, g.transpose(1, 0, 2, 3))
        assert np.allclose(g, g.transpose(0, 1, 3, 2))
        assert np.allclose(g, g.transpose(2, 3, 0, 1))

    def test_eri_positivity(self, water_engine):
        # (ii|ii) > 0 for any orbital
        g = water_engine.eri()
        for i in range(g.shape[0]):
            assert g[i, i, i, i] > 0

    def test_cache_returns_same_array(self, h2_engine):
        assert h2_engine.eri() is h2_engine.eri()

    def test_cached_arrays_are_read_only(self):
        mol = h2(0.7414)
        eng = IntegralEngine(mol, get_basis(mol, "sto-3g"))
        for arr in (eng.overlap(), eng.kinetic(), eng.nuclear_attraction(),
                    eng.eri()):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_schwarz_bound_is_valid(self):
        """|(ij|kl)| <= sqrt((ij|ij)) sqrt((kl|kl)) on real integrals."""
        mol = water()
        basis = get_basis(mol, "sto-3g")
        eng = IntegralEngine(mol, basis)
        g = eng.eri()
        n = basis.n_ao
        q = np.sqrt(np.abs(np.einsum("ijij->ij", g)))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert abs(g[i, j, k, l]) <= \
                            q[i, j] * q[k, l] + 1e-10


class TestHigherAngularMomentum:
    def test_p_function_overlap_orthogonality(self):
        """px/py/pz on the same center are mutually orthogonal."""
        mol = Molecule.from_angstrom([("O", 0, 0, 0)], charge=-2)
        eng = IntegralEngine(mol, get_basis(mol, "sto-3g"))
        s = eng.overlap()
        # AOs: 1s, 2s, 2px, 2py, 2pz
        for i in range(2, 5):
            for j in range(2, 5):
                if i != j:
                    assert abs(s[i, j]) < 1e-12

    def test_s_p_same_center_orthogonal(self):
        mol = Molecule.from_angstrom([("C", 0, 0, 0)])
        eng = IntegralEngine(mol, get_basis(mol, "sto-3g"))
        s = eng.overlap()
        assert abs(s[0, 2]) < 1e-12  # 1s - 2px


def _stretched_lih_dimer():
    return Molecule.from_angstrom([
        ("Li", 0, 0, 0), ("H", 0, 0, 1.6),
        ("Li", 0, 0, 14.0), ("H", 0, 0, 15.6),
    ])


def _h2_with_point_charge():
    return h2(0.7414).with_point_charges(
        [PointCharge(charge=-0.8, position=(0.3, 0.5, 2.0))])


class TestAgainstPerQuartetOracle:
    """The class-batched engine against the per-quartet, per-centre
    McMurchie-Davidson path it replaced (gammainc Boys function)."""

    @pytest.mark.parametrize("make, basis", [
        (water, "sto-3g"), (lih, "sto-3g"), (lambda: h2(0.7414), "6-31g"),
        (lambda: hydrogen_ring(10, 1.0), "sto-3g"),
        (_stretched_lih_dimer, "sto-3g"), (_h2_with_point_charge, "sto-3g"),
    ], ids=["h2o", "lih", "h2-631g", "ring10", "lih-dimer", "h2-charge"])
    def test_every_integral_matches(self, make, basis):
        mol = make()
        bs = get_basis(mol, basis)
        eng, ref = IntegralEngine(mol, bs), ReferenceIntegrals(mol, bs)
        for got, want in ((eng.overlap(), ref.overlap()),
                          (eng.kinetic(), ref.kinetic()),
                          (eng.nuclear_attraction(), ref.nuclear_attraction()),
                          (eng.eri(), ref.eri())):
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_d_shells_cc_pvdz(self):
        """Carbon cc-pVDZ: one-electron integrals in full, ERIs on 300
        seeded AO quartets, among them (dd|dd) ones that need F_8."""
        mol = Molecule.from_angstrom([("C", 0, 0, 0), ("H", 0.6, 0.3, 0.9)],
                                     charge=1)
        bs = get_basis(mol, "cc-pvdz")
        eng, ref = IntegralEngine(mol, bs), ReferenceIntegrals(mol, bs)
        for got, want in ((eng.overlap(), ref.overlap()),
                          (eng.kinetic(), ref.kinetic()),
                          (eng.nuclear_attraction(), ref.nuclear_attraction())):
            assert np.max(np.abs(got - want)) <= 1e-13
        g = eng.eri()
        quartets = np.random.default_rng(36).integers(0, bs.n_ao, (300, 4))
        ls = np.array([sum(bs.ao_powers(ao)) for ao in range(bs.n_ao)])
        assert ls[quartets].sum(axis=1).max() == 8
        for i, j, k, l in quartets:
            assert abs(g[i, j, k, l] - ref.eri_element(i, j, k, l)) <= 1e-13
