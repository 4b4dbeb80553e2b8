"""Tests for AO->MO transforms, active spaces and spin-orbital expansion."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.chem import mo as momod
from repro.chem.fci import FCISolver


class TestAOtoMO:
    def test_h1_diagonal_terms(self, h2):
        mo = h2.mo
        # MO h1 must be symmetric
        assert np.allclose(mo.h1, mo.h1.T)

    def test_mo_eri_symmetry(self, water):
        g = water.mo.h2
        assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-10)
        assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-10)

    def test_hf_energy_recoverable_from_mo_integrals(self, water):
        """E_HF = const + 2 sum_i h_ii + sum_ij (2 J - K) over occupied."""
        mo = water.mo
        nocc = water.scf.n_occupied
        e = mo.constant
        for i in range(nocc):
            e += 2 * mo.h1[i, i]
            for j in range(nocc):
                e += 2 * mo.h2[i, i, j, j] - mo.h2[i, j, j, i]
        assert e == pytest.approx(water.scf.energy, abs=1e-8)


class TestActiveSpace:
    def test_frozen_core_lih(self, lih):
        """Freezing the Li 1s barely changes the FCI energy of LiH."""
        full = FCISolver(lih.mo).solve().energy
        frozen = momod.from_scf(lih.scf, frozen_core=1)
        assert frozen.n_electrons == 2
        assert frozen.n_orbitals == lih.mo.n_orbitals - 1
        e = FCISolver(frozen).solve().energy
        assert e == pytest.approx(full, abs=5e-3)

    def test_active_window(self, water):
        act = momod.from_scf(water.scf, frozen_core=1, n_active_orbitals=4)
        assert act.n_orbitals == 4
        assert act.n_electrons == 8
        assert act.n_qubits == 8

    def test_constant_contains_core(self, lih):
        frozen = momod.from_scf(lih.scf, frozen_core=1)
        assert frozen.constant != pytest.approx(lih.mo.constant)

    def test_invalid_frozen_core(self, h2):
        with pytest.raises(ValidationError):
            momod.from_scf(h2.scf, frozen_core=5)

    def test_window_too_big(self, h2):
        with pytest.raises(ValidationError):
            momod.from_scf(h2.scf, n_active_orbitals=99)

    def test_too_many_active_electrons(self, water):
        with pytest.raises(ValidationError):
            momod.from_scf(water.scf, n_active_orbitals=2)


class TestSpinOrbital:
    def test_interleaving(self, h2):
        h1, h2so, const = momod.spatial_to_spin_orbital(h2.mo)
        m = h2.mo.n_orbitals
        assert h1.shape == (2 * m, 2 * m)
        # alpha-beta one-body blocks vanish
        assert h1[0, 1] == 0.0
        assert h1[0, 0] == h1[1, 1] == pytest.approx(h2.mo.h1[0, 0])

    def test_spin_conservation_in_eri(self, h2):
        _, g, _ = momod.spatial_to_spin_orbital(h2.mo)
        # (alpha alpha | beta beta) allowed; (alpha beta | ...) zero
        assert g[0, 1, 0, 0] == 0.0
        assert g[0, 0, 1, 1] == pytest.approx(h2.mo.h2[0, 0, 0, 0])

    def test_antisymmetrized_physicist(self, h2):
        _, g, _ = momod.spatial_to_spin_orbital(h2.mo)
        v = momod.antisymmetrized_physicist(g)
        n = v.shape[0]
        # <pq||rs> = -<qp||rs> = -<pq||sr>
        assert np.allclose(v, -v.transpose(1, 0, 2, 3), atol=1e-12)
        assert np.allclose(v, -v.transpose(0, 1, 3, 2), atol=1e-12)
