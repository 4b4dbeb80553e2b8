"""Tests for spin-orbital CCSD, and the GEMM-planned update against the
term-by-term einsum oracle in :mod:`tests.chem.ccsd_reference`."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.chem.ccsd import CCSDSolver
from repro.chem.geometry import hydrogen_chain
from repro.chem.mo import MOIntegrals

from .ccsd_reference import ReferenceCCSD


class TestCCSD:
    def test_h2_equals_fci(self, h2):
        """CCSD is exact for two electrons."""
        res = CCSDSolver(h2.mo).run()
        assert res.energy == pytest.approx(h2.fci.energy, abs=1e-8)

    def test_hf_energy_matches_scf(self, h2):
        res = CCSDSolver(h2.mo).run()
        assert res.hf_energy == pytest.approx(h2.scf.energy, abs=1e-8)

    def test_correlation_negative(self, h2):
        res = CCSDSolver(h2.mo).run()
        assert res.correlation_energy < 0

    def test_water_close_to_fci(self, water):
        """CCSD recovers ~99% of water/STO-3G correlation."""
        res = CCSDSolver(water.mo).run()
        corr_fci = water.fci.energy - water.scf.energy
        assert res.correlation_energy / corr_fci > 0.98
        assert res.energy == pytest.approx(water.fci.energy, abs=2e-3)

    def test_lih_close_to_fci(self, lih):
        res = CCSDSolver(lih.mo).run()
        assert res.energy == pytest.approx(lih.fci.energy, abs=1e-4)

    def test_amplitude_shapes(self, h2):
        res = CCSDSolver(h2.mo).run()
        assert res.t1.shape == (2, 2)
        assert res.t2.shape == (2, 2, 2, 2)

    def test_t2_antisymmetry(self, water):
        res = CCSDSolver(water.mo).run()
        assert np.allclose(res.t2, -res.t2.transpose(1, 0, 2, 3), atol=1e-8)
        assert np.allclose(res.t2, -res.t2.transpose(0, 1, 3, 2), atol=1e-8)

    def test_hubbard_dimer_exact(self):
        """CCSD (exact for 2e) on the Hubbard dimer, in canonical orbitals.

        CCSD assumes an aufbau reference, so site-basis integrals must first
        be rotated to the mean-field orbitals.
        """
        from repro.chem.lattice import hubbard_chain
        from repro.dmet.solvers import orthonormal_rhf_density

        lat = hubbard_chain(2, u=2.0, t=1.0)
        _, c = orthonormal_rhf_density(lat.h1, lat.h2, 2)
        h1 = c.T @ lat.h1 @ c
        g = np.einsum("pqrs,pi,qj,rk,sl->ijkl", lat.h2, c, c, c, c,
                      optimize=True)
        mo = MOIntegrals(h1=h1, h2=g, constant=0.0, n_electrons=2)
        cc = CCSDSolver(mo).run()
        exact = 1.0 - np.sqrt(1.0 + 4.0)
        assert cc.energy == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, h2, budget):
        """At construction: ``run()`` at budget 0 raised UnboundLocalError."""
        with pytest.raises(ValidationError, match="max_iterations"):
            CCSDSolver(h2.mo, max_iterations=budget)

    def test_invalid_electron_count(self, h2):
        bad = MOIntegrals(h1=h2.mo.h1, h2=h2.mo.h2, constant=0.0,
                          n_electrons=0)
        with pytest.raises(ValidationError):
            CCSDSolver(bad)


def _canonical(h1, h2, n_electrons, constant=0.0):
    """Site-basis lattice integrals rotated to their RHF orbitals (CCSD
    needs an aufbau reference)."""
    from repro.dmet.solvers import orthonormal_rhf_density

    _, c = orthonormal_rhf_density(h1, h2, n_electrons)
    g = np.einsum("pqrs,pi,qj,rk,sl->ijkl", h2, c, c, c, c, optimize=True)
    return MOIntegrals(h1=c.T @ h1 @ c, h2=g, constant=constant,
                       n_electrons=n_electrons)


def _hubbard_dimer():
    from repro.chem.lattice import hubbard_chain

    lat = hubbard_chain(2, u=2.0, t=1.0)
    return _canonical(lat.h1, lat.h2, 2)


def _c18_ppp():
    """The Fig. 7b PPP/SSH C18 ring at one bond-length alternation."""
    from repro.chem.lattice import ppp_carbon_ring

    lat = ppp_carbon_ring(18, bla=0.15)
    return _canonical(lat.h1, lat.h2, lat.n_electrons, lat.constant)


@pytest.fixture(params=["h2", "water", "lih", "chain6", "hubbard-dimer",
                        "c18-ppp"])
def oracle_case(request, solved_molecule):
    name = request.param
    if name == "chain6":
        return solved_molecule(hydrogen_chain(6, 1.0)).mo, {}
    if name == "hubbard-dimer":
        return _hubbard_dimer(), {}
    if name == "c18-ppp":
        return _c18_ppp(), {"max_iterations": 200}
    return request.getfixturevalue(name).mo, {}


class TestAgainstEinsumOracle:
    def test_energy_and_amplitudes(self, oracle_case):
        """Same fixed point: energy to 1e-10 Ha, amplitudes to 1e-9."""
        mo, kwargs = oracle_case
        res = CCSDSolver(mo, **kwargs).run()
        ref = ReferenceCCSD(mo, **kwargs).run()
        assert abs(res.energy - ref.energy) < 1e-10
        assert abs(res.correlation_energy - ref.correlation_energy) < 1e-10
        assert res.hf_energy == ref.hf_energy
        assert np.abs(res.t1 - ref.t1).max() < 1e-9
        assert np.abs(res.t2 - ref.t2).max() < 1e-9

    def test_one_step_matches(self, water):
        """A single Jacobi step from a random start, term for term."""
        solver, ref = CCSDSolver(water.mo), ReferenceCCSD(water.mo)
        no, nv = solver.n_occ, solver.n_virt
        rng = np.random.default_rng(2)
        t1 = 0.1 * rng.standard_normal((no, nv))
        t2 = 0.1 * rng.standard_normal((no, no, nv, nv))
        t2 = t2 - t2.transpose(1, 0, 2, 3)
        t2 = t2 - t2.transpose(0, 1, 3, 2)
        d1, d2 = np.ones((no, nv)), np.ones((no, no, nv, nv))
        for new, old in zip(solver._update(t1, t2, d1, d2),
                            ref._update(t1, t2, d1, d2)):
            assert np.abs(new - old).max() < 1e-12
