"""Integration tests for the Q2Chemistry facade and binding-energy pipeline."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.chem.geometry import PointCharge, h2, hydrogen_ring
from repro.chem.lattice import hubbard_ring
from repro.q2chem import Q2Chemistry, binding_energy


@pytest.fixture(scope="module")
def h2_job():
    return Q2Chemistry.from_molecule(h2(0.7414), basis="sto-3g")


class TestMoleculePipeline:
    def test_energies_ordered(self, h2_job):
        e_hf = h2_job.hartree_fock_energy()
        e_ccsd = h2_job.ccsd_energy()
        e_fci = h2_job.fci_energy()
        assert e_fci <= e_ccsd <= e_hf
        assert e_ccsd == pytest.approx(e_fci, abs=1e-8)  # 2 electrons

    def test_vqe_matches_fci(self, h2_job):
        res = h2_job.vqe_energy(simulator="statevector")
        assert res.energy == pytest.approx(h2_job.fci_energy(), abs=1e-7)

    def test_vqe_mps_matches_fci(self, h2_job):
        res = h2_job.vqe_energy(simulator="mps", max_bond_dimension=8)
        assert res.energy == pytest.approx(h2_job.fci_energy(), abs=1e-6)

    def test_qubit_hamiltonian_exposed(self, h2_job):
        ham = h2_job.qubit_hamiltonian()
        assert len(ham) == 15

    def test_dmet_single_fragment_is_fci(self, h2_job):
        res = h2_job.dmet_energy(atoms_per_group=2,
                                 fit_chemical_potential=False)
        assert res.energy == pytest.approx(h2_job.fci_energy(), abs=1e-8)


class TestRingPipeline:
    def test_h6_ring_dmet_fci_and_vqe(self):
        job = Q2Chemistry.from_molecule(hydrogen_ring(6, 1.0))
        e_fci = job.fci_energy()
        dmet_fci = job.dmet_energy(atoms_per_group=2, solver="fci")
        dmet_vqe = job.dmet_energy(atoms_per_group=2, solver="vqe-statevector",
                                   vqe_tolerance=1e-9)
        for res in (dmet_fci, dmet_vqe):
            rel = abs((res.energy - e_fci) / e_fci)
            assert rel < 0.005  # the paper's Fig. 7a accuracy band
        assert dmet_vqe.energy == pytest.approx(dmet_fci.energy, abs=1e-3)

    def test_unknown_solver(self):
        job = Q2Chemistry.from_molecule(h2())
        with pytest.raises(ValidationError):
            job.dmet_energy(solver="dmrg")


class TestLatticePipeline:
    def test_hubbard_through_facade(self):
        from repro.chem.fci import FCISolver

        lat = hubbard_ring(6, u=4.0)
        job = Q2Chemistry.from_lattice(lat)
        exact = FCISolver(lat.to_mo_integrals()).solve().energy
        res = job.dmet_energy(fragments=[[0, 1], [2, 3], [4, 5]])
        assert abs((res.energy - exact) / exact) < 0.03

    def test_lattice_hf_energy(self):
        job = Q2Chemistry.from_lattice(hubbard_ring(6, u=0.0))
        evals = np.linalg.eigvalsh(hubbard_ring(6, u=0.0).h1)
        assert job.hartree_fock_energy() == pytest.approx(
            2 * evals[:3].sum(), abs=1e-8)


class TestBindingEnergy:
    def test_charge_quadrupole_interaction(self):
        """Long-range physics: H2 has a positive quadrupole moment, so a
        charge q perpendicular to the bond interacts as -q*Theta/2r^3 -
        binding for q>0, antibinding for q<0, decaying with distance."""
        mid_z = 0.7414 / 2 * 1.8897259886  # bond midpoint in Bohr
        eb = {}
        for q in (+1.0, -1.0):
            for d in (6.0, 10.0):
                pocket = [PointCharge(q, (0.0, d, mid_z))]
                out = binding_energy(h2(), pocket, method="hf")
                eb[(q, d)] = out["binding_energy"]
        assert eb[(+1.0, 6.0)] < 0.0 < eb[(-1.0, 6.0)]
        # near mirror symmetry of the leading multipole term
        assert abs(eb[(+1.0, 10.0)] + eb[(-1.0, 10.0)]) < \
            0.2 * abs(eb[(+1.0, 10.0)])
        # decays with distance
        assert abs(eb[(+1.0, 10.0)]) < abs(eb[(+1.0, 6.0)])

    def test_close_positive_charge_antibinds(self):
        """At short range the bare nuclear repulsion with a positive charge
        overwhelms electronic screening: E_b > 0."""
        pocket = [PointCharge(0.5, (0.0, 2.0, 0.37))]
        out = binding_energy(h2(), pocket, method="hf")
        assert out["binding_energy"] > 0.0

    def test_close_negative_charge_binds(self):
        pocket = [PointCharge(-0.5, (0.0, 2.0, 0.37))]
        out = binding_energy(h2(), pocket, method="hf")
        assert out["binding_energy"] < 0.0

    def test_fci_and_dmet_agree_for_h2(self):
        pocket = [PointCharge(0.3, (0.0, 2.5, 0.37))]
        out_fci = binding_energy(h2(), pocket, method="fci")
        out_dmet = binding_energy(h2(), pocket, method="dmet-fci",
                                  atoms_per_group=2,
                                  fit_chemical_potential=False)
        assert out_dmet["binding_energy"] == pytest.approx(
            out_fci["binding_energy"], abs=1e-6)

    def test_far_pocket_negligible(self):
        pocket = [PointCharge(1.0, (0.0, 500.0, 0.0))]
        out = binding_energy(h2(), pocket, method="hf")
        assert abs(out["binding_energy"]) < 1e-3

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            binding_energy(h2(), [PointCharge(1.0, (0, 5, 0))],
                           method="dft")
