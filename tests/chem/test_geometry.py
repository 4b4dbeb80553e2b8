"""Tests for molecules, builders and point-charge environments."""

import math

import numpy as np
import pytest

from repro.common import ANGSTROM_TO_BOHR
from repro.common.errors import ValidationError
from repro.chem.geometry import (
    Atom,
    Molecule,
    PointCharge,
    carbon_ring,
    h2,
    h2_trimer,
    hydrogen_chain,
    hydrogen_ring,
    lih,
    molecule_from_spec,
    water,
)


class TestMolecule:
    def test_from_angstrom_converts(self):
        m = Molecule.from_angstrom([("H", 0, 0, 0), ("H", 0, 0, 1.0)])
        assert m.atoms[1].position[2] == pytest.approx(ANGSTROM_TO_BOHR)

    def test_electron_count(self):
        m = water()
        assert m.n_electrons == 10
        assert m.n_atoms == 3

    def test_charge_shifts_electrons(self):
        m = Molecule.from_angstrom([("O", 0, 0, 0)], charge=-2)
        assert m.n_electrons == 10

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Molecule(atoms=[])

    def test_overcharged_rejected(self):
        with pytest.raises(ValidationError):
            Molecule.from_angstrom([("H", 0, 0, 0)], charge=2)

    def test_nuclear_repulsion_h2(self):
        m = h2(0.7414)
        r = 0.7414 * ANGSTROM_TO_BOHR
        assert m.nuclear_repulsion() == pytest.approx(1.0 / r)

    def test_coincident_atoms_rejected(self):
        m = Molecule.from_angstrom([("H", 0, 0, 0), ("H", 0, 0, 0)])
        with pytest.raises(ValidationError):
            m.nuclear_repulsion()

    def test_xyz_roundtrip(self):
        text = "2\ncomment\nH 0 0 0\nH 0 0 0.74\n"
        m = Molecule.from_xyz(text)
        assert m.n_atoms == 2
        assert m.atoms[1].position[2] == pytest.approx(0.74 * ANGSTROM_TO_BOHR)

    def test_xyz_headerless(self):
        m = Molecule.from_xyz("H 0 0 0\nHe 0 0 1")
        assert m.n_atoms == 2

    def test_xyz_malformed(self):
        with pytest.raises(ValidationError):
            Molecule.from_xyz("2\nc\nH 0 0\nH 0 0 1")

    def test_xyz_count_mismatch(self):
        with pytest.raises(ValidationError):
            Molecule.from_xyz("3\nc\nH 0 0 0\nH 0 0 1")

    def test_to_xyz_roundtrip(self):
        m = water()
        again = Molecule.from_xyz(m.to_xyz())
        assert again.n_atoms == m.n_atoms
        assert np.allclose(again.coordinates, m.coordinates, atol=1e-9)
        assert [a.symbol for a in again.atoms] == \
            [a.symbol for a in m.atoms]


class TestPointCharges:
    def test_point_charge_repulsion(self):
        m = h2(1.0).with_point_charges(
            [PointCharge(charge=-0.5, position=(0.0, 0.0, -10.0))])
        base = h2(1.0).nuclear_repulsion()
        assert m.nuclear_repulsion() < base  # negative charge attracts nuclei

    def test_charges_do_not_change_electrons(self):
        m = h2().with_point_charges([PointCharge(1.0, (5.0, 0, 0))])
        assert m.n_electrons == 2

    def test_coincident_charge_rejected(self):
        m = h2().with_point_charges([PointCharge(1.0, (0.0, 0.0, 0.0))])
        with pytest.raises(ValidationError):
            m.nuclear_repulsion()


class TestBuilders:
    def test_hydrogen_chain_spacing(self):
        m = hydrogen_chain(5, spacing=0.9)
        c = m.coordinates
        d = np.linalg.norm(c[1] - c[0]) / ANGSTROM_TO_BOHR
        assert d == pytest.approx(0.9)
        assert m.n_atoms == 5

    def test_hydrogen_ring_bond_lengths(self):
        m = hydrogen_ring(10, bond_length=1.0)
        c = m.coordinates
        for i in range(10):
            d = np.linalg.norm(c[i] - c[(i + 1) % 10]) / ANGSTROM_TO_BOHR
            assert d == pytest.approx(1.0, abs=1e-10)

    def test_ring_too_small(self):
        with pytest.raises(ValidationError):
            hydrogen_ring(2)

    def test_chain_too_small(self):
        with pytest.raises(ValidationError):
            hydrogen_chain(0)

    def test_carbon_ring_alternation(self):
        m = carbon_ring(18, bond_short=1.21, bond_long=1.34)
        c = m.coordinates
        bonds = [np.linalg.norm(c[i] - c[(i + 1) % 18]) / ANGSTROM_TO_BOHR
                 for i in range(18)]
        assert bonds[0] == pytest.approx(1.21, abs=1e-6)
        assert bonds[1] == pytest.approx(1.34, abs=1e-6)
        # ring closes: all atoms equidistant from the centroid
        center = c.mean(axis=0)
        radii = np.linalg.norm(c - center, axis=1)
        assert np.ptp(radii) < 1e-8

    def test_carbon_ring_odd_rejected(self):
        with pytest.raises(ValidationError):
            carbon_ring(7)

    def test_h2_trimer(self):
        m = h2_trimer()
        assert m.n_atoms == 6
        assert m.n_electrons == 6

    def test_reference_molecules(self):
        assert lih().n_electrons == 4
        assert water().n_electrons == 10
        # water geometry: O-H bond length
        c = water(oh=0.9572).coordinates
        assert np.linalg.norm(c[1] - c[0]) / ANGSTROM_TO_BOHR == \
            pytest.approx(0.9572)


class TestMoleculeSpec:
    @pytest.mark.parametrize("spec", ["ring:x", "ring:2.5", "chain:"])
    def test_malformed_count_is_the_vocabulary_error(self, spec):
        with pytest.raises(ValidationError, match="unknown molecule spec"):
            molecule_from_spec(spec)

    def test_bond_none_is_the_default_and_zero_is_no_default(self):
        """``None`` keeps the default length; 0.0 is not read as None."""
        assert np.array_equal(molecule_from_spec("h2", bond=None).coordinates,
                              molecule_from_spec("h2").coordinates)
        with pytest.raises(ValidationError, match="finite length > 0"):
            molecule_from_spec("h2", bond=0.0)

    @pytest.mark.parametrize("spec", ["h2", "lih", "ring:4", "chain:6"])
    @pytest.mark.parametrize("bond", [0.0, -0.7, math.inf, math.nan])
    def test_bond_must_be_a_finite_positive_length(self, spec, bond):
        with pytest.raises(ValidationError, match="use h2 \\| lih"):
            molecule_from_spec(spec, bond=bond)

    @pytest.mark.parametrize("spec", ["h2o", "water", "H2O"])
    def test_water_takes_no_bond(self, spec):
        with pytest.raises(ValidationError, match="takes no bond override"):
            molecule_from_spec(spec, bond=1.0)
        assert molecule_from_spec(spec).n_electrons == 10

    @pytest.mark.parametrize("spec", ["ring:3", "chain:5", "chain:1"])
    def test_odd_electron_count_is_rejected(self, spec):
        count = spec.partition(":")[2]
        with pytest.raises(ValidationError, match=f"has {count} electrons"):
            molecule_from_spec(spec)
