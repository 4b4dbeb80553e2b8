"""Tests for Lowdin orthogonalization and Schmidt bath construction."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.dmet.bath import build_bath
from repro.dmet.orthogonalize import from_lattice, lowdin_orthogonalize


@pytest.fixture(scope="module")
def h4_system(request):
    h4 = request.getfixturevalue("h4_ring")
    return lowdin_orthogonalize(h4.scf)


class TestOrthogonalize:
    def test_mean_field_energy_preserved(self, h4_system, h4_ring):
        assert h4_system.mean_field_energy() == pytest.approx(
            h4_ring.scf.energy, abs=1e-8)

    def test_density_idempotent(self, h4_system):
        p = h4_system.density / 2.0
        assert np.allclose(p @ p, p, atol=1e-8)

    def test_trace_counts_electrons(self, h4_system):
        assert np.trace(h4_system.density) == pytest.approx(4.0, abs=1e-8)

    def test_orbital_atoms(self, h4_system):
        assert h4_system.orbital_atoms == [0, 1, 2, 3]

    def test_from_lattice(self):
        # 6-site ring: closed-shell at half filling (the 4-site ring has a
        # degenerate open shell where RHF is ill-defined)
        from repro.chem.lattice import hubbard_ring

        sys = from_lattice(hubbard_ring(6, u=2.0))
        assert sys.n_orbitals == 6
        assert np.trace(sys.density) == pytest.approx(6.0, abs=1e-8)


class TestBath:
    def test_bath_size_at_most_fragment(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        assert basis.n_fragment == 2
        assert basis.n_bath <= 2

    def test_transform_orthonormal(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        t = basis.transform
        assert np.allclose(t.T @ t, np.eye(basis.n_embedding), atol=1e-10)

    def test_fragment_block_is_identity(self, h4_system):
        basis = build_bath(h4_system.density, [1, 2])
        t = basis.transform
        assert np.allclose(t[[1, 2], :2], np.eye(2), atol=1e-12)

    def test_core_density_orthogonal_to_embedding(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        # P_core T = 0: the core does not leak into the embedding space
        assert np.allclose(basis.core_density @ basis.transform, 0.0,
                           atol=1e-7)

    def test_core_density_idempotent(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        pc = basis.core_density / 2.0
        assert np.allclose(pc @ pc, pc, atol=1e-7)

    def test_even_electron_count(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        assert basis.n_electrons % 2 == 0
        assert basis.n_electrons == 2 * basis.n_fragment

    def test_whole_system_fragment(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1, 2, 3])
        assert basis.n_bath == 0
        assert basis.n_electrons == 4
        assert np.allclose(basis.core_density, 0.0)

    def test_duplicate_fragment_orbital(self, h4_system):
        with pytest.raises(ValidationError):
            build_bath(h4_system.density, [0, 0])

    def test_out_of_range(self, h4_system):
        with pytest.raises(ValidationError):
            build_bath(h4_system.density, [17])

    def test_non_idempotent_density_rejected(self):
        rng = np.random.default_rng(0)
        bad = rng.standard_normal((4, 4))
        bad = bad + bad.T  # symmetric but wildly non-idempotent
        with pytest.raises(ValidationError):
            build_bath(bad, [0, 1])

    def test_entanglement_spectrum_reported(self, h4_system):
        basis = build_bath(h4_system.density, [0, 1])
        assert basis.entanglement_spectrum.size >= basis.n_bath
        assert np.all(basis.entanglement_spectrum >= 0)
