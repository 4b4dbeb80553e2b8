"""Tests for fragment solving on worker processes inside the DMET driver
(``n_workers > 1``) against the in-line path (``n_workers=1``)."""

import pytest

from repro.dmet.dmet import DMET, atoms_per_fragment
from repro.dmet.orthogonalize import attach_labels, lowdin_orthogonalize


@pytest.fixture(scope="module")
def h6_system(request):
    h6 = request.getfixturevalue("h6_ring")
    attach_labels(h6.scf, h6.rhf.basis)
    return h6, lowdin_orthogonalize(h6.scf, h6.eri_ao)


class TestThreadedDMET:
    def test_matches_serial(self, h6_system):
        h6, system = h6_system
        frags = atoms_per_fragment(system, 2)
        serial = DMET(system, frags).run()
        parallel = DMET(system, frags, n_workers=3).run()
        assert parallel.energy == pytest.approx(serial.energy, abs=1e-9)
        assert parallel.chemical_potential == pytest.approx(
            serial.chemical_potential, abs=1e-6)

    def test_single_worker_path(self, h6_system):
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, n_workers=1).run()
        assert len(res.fragment_solutions) == 3

    def test_equivalent_shortcut_ignores_workers(self, h6_system):
        """With one representative fragment there is nothing to dispatch."""
        h6, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, all_fragments_equivalent=True,
                   n_workers=4).run()
        full = DMET(system, frags).run()
        assert res.energy == pytest.approx(full.energy, abs=1e-6)
