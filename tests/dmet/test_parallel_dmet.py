"""Tests for fragment solving on worker processes inside the DMET driver
(``n_workers > 1``) against the in-line path (``n_workers=1``)."""

import pytest

from repro import obs
from repro.dmet.dmet import DMET, atoms_per_fragment
from repro.dmet.orthogonalize import lowdin_orthogonalize

from .all_fragments_reference import all_fragments_evaluate


@pytest.fixture(scope="module")
def h6_system(request):
    h6 = request.getfixturevalue("h6_ring")
    return h6, lowdin_orthogonalize(h6.scf)


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
        """The ring's three fragments are one orbit: one solution, weighted
        by three."""
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        res = DMET(system, frags, n_workers=1).run()
        assert len(res.fragment_solutions) == 1
        assert res.orbits == [[0, 1, 2]]

    def test_equivalent_shortcut_ignores_workers(self, h6_system):
        """With one orbit there is nothing to dispatch: no task reaches a
        worker, and the energy is the all-fragments oracle's."""
        _, system = h6_system
        frags = atoms_per_fragment(system, 2)
        with obs.collect() as reg:
            res = DMET(system, frags, all_fragments_equivalent=True,
                       n_workers=4).run()
            dispatched = "parallel.tasks" in reg.snapshot()
            solves = reg.value("dmet.fragment_solves")
            mu_iterations = reg.value("dmet.mu_iterations")
        assert not dispatched
        assert solves == mu_iterations == res.mu_iterations
        energy, _, _ = all_fragments_evaluate(system, frags,
                                              res.chemical_potential)
        assert res.energy == pytest.approx(energy, abs=1e-10)
