"""Fragments related by a symmetry share one solve (``fragment_orbits``).

Every orbit-shared energy is checked against the all-fragments oracle
(:mod:`tests.dmet.all_fragments_reference`), which solves each fragment.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.chem.geometry import (Molecule, hydrogen_chain, hydrogen_ring,
                                 water)
from repro.chem.lattice import hubbard_ring, ppp_carbon_ring
from repro.common.errors import ValidationError
from repro.dmet import dmet
from repro.dmet.bath import build_bath
from repro.dmet.dmet import (DMET, _is_symmetry, atoms_per_fragment,
                             fragment_orbits)
from repro.dmet.orthogonalize import from_lattice, lowdin_orthogonalize

from .all_fragments_reference import all_fragments_evaluate

#: system -> (how to build it, fragments, the orbits it must form)
CASES = {
    "ring:6": ("ring", 6, 2, [[0, 1, 2]]),
    "ring:10": ("ring", 10, 2, [[0, 1, 2, 3, 4]]),
    # a chain's mirror pairs its fragments; the middle one maps to itself
    "chain:6": ("chain", 6, 2, [[0, 2], [1]]),
    "chain:8": ("chain", 8, 2, [[0, 3], [1, 2]]),
    # H <-> H is a mirror through the O, which flips its p_x
    "h2o": ("water", None, 1, [[0], [1, 2]]),
    "hubbard:6": ("hubbard", 6, 2, [[0, 1, 2]]),
    "c18-ppp": ("ppp", 18, 2, [list(range(9))]),
}

def _case(solved_molecule, name):
    """(system, fragments, expected orbits) of a ``CASES`` entry."""
    kind, size, atoms, orbits = CASES[name]
    system = _system(solved_molecule, kind, size)
    return system, atoms_per_fragment(system, atoms), orbits


def _system(solved_molecule, kind, size):
    if kind == "hubbard":
        return from_lattice(hubbard_ring(size, u=4.0, t=1.0))
    if kind == "ppp":
        return from_lattice(ppp_carbon_ring(size, bla=0.15))
    if kind == "water":
        molecule = water()
    else:
        molecule = {"ring": hydrogen_ring,
                    "chain": hydrogen_chain}[kind](size, 1.0)
    return lowdin_orthogonalize(solved_molecule(molecule).scf)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return _case(request.getfixturevalue("solved_molecule"), request.param)


class TestOrbitsAgainstAllFragments:
    def test_orbits_found(self, case):
        system, fragments, orbits = case
        assert DMET(system, fragments).orbits == orbits

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_energy_and_count_match_the_oracle(self, case, mu):
        """One solve per orbit, weighted by its size, is every fragment
        solved: FCI fragment energies of symmetric partners agree to
        rounding."""
        system, fragments, _ = case
        dmet = DMET(system, fragments)
        energy, n_elec, _, energies = dmet.evaluate(mu)
        ref_energy, ref_n, ref_energies = all_fragments_evaluate(
            system, fragments, mu)
        assert energy == pytest.approx(ref_energy, abs=1e-10)
        assert n_elec == pytest.approx(ref_n, abs=1e-10)
        for orbit, e_frag in zip(dmet.orbits, energies):
            for k in orbit:
                assert e_frag == pytest.approx(ref_energies[k], abs=1e-10)

    @pytest.mark.parametrize("name", ["ring:6", "ring:10", "hubbard:6",
                                      "c18-ppp"])
    def test_rings_solve_one_fragment_per_mu_iteration(self, solved_molecule,
                                                       name):
        system, fragments, _ = _case(solved_molecule, name)
        with obs.collect() as reg:
            res = DMET(system, fragments, all_fragments_equivalent=True).run()
            solves = reg.value("dmet.fragment_solves")
        assert solves == res.mu_iterations
        energy, _, _ = all_fragments_evaluate(system, fragments,
                                              res.chemical_potential)
        assert res.energy == pytest.approx(energy, abs=1e-10)


@pytest.fixture(scope="module")
def chain8(solved_molecule):
    system = lowdin_orthogonalize(
        solved_molecule(hydrogen_chain(8, 1.0)).scf)
    return system, atoms_per_fragment(system, 2)


class TestChains:
    def test_declared_equivalence_of_a_chain_raises(self, solved_molecule):
        """The chain's end and middle fragments are not equivalent; the
        flag used to multiply the first by three (-2.881 Ha, 0.35 Ha off)."""
        system = lowdin_orthogonalize(
            solved_molecule(hydrogen_chain(6, 1.0)).scf)
        with pytest.raises(ValidationError,
                           match=r"2 symmetry orbits: \[\[0, 2\], \[1\]\]"):
            DMET(system, atoms_per_fragment(system, 2),
                 all_fragments_equivalent=True)

    def test_chain8_solves_two_of_four(self, chain8):
        system, fragments = chain8
        with obs.collect() as reg:
            res = DMET(system, fragments).run()
            solves = reg.value("dmet.fragment_solves")
        assert res.orbits == [[0, 3], [1, 2]]
        assert len(res.fragment_solutions) == 2
        assert solves == 2 * res.mu_iterations
        energy, n_elec, _ = all_fragments_evaluate(system, fragments,
                                                   res.chemical_potential)
        assert res.energy == pytest.approx(energy, abs=1e-10)
        assert res.n_electrons == pytest.approx(n_elec, abs=1e-10)

    def test_two_workers_get_one_task_per_orbit(self, chain8):
        system, fragments = chain8
        with obs.collect() as reg:
            res = DMET(system, fragments, n_workers=2).run(
                fit_chemical_potential=False)
            tasks = reg.value("parallel.tasks", level="fragments")
        assert tasks == 2
        serial = DMET(system, fragments).run(fit_chemical_potential=False)
        assert res.energy == pytest.approx(serial.energy, abs=1e-10)

    def test_a_moved_atom_breaks_the_mirror(self, solved_molecule):
        """One atom 1e-3 A off its place: no fragment has a partner."""
        spec = [("H", 0.0, 0.0, i + (1e-3 if i == 3 else 0.0))
                for i in range(8)]
        system = lowdin_orthogonalize(
            solved_molecule(Molecule.from_angstrom(spec)).scf)
        fragments = atoms_per_fragment(system, 2)
        res = DMET(system, fragments).run(fit_chemical_potential=False)
        assert res.orbits == [[0], [1], [2], [3]]
        energy, _, _ = all_fragments_evaluate(system, fragments)
        assert res.energy == pytest.approx(energy, abs=1e-12)


class TestWhatIsChecked:
    def test_water_mirror_flips_p_x(self, water):
        """Swapping the hydrogens is a symmetry only with O 2p_x negated:
        the plain permutation changes h1, the signed one does not."""
        system = lowdin_orthogonalize(water.scf)
        perm = np.array([0, 1, 2, 3, 4, 6, 5])
        assert np.max(np.abs(system.h1[np.ix_(perm, perm)]
                             - system.h1)) > 1e-2
        assert _is_symmetry(system, perm)

    def test_density_must_be_checked(self, h4_ring):
        """The H4 ring's h1 (and h2) keep the 1-atom shift, its RHF density
        does not: one-atom fragments form two orbits, not one."""
        system = lowdin_orthogonalize(h4_ring.scf)
        shift = np.roll(np.arange(4), -1)
        assert np.max(np.abs(system.h1[np.ix_(shift, shift)]
                             - system.h1)) < 1e-12
        assert np.max(np.abs(system.density[np.ix_(shift, shift)]
                             - system.density)) > 0.5
        assert not _is_symmetry(system, shift)
        assert DMET(system, atoms_per_fragment(system, 1)).orbits \
            == [[0, 2], [1, 3]]

    def test_a_bath_cut_elsewhere_splits_a_pair(self, chain8):
        """The mirror maps fragment 0 onto 3, but a bath-tolerance cut
        that rounding put in another place (one bath orbital fewer), or a
        bath spectrum that differs, keeps them apart."""
        system, fragments = chain8
        baths = [build_bath(system.density, f) for f in fragments]
        assert fragment_orbits(system, fragments, baths) == [[0, 3], [1, 2]]
        spectrum = baths[3].entanglement_spectrum
        for other in (replace(baths[3], n_bath=1),
                      replace(baths[3], entanglement_spectrum=spectrum + 1e-9)):
            assert fragment_orbits(system, fragments,
                                   baths[:3] + [other]) == [[0], [1, 2], [3]]

    def test_search_is_pruned(self):
        """A 30-site ring: 15 orbit searches over 30! atom maps each,
        finished because a site is placed only where its blocks fit."""
        system = from_lattice(hubbard_ring(30, u=4.0, t=1.0))
        fragments = [[i, i + 1] for i in range(0, 30, 2)]
        assert DMET(system, fragments).orbits == [list(range(15))]

    @pytest.mark.parametrize("n_sites", [10, 18, 30])
    def test_each_site_is_placed_once_per_search(self, monkeypatch, n_sites):
        """Candidates are tried where the site's strongest coupling is
        kept, so on a ring every search places each site at its first
        try: (fragments - 1) x sites placements, not the ~n^3 of trying
        sites in index order (80 / 480 / 2,240 placements at 10 / 18 / 30
        sites)."""
        system = from_lattice(hubbard_ring(n_sites, u=4.0, t=1.0))
        fragments = [[i, i + 1] for i in range(0, n_sites, 2)]
        baths = [build_bath(system.density, f) for f in fragments]
        fit, placements = dmet._atoms_fit, []

        def counted(*args):
            placements.append(1)
            return fit(*args)

        monkeypatch.setattr(dmet, "_atoms_fit", counted)
        orbits = fragment_orbits(system, fragments, baths)
        assert orbits == [list(range(n_sites // 2))]
        assert len(placements) == (n_sites // 2 - 1) * n_sites
