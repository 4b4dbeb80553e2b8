"""Tests for the three-level parallel driver."""

import numpy as np
import pytest

from repro.parallel.threelevel import ThreeLevelDriver


class TestLocalMode:
    def test_process_fragments_match_inline(self, h6_ring):
        """Level-1 parallelism for real: three fragments on three worker
        processes give the in-line results."""
        from repro.dmet.bath import build_bath
        from repro.dmet.embedding import build_embedding_hamiltonian
        from repro.dmet.orthogonalize import attach_labels, \
            lowdin_orthogonalize
        from repro.dmet.solvers import FCIFragmentSolver

        attach_labels(h6_ring.scf, h6_ring.rhf.basis)
        system = lowdin_orthogonalize(h6_ring.scf, h6_ring.eri_ao)
        problems = [
            build_embedding_hamiltonian(
                system, build_bath(system.density, frag))
            for frag in ([0, 1], [2, 3], [4, 5])
        ]
        solver = FCIFragmentSolver()
        inline = [solver.solve(p, 0.0) for p in problems]
        parallel = ThreeLevelDriver.run_fragments_local(problems, solver,
                                                        max_workers=3)
        for s, p in zip(inline, parallel):
            assert p.energy == pytest.approx(s.energy, abs=1e-10)
            assert np.allclose(p.one_rdm, s.one_rdm, atol=1e-10)
