"""Tests for UCCSD ansatz variants: Bravyi-Kitaev mapping and UCCGSD."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.bravyi_kitaev import bk_encode_occupation
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.vqe import VQE


class TestBKEncoding:
    def test_vacuum_encodes_to_zero(self):
        assert bk_encode_occupation([0, 0, 0, 0]) == [0, 0, 0, 0]

    def test_single_occupation_spreads_to_update_set(self):
        # orbital 0 occupied: qubits storing partial sums over orbital 0
        # (its Fenwick ancestors) flip too
        enc = bk_encode_occupation([1, 0, 0, 0])
        assert enc[0] == 1
        assert enc[1] == 1  # qubit 1 stores n0+n1
        assert enc[3] == 1  # qubit 3 stores n0+n1+n2+n3

    def test_even_qubits_store_own_occupation(self):
        for occ in ([1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1]):
            enc = bk_encode_occupation(occ)
            for q in range(0, 4, 2):
                assert enc[q] == occ[q]

    def test_parity_qubit_total(self):
        # the top qubit of a 4-mode register stores the total parity
        for occ in ([1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0]):
            assert bk_encode_occupation(occ)[3] == sum(occ) % 2


class TestBKAnsatz:
    def test_reference_energy_is_hf(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo, "bk")
        ansatz = UCCSDAnsatz(2, 2, mapping="bk")
        ev = EnergyEvaluator(ham, ansatz.circuit(), simulator="statevector")
        e_ref = ev.energy(np.zeros(ansatz.n_parameters))
        assert e_ref == pytest.approx(h2.scf.energy, abs=1e-8)

    def test_vqe_reaches_fci(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo, "bk")
        ansatz = UCCSDAnsatz(2, 2, mapping="bk")
        res = VQE(ham, ansatz, simulator="statevector").run()
        assert res.energy == pytest.approx(h2.fci.energy, abs=1e-7)

    def test_same_parameter_count_as_jw(self):
        jw = UCCSDAnsatz(3, 2, mapping="jw")
        bk = UCCSDAnsatz(3, 2, mapping="bk")
        assert jw.n_parameters == bk.n_parameters

    def test_bk_strings_lower_weight_at_scale(self):
        """BK's O(log n) weight advantage shows up in the ansatz terms."""
        jw = UCCSDAnsatz(8, 2, mapping="jw")
        bk = UCCSDAnsatz(8, 2, mapping="bk")

        def max_weight(ansatz):
            return max(pt.weight for exc in ansatz.excitations
                       for pt, _ in exc.pauli_terms)

        assert max_weight(bk) < max_weight(jw)

    def test_unknown_mapping(self):
        with pytest.raises(ValidationError):
            UCCSDAnsatz(2, 2, mapping="parity")


class TestUCCGSD:
    def test_more_parameters_than_uccsd(self):
        sd = UCCSDAnsatz(4, 4)
        gsd = UCCSDAnsatz(4, 4, generalized=True)
        assert gsd.n_parameters > sd.n_parameters

    def test_h4_ring_accuracy_improves(self, solved_molecule):
        """Stretched H4 ring: UCCGSD recovers what UCCSD misses."""
        from repro.chem import geometry

        solved = solved_molecule(geometry.hydrogen_ring(4, 1.2))
        e_fci = solved.fci.energy
        ham = molecular_qubit_hamiltonian(solved.mo)

        errors = {}
        for gen in (False, True):
            ansatz = UCCSDAnsatz(4, 4, generalized=gen)
            r = VQE(ham, ansatz, simulator="statevector",
                    max_iterations=6000).run()
            errors[gen] = r.energy - e_fci
        assert errors[True] < 0.05 * errors[False]
        assert errors[True] < 1e-3

    def test_reference_unchanged(self):
        sd = UCCSDAnsatz(3, 2)
        gsd = UCCSDAnsatz(3, 2, generalized=True)
        assert sd._reference_qubits() == gsd._reference_qubits()
