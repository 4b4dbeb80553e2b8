"""Tests for the UCCSD ansatz builder."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.uccsd import UCCSDAnsatz, uccsd_circuit
from repro.simulators.statevector import StatevectorSimulator


class TestStructure:
    def test_h2_parameter_count(self):
        """H2 (2 orbitals, 2 electrons): 1 single + 1 double."""
        ansatz = UCCSDAnsatz(2, 2)
        assert ansatz.n_parameters == 2

    def test_h4_parameter_count(self):
        """4 orbitals, 4 electrons: 4 singles + C(4+1,2)=10 doubles."""
        ansatz = UCCSDAnsatz(4, 4)
        assert ansatz.n_parameters == 14

    def test_singles_only(self):
        """The singles block (one per occupied -> virtual pair) holds only
        singles: every Pauli string flips exactly two qubits."""
        ansatz = UCCSDAnsatz(4, 4)
        singles = ansatz.excitations[:2 * 2]
        assert [e.label for e in singles] == [
            "s_0->2", "s_0->3", "s_1->2", "s_1->3"]
        for e in singles:
            assert {bin(p.x).count("1") for p, _ in e.pauli_terms} == {2}

    def test_doubles_only(self):
        """Every excitation after the singles is a double: every Pauli
        string flips exactly four qubits."""
        ansatz = UCCSDAnsatz(4, 4)
        doubles = ansatz.excitations[2 * 2:]
        assert len(doubles) == 10
        for e in doubles:
            assert e.label.startswith("d_")
            assert {bin(p.x).count("1") for p, _ in e.pauli_terms} == {4}

    def test_singles_then_doubles(self):
        """3 orbitals, 2 electrons: the 2 singles, then the 3 doubles,
        one parameter each in that order."""
        ansatz = UCCSDAnsatz(3, 2)
        labels = [e.label for e in ansatz.excitations]
        assert [lab[:2] for lab in labels] == ["s_"] * 2 + ["d_"] * 3
        assert [e.param_index for e in ansatz.excitations] == list(range(5))

    def test_generators_imaginary_coefficients(self):
        """JW(tau - tau+) = i * sum(real coeffs * Pauli)."""
        ansatz = UCCSDAnsatz(3, 2)
        for exc in ansatz.excitations:
            for _, coeff in exc.pauli_terms:
                assert isinstance(coeff, float)

    @pytest.mark.parametrize("n_spatial,n_electrons,strings,groups", [
        (4, 2, (96, 462), (3, 6)), (5, 2, (192, 856), (6, 10)),
        (4, 4, (384, 1608), (12, 20)), (6, 4, (2048, 8144), (64, 96))])
    def test_what_commutes_inside_one_excitation(self, n_spatial,
                                                 n_electrons, strings,
                                                 groups):
        """Not the strings of one generator, pairwise, and not its
        flip-mask groups as operators either (the two spin components of a
        mixed double share their occupied pair) - so the order of the
        product is part of the ansatz.  What holds: the strings of one
        group commute, and ``pauli_terms`` lists every group contiguously,
        which together make the product over strings in ``pauli_terms``
        order the product over groups in ``mask_groups`` order."""
        from repro.operators.pauli import QubitOperator

        ansatz = UCCSDAnsatz(n_spatial, n_electrons)
        string_pairs = string_anti = group_pairs = group_open = 0
        for exc in ansatz.excitations:
            terms = [pt for pt, _ in exc.pauli_terms]
            assert [pt for g in exc.mask_groups for pt, _ in g] == terms
            for i, a in enumerate(terms):
                for b in terms[i + 1:]:
                    string_pairs += 1
                    string_anti += not a.commutes_with(b)
            generators = []
            for group in exc.mask_groups:
                assert len({pt.x for pt, _ in group}) == 1
                assert all(a.commutes_with(b) for a, _ in group
                           for b, _ in group)
                generators.append(
                    QubitOperator({pt: 1j * c for pt, c in group}))
            for i, a in enumerate(generators):
                for b in generators[i + 1:]:
                    commutator = (a * b - b * a).terms.values()
                    group_pairs += 1
                    group_open += max(map(abs, commutator)) > 1e-12
                    # the alpha and beta halves of a single do commute
                    assert exc.label.startswith("d_") or not group_open
        assert (string_anti, string_pairs) == strings
        assert (group_open, group_pairs) == groups

    def test_odd_electrons_rejected(self):
        with pytest.raises(ValidationError):
            UCCSDAnsatz(3, 3)

    def test_no_virtuals_rejected(self):
        with pytest.raises(ValidationError):
            UCCSDAnsatz(2, 4)


class TestCircuits:
    def test_reference_prepares_hf(self):
        ansatz = UCCSDAnsatz(2, 2)
        sim = StatevectorSimulator(4).run(ansatz.reference_circuit())
        # |1100> with qubit 0 the MSB
        assert abs(sim.amplitude("1100")) == pytest.approx(1.0)

    def test_zero_parameters_give_reference(self):
        ansatz = UCCSDAnsatz(2, 2)
        circ = ansatz.circuit().bind(np.zeros(ansatz.n_parameters))
        sim = StatevectorSimulator(4).run(circ)
        assert abs(sim.amplitude("1100")) == pytest.approx(1.0)

    def test_particle_number_conserved(self):
        """UCCSD preserves electron number for any parameters."""
        from repro.operators.fermion import FermionOperator
        from repro.operators.jordan_wigner import jordan_wigner

        ansatz = UCCSDAnsatz(2, 2)
        theta = np.array([0.3, -0.7])
        circ = ansatz.circuit().bind(theta)
        sim = StatevectorSimulator(4).run(circ)
        number = FermionOperator.zero()
        for p in range(4):
            number = number + FermionOperator.from_term([(p, 1), (p, 0)])
        n_op = jordan_wigner(number)
        assert sim.expectation(n_op) == pytest.approx(2.0, abs=1e-10)

    def test_state_normalized(self):
        ansatz = UCCSDAnsatz(3, 2)
        theta = 0.1 * np.arange(ansatz.n_parameters)
        sim = StatevectorSimulator(6).run(ansatz.circuit().bind(theta))
        assert sim.norm() == pytest.approx(1.0, abs=1e-10)

    def test_wide_register_for_ancilla(self):
        ansatz = UCCSDAnsatz(2, 2)
        circ = ansatz.circuit(n_qubits=5)
        assert circ.n_qubits == 5

    def test_narrow_register_rejected(self):
        ansatz = UCCSDAnsatz(2, 2)
        with pytest.raises(ValidationError):
            ansatz.circuit(n_qubits=3)

    def test_convenience_function(self):
        circ, ansatz = uccsd_circuit(2, 2)
        assert circ.n_parameters == ansatz.n_parameters

    def test_initial_parameters(self):
        """The Hartree-Fock start, the only one."""
        ansatz = UCCSDAnsatz(2, 2)
        assert np.array_equal(ansatz.initial_parameters(), np.zeros(2))
        with pytest.raises(TypeError):
            ansatz.initial_parameters("random")

    def test_gate_count_scale_h2(self):
        """The paper's Fig. 5 quotes ~120 ansatz gates for H2 + 2 X gates."""
        ansatz = UCCSDAnsatz(2, 2)
        circ = ansatz.circuit()
        # one EX gate per spin-orbital excitation: two singles (alpha,
        # beta) and the one double, 2 + 2 + 8 Pauli rotations between them
        assert circ.count_gates() == {"X": 2, "EX": 3}
        assert sum(len(g.decompose()) for g in circ if g.name == "EX") == 12
        gates = circ.decomposed()
        assert 80 <= len(gates) <= 200
        assert gates.count_gates()["X"] == 2
