"""Tests for exp(i phi P) compilation to CNOT staircases."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.common.errors import ValidationError
from repro.circuits.trotter import pauli_exponential, pauli_rotation_circuit
from repro.operators.pauli import PauliTerm, pauli_string
from repro.simulators.statevector import StatevectorSimulator


def _circuit_unitary(circuit):
    """Unitary of a small bound circuit by running basis states."""
    dim = 2 ** circuit.n_qubits
    cols = []
    for b in range(dim):
        sim = StatevectorSimulator(circuit.n_qubits)
        vec = np.zeros(dim, dtype=complex)
        vec[b] = 1.0
        sim.set_state(vec)
        sim.run(circuit)
        cols.append(sim.statevector())
    return np.array(cols).T


@pytest.mark.parametrize("label", ["Z", "X", "Y", "ZZ", "XY", "XX", "YZX",
                                   "ZIX"])
def test_exponential_matches_expm(label):
    n = len(label)
    term = pauli_string(label)
    phi = 0.377
    circ = pauli_exponential(term, n, phi)
    u = _circuit_unitary(circ)
    expected = expm(1j * phi * term.matrix(n))
    # compare up to global phase (should actually be exact here)
    assert np.allclose(u, expected, atol=1e-10)


def test_identity_term_emits_nothing():
    gates = pauli_rotation_circuit(PauliTerm(0, 0), 3, angle=0.4)
    assert gates == []


def test_zero_angle_is_identity():
    term = pauli_string("XZY")
    u = _circuit_unitary(pauli_exponential(term, 3, 0.0))
    assert np.allclose(u, np.eye(8), atol=1e-12)


def test_parametric_form_matches_fixed():
    term = pauli_string("XY")
    fixed = pauli_exponential(term, 2, 0.21)
    from repro.circuits.circuit import Circuit

    par = Circuit(2, n_parameters=1)
    par.extend(pauli_rotation_circuit(term, 2, param=(0, 0.7)))
    bound = par.bind(np.array([0.3]))
    assert np.allclose(_circuit_unitary(fixed), _circuit_unitary(bound),
                       atol=1e-12)


def test_requires_exactly_one_of_angle_param():
    term = pauli_string("X")
    with pytest.raises(ValidationError):
        pauli_rotation_circuit(term, 1)
    with pytest.raises(ValidationError):
        pauli_rotation_circuit(term, 1, angle=0.1, param=(0, 1.0))


def test_support_outside_register():
    with pytest.raises(ValidationError):
        pauli_rotation_circuit(pauli_string([(5, "X")]), 3, angle=0.1)


def test_ladder_is_nearest_neighbour_for_contiguous_strings():
    """JW-style contiguous strings compile to adjacent CNOTs only."""
    term = pauli_string("XZZY")
    gates = pauli_rotation_circuit(term, 4, angle=0.5)
    for g in gates:
        if g.name == "CX":
            assert abs(g.qubits[0] - g.qubits[1]) == 1


def test_composition_of_commuting_factors():
    """Product of exponentials of commuting strings == exponential of sum."""
    a, b = pauli_string("XX"), pauli_string("YY")
    assert a.commutes_with(b)
    phi1, phi2 = 0.3, -0.45
    c = pauli_exponential(a, 2, phi1).compose(pauli_exponential(b, 2, phi2))
    u = _circuit_unitary(c)
    expected = expm(1j * (phi1 * a.matrix(2) + phi2 * b.matrix(2)))
    assert np.allclose(u, expected, atol=1e-10)


def test_rotation_gate_is_the_staircase_source():
    from repro.circuits.trotter import pauli_rotation_gate

    term = pauli_string([(0, "X"), (1, "Z"), (3, "Y")])
    gate = pauli_rotation_gate(term, 4, angle=0.35)
    assert (gate.name, gate.qubits, gate.pauli) == ("PR", (0, 1, 3), "XZY")
    assert gate.angle == -0.7                 # PR(a) = exp(-i a P / 2)
    assert gate.decompose() == pauli_rotation_circuit(term, 4, angle=0.35)
    assert pauli_rotation_gate(PauliTerm(0, 0), 4, angle=0.35) is None
    par = pauli_rotation_gate(term, 4, param=(2, 0.25))
    assert par.param == (2, -0.5) and par.angle is None


def test_ladder_crosses_identity_gaps():
    """A double excitation's string has a gap: its ladder is not
    nearest-neighbour, which is where the routing swaps came from."""
    term = pauli_string([(0, "X"), (1, "Y"), (4, "X"), (5, "Y")])
    cx = [g.qubits for g in pauli_rotation_circuit(term, 6, angle=0.1)
          if g.name == "CX"]
    assert (1, 4) in cx


class TestExcitationGate:
    """``excitation_gate``: a commuting run of exponentials that is one
    ladder product becomes one ``EX`` gate, anything else does not."""

    @staticmethod
    def _terms(*pairs):
        return [(pauli_string(label), c) for label, c in pairs]

    def test_single_with_its_parity_string(self):
        from repro.circuits.gates import Gate
        from repro.circuits.trotter import excitation_gate

        # JW(a+_2 a_0 - h.c.) = i/2 (Y Z X - X Z Y)
        gate = excitation_gate(
            self._terms(("YZX", 0.5), ("XZY", -0.5)), index=3)
        assert gate == Gate("EX", (0, 1, 2), pauli="-Z+", param=(3, 1.0))

    def test_any_ladder_product_qualifies_not_only_number_conserving(self):
        from repro.circuits.trotter import excitation_gate

        # i/2 (Y Z X + X Z Y) = T - T+ for the pair annihilator T = "-Z-"
        gate = excitation_gate(
            self._terms(("YZX", 0.5), ("XZY", 0.5)), index=0)
        assert (gate.pauli, gate.param) == ("-Z-", (0, 1.0))

    def test_sign_and_weight_go_into_t_positive(self):
        from repro.circuits.trotter import excitation_gate

        # -3 (T - T+) for T = "-Z+" is +3 (T' - T'+) for T' = T+ = "+Z-"
        gate = excitation_gate(
            self._terms(("YZX", -1.5), ("XZY", 1.5)), index=0)
        assert (gate.pauli, gate.param) == ("+Z-", (0, 3.0))

    def test_double_is_recovered_from_its_own_decomposition(self):
        from repro.circuits.gates import Gate, ladder_pauli_terms
        from repro.circuits.trotter import excitation_gate

        ladder, qubits = "--Z++", (0, 1, 3, 4, 6)
        terms = [(pauli_string(list(zip(qubits, label))), 2.0 * c)
                 for label, c in ladder_pauli_terms(ladder)]
        assert len(terms) == 8
        assert excitation_gate(terms[::-1], index=1) == Gate(
            "EX", qubits, pauli=ladder, param=(1, 2.0))

    @pytest.mark.parametrize("pairs", [
        [("YZX", 0.5)],                              # half a ladder
        [("YZX", 0.5), ("XZY", -0.25)],              # unequal weights
        [("YZX", 0.5), ("XIY", -0.5)],               # Z patterns differ
        [("YZX", 0.5), ("XZY", -0.5), ("ZZI", 0.1)],  # a second mask
        [("ZZI", 0.5)],                              # no flip at all
        [("XYX", 0.5), ("YYY", 0.5)],                # Bravyi-Kitaev single
    ])
    def test_everything_else_is_not_a_ladder(self, pairs):
        from repro.circuits.trotter import excitation_gate

        assert excitation_gate(self._terms(*pairs), index=0) is None
