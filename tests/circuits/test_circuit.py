"""Tests for the circuit IR."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate


def _toy():
    c = Circuit(n_qubits=3, n_parameters=2)
    c.append(Gate("H", (0,)))
    c.append(Gate("RZ", (1,), param=(0, 1.0)))
    c.append(Gate("CX", (0, 1)))
    c.append(Gate("RZ", (2,), param=(1, -2.0)))
    return c


class TestConstruction:
    def test_append_checks_register(self):
        c = Circuit(n_qubits=2)
        with pytest.raises(ValidationError):
            c.append(Gate("H", (5,)))

    def test_append_checks_parameters(self):
        c = Circuit(n_qubits=2, n_parameters=1)
        with pytest.raises(ValidationError):
            c.append(Gate("RZ", (0,), param=(3, 1.0)))

    def test_needs_positive_width(self):
        with pytest.raises(ValidationError):
            Circuit(n_qubits=0)

    def test_len_and_iter(self):
        c = _toy()
        assert len(c) == 4
        assert [g.name for g in c] == ["H", "RZ", "CX", "RZ"]


class TestCompose:
    def test_sequence_order(self):
        a = Circuit(2, [Gate("X", (0,))])
        b = Circuit(2, [Gate("H", (1,))])
        ab = a.compose(b)
        assert [g.name for g in ab] == ["X", "H"]

    def test_register_mismatch(self):
        with pytest.raises(ValidationError):
            Circuit(2).compose(Circuit(3))

    def test_parameter_space_shared(self):
        a = Circuit(2, n_parameters=3)
        b = Circuit(2, n_parameters=1)
        assert a.compose(b).n_parameters == 3


class TestBinding:
    def test_bind_resolves_all(self):
        c = _toy().bind(np.array([0.5, 0.25]))
        assert c.is_bound()
        angles = [g.angle for g in c if g.name == "RZ"]
        assert angles == [pytest.approx(0.5), pytest.approx(-0.5)]

    def test_bind_too_few(self):
        with pytest.raises(ValidationError):
            _toy().bind(np.array([1.0]))

    def test_unbound_detection(self):
        assert not _toy().is_bound()


class TestQueries:
    def test_count_gates(self):
        counts = _toy().count_gates()
        assert counts == {"H": 1, "RZ": 2, "CX": 1}

    def test_two_qubit_count(self):
        assert _toy().n_two_qubit_gates() == 1

    def test_depth(self):
        c = Circuit(2)
        c.append(Gate("H", (0,)))
        c.append(Gate("H", (1,)))  # parallel with the first
        c.append(Gate("CX", (0, 1)))
        assert c.depth() == 2

    def test_parameter_indices(self):
        assert _toy().parameter_indices() == {0, 1}

    def test_memory_grows_with_gates(self):
        small = Circuit(2, [Gate("H", (0,))])
        big = Circuit(2, [Gate("H", (0,))] * 50)
        assert big.memory_bytes() > small.memory_bytes()

    def test_memory_counts_unitaries(self):
        u = np.eye(4, dtype=complex)
        with_u = Circuit(2, [Gate("U2", (0, 1), unitary=u)])
        without = Circuit(2, [Gate("CX", (0, 1))])
        assert with_u.memory_bytes() > without.memory_bytes()


class TestPauliRotations:
    def test_unbound_pr_is_not_bound(self):
        """is_bound reads the parametric set of gates.py (it used to
        hardcode RX/RY/RZ/RZZ and call an angle-less PR bound)."""
        c = Circuit(3, [Gate("PR", (0, 2), pauli="XY")])
        assert not c.is_bound()
        c = Circuit(3, [Gate("PR", (0, 2), pauli="XY", param=(0, 1.0))],
                    n_parameters=1)
        assert not c.is_bound()
        assert c.bind(np.array([0.3])).is_bound()

    def test_decomposed_keeps_parameters_and_commutes_with_bind(self):
        c = Circuit(4, [Gate("H", (1,)),
                        Gate("PR", (0, 2, 3), pauli="XZY", param=(1, -2.0))],
                    n_parameters=2, name="toy")
        d = c.decomposed()
        assert d.n_parameters == 2 and d.name == "toy"
        assert all(g.name != "PR" for g in d)
        assert d.parameter_indices() == {1}
        theta = np.array([0.1, 0.7])
        assert d.bind(theta).gates == c.bind(theta).decomposed().gates

    def test_decomposed_without_rotations_is_the_circuit_itself(self):
        c = _toy()
        assert c.decomposed() is c
