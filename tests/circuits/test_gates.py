"""Tests for gate records and matrices."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.gates import GATE_MATRICES, Gate, controlled_pauli_gate


def _is_unitary(m):
    return np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


class TestFixedGates:
    def test_all_fixed_matrices_unitary(self):
        for name, m in GATE_MATRICES.items():
            assert _is_unitary(m), name

    def test_cx_action(self):
        g = Gate("CX", (0, 1))
        m = g.matrix()
        # |10> -> |11>
        v = np.zeros(4)
        v[2] = 1.0
        assert np.allclose(m @ v, np.eye(4)[3])

    def test_h_squared_identity(self):
        h = GATE_MATRICES["H"]
        assert np.allclose(h @ h, np.eye(2))

    def test_sdg_is_s_dagger(self):
        assert np.allclose(GATE_MATRICES["SDG"],
                           GATE_MATRICES["S"].conj().T)


class TestRotationGates:
    @pytest.mark.parametrize("name,pauli", [("RX", "X"), ("RY", "Y"),
                                            ("RZ", "Z")])
    def test_rotation_generator(self, name, pauli):
        """R_P(a) = exp(-i a P / 2)."""
        from scipy.linalg import expm

        a = 0.731
        g = Gate(name, (0,), angle=a)
        expected = expm(-0.5j * a * GATE_MATRICES[pauli])
        assert np.allclose(g.matrix(), expected, atol=1e-12)

    def test_rzz(self):
        from scipy.linalg import expm

        a = 0.4
        zz = np.kron(GATE_MATRICES["Z"], GATE_MATRICES["Z"])
        g = Gate("RZZ", (0, 1), angle=a)
        assert np.allclose(g.matrix(), expm(-0.5j * a * zz), atol=1e-12)

    def test_rotation_periodicity(self):
        g1 = Gate("RZ", (0,), angle=0.3)
        g2 = Gate("RZ", (0,), angle=0.3 + 4 * np.pi)
        assert np.allclose(g1.matrix(), g2.matrix(), atol=1e-12)

    def test_unbound_matrix_raises(self):
        with pytest.raises(ValidationError):
            Gate("RZ", (0,), param=(0, 1.0)).matrix()


class TestBinding:
    def test_bound_resolves_multiplier(self):
        g = Gate("RZ", (0,), param=(1, -2.0))
        b = g.bound(np.array([9.0, 0.25]))
        assert b.angle == pytest.approx(-0.5)
        assert b.param is None

    def test_bound_noop_for_fixed(self):
        g = Gate("H", (0,))
        assert g.bound(np.zeros(1)) is g


class TestValidation:
    def test_wrong_arity(self):
        with pytest.raises(ValidationError):
            Gate("CX", (0,))
        with pytest.raises(ValidationError):
            Gate("H", (0, 1))

    def test_duplicate_qubits(self):
        with pytest.raises(ValidationError):
            Gate("CX", (1, 1))

    def test_unknown_gate(self):
        with pytest.raises(ValidationError):
            Gate("FOO", (0,))

    def test_custom_requires_unitary(self):
        with pytest.raises(ValidationError):
            Gate("U2", (0, 1))

    def test_name_normalized(self):
        assert Gate("h", (0,)).name == "H"


class TestControlledPauli:
    @pytest.mark.parametrize("p", ["X", "Y", "Z"])
    def test_block_structure(self, p):
        g = controlled_pauli_gate(0, 1, p)
        m = g.matrix()
        assert np.allclose(m[:2, :2], np.eye(2))
        assert np.allclose(m[2:, 2:], GATE_MATRICES[p])

    def test_bad_pauli(self):
        with pytest.raises(ValidationError):
            controlled_pauli_gate(0, 1, "I")


class TestPauliRotationGate:
    """``PR``: exp(-i angle/2 P), one of the two composite gates (the
    numerics of the other, ``EX``, live in
    tests/properties/test_excitation_gate.py)."""

    def test_matrix_is_the_pauli_exponential(self):
        from scipy.linalg import expm

        from repro.operators.pauli import pauli_string

        g = Gate("PR", (0, 2, 3), angle=0.83, pauli="xzy")
        assert g.pauli == "XZY"
        p = pauli_string([(0, "X"), (1, "Z"), (2, "Y")]).matrix(3)
        assert np.allclose(g.matrix(), expm(-0.5j * 0.83 * p), atol=1e-12)

    def test_single_qubit_string_matches_rz(self):
        assert np.allclose(Gate("PR", (1,), angle=0.4, pauli="Z").matrix(),
                           Gate("RZ", (1,), angle=0.4).matrix())

    def test_decompose_multiplies_back_to_the_exponential(self):
        from scipy.linalg import expm

        from repro.circuits.circuit import Circuit
        from repro.operators.pauli import pauli_string
        from repro.simulators.statevector import StatevectorSimulator

        g = Gate("PR", (0, 1, 3), angle=-1.1, pauli="YXZ")
        elementary = g.decompose()
        assert all(e.n_qubits <= 2 and e.name != "PR" for e in elementary)
        # a gapped string couples non-adjacent qubits
        assert Gate("CX", (1, 3)) in elementary
        cols = []
        for basis in range(16):
            sim = StatevectorSimulator(4)
            sim.set_state(np.eye(16)[basis])
            cols.append(sim.run(Circuit(4, elementary)).statevector())
        p = pauli_string([(0, "Y"), (1, "X"), (3, "Z")]).matrix(4)
        assert np.allclose(np.array(cols).T, expm(0.55j * p), atol=1e-12)

    def test_elementary_gates_decompose_to_themselves(self):
        g = Gate("CX", (0, 1))
        assert g.decompose() == [g]

    def test_decompose_moves_the_parameter_to_the_rz(self):
        g = Gate("PR", (0, 1), param=(3, -0.5), pauli="ZZ")
        rz = [e for e in g.decompose() if e.name == "RZ"]
        assert rz == [Gate("RZ", (1,), param=(3, -0.5))]

    def test_unbound_matrix_raises(self):
        with pytest.raises(ValidationError):
            Gate("PR", (0, 1), param=(0, 1.0), pauli="XX").matrix()

    @pytest.mark.parametrize("qubits,pauli", [
        ((0, 1), None), ((0, 1), ""), ((0, 1), "XI"), ((0, 1), "XYZ"),
        ((1, 0), "XY"), ((0, 0), "XY"),
    ])
    def test_validation(self, qubits, pauli):
        with pytest.raises(ValidationError):
            Gate("PR", qubits, angle=0.1, pauli=pauli)

    def test_parametric_set_is_exported(self):
        from repro.circuits.gates import PARAMETRIC

        assert PARAMETRIC == {"RX", "RY", "RZ", "RZZ", "PR", "EX"}

    @pytest.mark.parametrize("qubits,ladder", [
        ((0, 1), None), ((0, 1), ""), ((0, 1), "+X"), ((0, 1), "+-Z"),
        ((1, 0), "+-"), ((0, 0), "+-"),
        ((0, 1), "ZZ"),       # no ladder factor: T = T+, the gate is 1
    ])
    def test_excitation_gate_validation(self, qubits, ladder):
        with pytest.raises(ValidationError):
            Gate("EX", qubits, angle=0.1, pauli=ladder)

    def test_excitation_gate_decomposes_one_level_at_a_time(self):
        g = Gate("EX", (0, 2, 3), param=(1, 2.0), pauli="-z+")
        assert g.pauli == "-Z+"
        rotations = g.decompose()
        # kappa = i/2 (Y Z X - X Z Y); PR(b) = exp(-i b/2 P)
        assert rotations == [
            Gate("PR", (0, 2, 3), param=(1, -2.0), pauli="YZX"),
            Gate("PR", (0, 2, 3), param=(1, 2.0), pauli="XZY")]
        assert Gate("CX", (0, 2)) in rotations[0].decompose()
        bound = g.bound(np.array([0.0, 0.3]))
        assert bound.angle == 0.6
        assert bound.decompose() == [r.bound(np.array([0.0, 0.3]))
                                     for r in rotations]
        with pytest.raises(ValidationError):
            g.matrix()
