"""Tests for the dense state-vector simulator."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.operators.pauli import QubitOperator, pauli_string
from repro.simulators.statevector import StatevectorSimulator


class TestBasics:
    def test_initial_state(self):
        sim = StatevectorSimulator(3)
        assert sim.amplitude("000") == pytest.approx(1.0)
        assert sim.norm() == pytest.approx(1.0)

    def test_memory_guard(self):
        with pytest.raises(ValidationError):
            StatevectorSimulator(40)

    def test_x_gate(self):
        sim = StatevectorSimulator(2)
        sim.apply_gate(Gate("X", (1,)))
        assert abs(sim.amplitude("01")) == pytest.approx(1.0)

    def test_bell_state(self):
        c = Circuit(2, [Gate("H", (0,)), Gate("CX", (0, 1))])
        sim = StatevectorSimulator(2).run(c)
        assert abs(sim.amplitude("00")) == pytest.approx(2 ** -0.5)
        assert abs(sim.amplitude("11")) == pytest.approx(2 ** -0.5)
        assert abs(sim.amplitude("01")) < 1e-12

    def test_norm_preserved(self, rng):
        from repro.circuits.hea import random_brick_circuit

        c = random_brick_circuit(5, 3, seed=11)
        sim = StatevectorSimulator(5).run(c)
        assert sim.norm() == pytest.approx(1.0, abs=1e-10)

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            StatevectorSimulator(2).run(Circuit(3))

    def test_set_state_validates(self):
        sim = StatevectorSimulator(2)
        with pytest.raises(ValidationError):
            sim.set_state(np.ones(3))

    def test_reset(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate(Gate("X", (0,)))
        sim.reset()
        assert abs(sim.amplitude("0")) == pytest.approx(1.0)


class TestExpectations:
    def test_z_on_zero(self):
        sim = StatevectorSimulator(1)
        assert sim.expectation_pauli(pauli_string("Z")) == pytest.approx(1.0)

    def test_z_on_one(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate(Gate("X", (0,)))
        assert sim.expectation_pauli(pauli_string("Z")) == pytest.approx(-1.0)

    def test_x_on_plus(self):
        sim = StatevectorSimulator(1)
        sim.apply_gate(Gate("H", (0,)))
        assert sim.expectation_pauli(pauli_string("X")) == pytest.approx(1.0)

    def test_bell_correlations(self):
        c = Circuit(2, [Gate("H", (0,)), Gate("CX", (0, 1))])
        sim = StatevectorSimulator(2).run(c)
        assert sim.expectation_pauli(pauli_string("ZZ")) == pytest.approx(1.0)
        assert sim.expectation_pauli(pauli_string("XX")) == pytest.approx(1.0)
        assert sim.expectation_pauli(pauli_string("YY")) == pytest.approx(-1.0)
        assert sim.expectation_pauli(
            pauli_string([(0, "Z")])) == pytest.approx(0.0)

    def test_operator_expectation_matches_matrix(self, rng):
        from repro.circuits.hea import random_brick_circuit

        c = random_brick_circuit(4, 2, seed=5)
        sim = StatevectorSimulator(4).run(c)
        op = (QubitOperator.from_term("XXII", 0.7)
              + QubitOperator.from_term("IZZI", -0.2)
              + QubitOperator.identity(1.5))
        psi = sim.statevector()
        expected = np.real(psi.conj() @ op.matrix(4) @ psi)
        assert sim.expectation(op) == pytest.approx(expected, abs=1e-10)

    def test_compile_past_physical_memory_is_an_error(self):
        """4,096 flip-mask groups on 26 qubits would hold 24 B x 4,096 x
        2^26 = 6 TiB: a ValidationError naming the sizes, raised from the
        masks alone before any 2^n array exists (it was an OOM kill)."""
        import tracemalloc

        from repro.operators.pauli import PauliTerm
        from repro.simulators.pauli_kernels import CompiledObservable

        op = QubitOperator({PauliTerm(x=k, z=k >> 1): 0.5
                            for k in range(1, 4097)})
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=r"26 qubits .* 4096 flip-mask groups "
                                     r".* GiB of physical memory"):
                CompiledObservable(op, 26)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_probability_of_bit(self):
        sim = StatevectorSimulator(2)
        sim.apply_gate(Gate("H", (0,)))
        assert sim.probability_of_bit(0, 0) == pytest.approx(0.5)
        assert sim.probability_of_bit(1, 0) == pytest.approx(1.0)


def _embedded(gate, psi, n):
    """``gate.matrix()`` applied to ``psi`` on its qubits of an n-register."""
    k = gate.n_qubits
    mat = gate.matrix().reshape((2,) * (2 * k))
    out = np.tensordot(mat, psi.reshape((2,) * n),
                       axes=(list(range(k, 2 * k)), list(gate.qubits)))
    return np.moveaxis(out, list(range(k)), list(gate.qubits)).reshape(-1)


class TestCompositeGatesWhole:
    """``EX`` and ``PR`` of any width are applied whole, without their
    staircases, and equal their own matrix (a ``PR`` or ``EX`` on three or
    more qubits was a bare numpy ``ValueError``)."""

    N = 9

    @pytest.mark.parametrize("name,alphabet", [("EX", "+-Z"), ("PR", "XYZ")])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_string_matches_its_matrix(self, name, alphabet, k):
        import itertools

        rng = np.random.default_rng(100 * k + len(name))
        for chars in itertools.product(alphabet, repeat=k):
            string = "".join(chars)
            if name == "EX" and set(string) == {"Z"}:
                continue  # no ladder factor: not a gate
            qubits = tuple(sorted(int(q) for q in rng.choice(
                self.N, size=k, replace=False)))
            gate = Gate(name, qubits, pauli=string,
                        angle=float(rng.uniform(-np.pi, np.pi)))
            psi = rng.standard_normal(2 ** self.N) \
                + 1j * rng.standard_normal(2 ** self.N)
            psi /= np.linalg.norm(psi)
            sim = StatevectorSimulator(self.N)
            sim.set_state(psi)
            sim.apply_gate(gate)
            assert np.abs(sim.statevector()
                          - _embedded(gate, psi, self.N)).max() <= 1e-14, \
                (string, qubits)

    def test_three_site_rotation_on_the_zero_state(self):
        sim = StatevectorSimulator(4)
        gate = Gate("PR", (0, 1, 2), pauli="XYZ", angle=0.3)
        sim.apply_gate(gate)
        assert np.abs(sim.statevector() - _embedded(
            gate, StatevectorSimulator(4).statevector(), 4)).max() <= 1e-14

    def test_run_applies_no_staircase(self, monkeypatch):
        def refuse(circuit):
            raise AssertionError("run() decomposed the circuit")

        monkeypatch.setattr(Circuit, "decomposed", refuse)
        gate = Gate("EX", (0, 2, 3), pauli="+Z-", angle=0.7)
        sim = StatevectorSimulator(4)
        sim.set_state(np.full(16, 0.25))
        sim.run(Circuit(4, [gate]))
        assert np.abs(sim.statevector()
                      - _embedded(gate, np.full(16, 0.25), 4)).max() <= 1e-15


@pytest.mark.parametrize("system,bound", [("frozen-core LiH", 1e-12),
                                          ("H6", 3e-12)])
def test_excitations_whole_match_their_staircases(system, bound):
    """The statevector energy of a UCCSD circuit, ``EX`` applied whole,
    against the same circuit's ``decomposed()`` CNOT staircases.  The gap
    is the staircases' rounding: 8.1e-13 / 2.0e-12 Ha here, while the
    whole path is within 1.1e-15 Ha of the same kernel run in extended
    precision (EXPERIMENTS.md, Ablation 14)."""
    from repro import Q2Chemistry
    from repro.chem.geometry import hydrogen_chain, lih
    from repro.circuits.uccsd import UCCSDAnsatz

    job = (Q2Chemistry.from_molecule(lih(), frozen_core=1)
           if system == "frozen-core LiH"
           else Q2Chemistry.from_molecule(hydrogen_chain(6, 1.0)))
    mo = job.mo_integrals
    ham = job.qubit_hamiltonian()
    circuit = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    theta = 0.05 * np.random.default_rng(0).standard_normal(
        circuit.n_parameters)
    bound_circuit = circuit.bind(theta)
    n = circuit.n_qubits
    whole = StatevectorSimulator(n).run(bound_circuit)
    staircase = StatevectorSimulator(n).run(bound_circuit.decomposed())
    assert abs(whole.expectation(ham) - staircase.expectation(ham)) <= bound
