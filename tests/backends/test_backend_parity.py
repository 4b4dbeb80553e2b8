"""Cross-backend parity: every backend is interchangeable.

Random bound circuits and random hermitian operators run through every
backend of the table, and every backend runs a UCCSD ansatz to the same
energies - energies and expectations must agree to 1e-10.  This is the
contract that makes backends swappable by name: a row added to
:data:`repro.backends.BACKENDS` is certified here against all the others.
"""

import numpy as np
import pytest

from repro.backends import BACKENDS, available_backends, resolve_backend
from repro.circuits.hea import random_brick_circuit
from repro.circuits.uccsd import UCCSDAnsatz
from repro.common.errors import ValidationError
from repro.operators.pauli import PauliTerm, QubitOperator

ATOL = 1e-10


def _random_hermitian_operator(n_qubits, n_terms, seed):
    rng = np.random.default_rng(seed)
    mask = (1 << n_qubits) - 1
    op = QubitOperator.zero()
    for _ in range(n_terms):
        term = PauliTerm(int(rng.integers(0, mask + 1)),
                         int(rng.integers(0, mask + 1)))
        op = op + QubitOperator.from_term(term, float(rng.standard_normal()))
    return op + QubitOperator.identity(float(rng.standard_normal()))


class TestRegistry:
    def test_all_four_builtins_registered(self):
        names = available_backends()
        for expected in ("statevector", "mps", "density_matrix", "fast"):
            assert expected in names

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ValidationError, match="statevector"):
            resolve_backend("quantum", 4)

    def test_cross_backend_options_are_tolerated(self):
        # every backend must accept the uniform option set
        for name in available_backends():
            sim = resolve_backend(name, 4, max_bond_dimension=8,
                                  cutoff=1e-12)
            assert sim.n_qubits == 4

    def test_misspelt_option_is_not_swallowed(self):
        # was an *uncapped* simulator: every factory took **opts and
        # dropped what it did not know
        with pytest.raises(ValidationError, match="max_bond_dimension"):
            resolve_backend("mps", 4, max_bond_dimention=2)
        with pytest.raises(ValidationError, match="max_bond_dimension"):
            resolve_backend("statevector", 4, max_qbits=2)

    def test_retired_measurement_option_is_rejected(self):
        _, mps_options, _ = BACKENDS["mps"]
        assert "measurement" not in mps_options
        for name in available_backends():
            with pytest.raises(ValidationError, match="measurement"):
                resolve_backend(name, 4, measurement="sweep")


class TestCircuitBackendParity:
    @pytest.mark.parametrize("seed,n_qubits", [(0, 4), (1, 5), (2, 6),
                                               (3, 7), (4, 8)])
    def test_random_circuit_expectations_agree(self, seed, n_qubits):
        circ = random_brick_circuit(n_qubits, 2, seed=seed)
        op = _random_hermitian_operator(n_qubits, 12, seed=seed + 100)
        values = {}
        for name in available_backends():
            sim = resolve_backend(name, n_qubits)
            sim.run(circ)
            values[name] = sim.expectation(op)
        ref = values["statevector"]
        for name, val in values.items():
            assert val == pytest.approx(ref, abs=ATOL), name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_pauli_expectations_agree(self, seed):
        n = 5
        circ = random_brick_circuit(n, 2, seed=seed)
        rng = np.random.default_rng(seed)
        sims = {name: resolve_backend(name, n).run(circ)
                for name in available_backends()}
        for _ in range(4):
            qubits = rng.choice(n, size=int(rng.integers(1, 4)),
                                replace=False)
            term = PauliTerm.from_ops(
                [(int(q), str(rng.choice(list("XYZ")))) for q in qubits])
            vals = {name: sim.expectation_pauli(term)
                    for name, sim in sims.items()}
            ref = vals["statevector"]
            for name, val in vals.items():
                assert val == pytest.approx(ref, abs=ATOL), name

    def test_copy_is_independent_snapshot(self):
        circ = random_brick_circuit(4, 2, seed=7)
        more = random_brick_circuit(4, 1, seed=8)
        op = _random_hermitian_operator(4, 8, seed=9)
        for name in available_backends():
            sim = resolve_backend(name, 4).run(circ)
            before = sim.expectation(op)
            clone = sim.copy()
            clone.run(more)
            assert sim.expectation(op) == pytest.approx(before, abs=ATOL), \
                f"{name}: copy mutated the original"
            assert clone.expectation(op) != pytest.approx(before, abs=1e-3)


class TestFastBackendParity:
    def test_fast_matches_every_circuit_backend_on_uccsd(self):
        from repro.vqe.energy import EnergyEvaluator
        from repro.vqe.vqe import VQE

        ansatz = UCCSDAnsatz(2, 2)
        # a hermitian operator over the full 4-qubit register
        ham = _random_hermitian_operator(4, 10, seed=21)
        fast = VQE(ham, ansatz, simulator="fast").evaluator
        rng = np.random.default_rng(5)
        thetas = [np.zeros(ansatz.n_parameters),
                  rng.standard_normal(ansatz.n_parameters) * 0.3]
        for name in available_backends():
            circ_eval = EnergyEvaluator(ham, ansatz.circuit(),
                                        simulator=name)
            for theta in thetas:
                assert fast.energy(theta) == pytest.approx(
                    circ_eval.energy(theta), abs=ATOL), name

    @pytest.mark.parametrize("ansatz", ["uccsd", "brick"])
    def test_fast_is_the_statevector_bitwise(self, ansatz):
        """`fast` is a second name for the statevector backend (kept for
        the frozen end-to-end benchmark): same energies to the last bit,
        on a structured ansatz and on a circuit that has none."""
        from repro.circuits.hea import brick_ansatz
        from repro.vqe.energy import EnergyEvaluator

        circuit = (UCCSDAnsatz(3, 2).circuit() if ansatz == "uccsd"
                   else brick_ansatz(6, window=3))
        ham = _random_hermitian_operator(6, 12, seed=4)
        rng = np.random.default_rng(8)
        fast, sv = (EnergyEvaluator(ham, circuit, simulator=name)
                    for name in ("fast", "statevector"))
        for _ in range(3):
            theta = 0.4 * rng.standard_normal(circuit.n_parameters)
            assert fast.energy(theta) == sv.energy(theta)
        _, _, adjoint = BACKENDS["fast"]
        assert not adjoint
