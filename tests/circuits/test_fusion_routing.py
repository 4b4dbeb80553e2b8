"""Tests for the gate fusion pass."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.rng import default_rng
from repro.circuits.circuit import Circuit
from repro.circuits.fusion import fuse_single_qubit_gates
from repro.circuits.gates import Gate
from repro.circuits.hea import random_product_layer
from repro.simulators.statevector import StatevectorSimulator


def _state(circ):
    return StatevectorSimulator(circ.n_qubits).run(circ).statevector()


def _random_mixed_circuit(n=5, seed=3):
    """Circuit interleaving 1q and 2q gates, some non-adjacent."""
    rng = default_rng(seed)
    c = Circuit(n)
    names1 = ["H", "S", "T", "X", "Y", "Z"]
    for _ in range(25):
        if rng.random() < 0.5:
            q = int(rng.integers(n))
            c.append(Gate(str(rng.choice(names1)), (q,)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            c.append(Gate("CX", (int(a), int(b))))
    return c


class TestFusion:
    def test_preserves_state_random(self):
        for seed in (1, 2, 3):
            c = _random_mixed_circuit(seed=seed)
            fused = fuse_single_qubit_gates(c)
            assert np.allclose(_state(c), _state(fused), atol=1e-10)

    def test_output_only_u2_u1(self):
        fused = fuse_single_qubit_gates(_random_mixed_circuit())
        assert all(g.name in ("U1", "U2") for g in fused)

    def test_reduces_gate_count(self):
        c = _random_mixed_circuit()
        fused = fuse_single_qubit_gates(c)
        assert len(fused) < len(c)

    def test_pure_single_qubit_circuit(self):
        """No 2q gates: fusion leaves one U1 per touched qubit."""
        c = random_product_layer(3, seed=0)
        c2 = c.compose(random_product_layer(3, seed=1))
        fused = fuse_single_qubit_gates(c2)
        assert all(g.name == "U1" for g in fused)
        assert len(fused) == 3
        assert np.allclose(_state(c2), _state(fused), atol=1e-10)

    def test_trailing_singles_absorbed_backwards(self):
        c = Circuit(2)
        c.append(Gate("CX", (0, 1)))
        c.append(Gate("H", (0,)))
        fused = fuse_single_qubit_gates(c)
        assert len(fused) == 1
        assert np.allclose(_state(c), _state(fused), atol=1e-12)

    def test_merge_two_qubit_runs(self):
        c = Circuit(2)
        c.append(Gate("CX", (0, 1)))
        c.append(Gate("CZ", (0, 1)))
        c.append(Gate("CX", (1, 0)))  # same pair, reversed order
        fused = fuse_single_qubit_gates(c)
        assert len(fused) == 1
        assert np.allclose(_state(c), _state(fused), atol=1e-12)

    def test_unbound_rejected(self):
        c = Circuit(1, n_parameters=1)
        c.append(Gate("RZ", (0,), param=(0, 1.0)))
        with pytest.raises(ValidationError):
            fuse_single_qubit_gates(c)


def _mixed_circuit_with_rotations(n=5, seed=8):
    """1q/2q gates interleaved with PR rotations on overlapping qubits."""
    rng = default_rng(seed)
    c = _random_mixed_circuit(n, seed)
    gates = list(c.gates)
    for at in sorted(rng.choice(len(gates), size=4, replace=False))[::-1]:
        qubits = tuple(sorted(int(q) for q in rng.choice(
            n, size=int(rng.integers(1, n + 1)), replace=False)))
        pauli = "".join("XYZ"[int(rng.integers(3))] for _ in qubits)
        gates.insert(int(at), Gate("PR", qubits, pauli=pauli,
                                   angle=float(rng.uniform(-3, 3))))
    return Circuit(n, gates + [Gate("H", (q,)) for q in range(n)])


class TestPauliRotationBarrier:
    def test_fusion_passes_rotations_through_as_barriers(self):
        from repro.simulators.mps_circuit import MPSSimulator

        for seed in range(6):
            circ = _mixed_circuit_with_rotations(seed=seed)
            fused = fuse_single_qubit_gates(circ)
            assert {g.name for g in fused} <= {"U1", "U2", "PR"}
            assert ([g for g in fused if g.name == "PR"]
                    == [g for g in circ if g.name == "PR"])
            # the fused stream is what the optimized MPS mode executes
            mps = MPSSimulator(circ.n_qubits).run(circ).statevector()
            assert np.allclose(mps, _state(circ), atol=1e-10)

    def test_two_qubit_rotation_is_not_merged_into_a_u2_run(self):
        c = Circuit(2, [Gate("CX", (0, 1)),
                        Gate("PR", (0, 1), pauli="XY", angle=0.3),
                        Gate("CX", (0, 1))])
        assert [g.name for g in fuse_single_qubit_gates(c)] \
            == ["U2", "PR", "U2"]
