"""Tests for the MPS state: canonical form, gate application, truncation.

Includes hypothesis property tests of the Eq. 7-10 update invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TruncationOverflowError, ValidationError
from repro.circuits.gates import GATE_MATRICES
from repro.operators.pauli import pauli_string
from repro.simulators.kernels import KernelBackend, get_backend
from repro.simulators.mps import MPS
from scipy.stats import unitary_group


def random_two_qubit_unitary(seed):
    return np.asarray(unitary_group.rvs(4, random_state=np.random.default_rng(seed)),
                      dtype=complex)


class TestConstruction:
    def test_zero_state(self):
        mps = MPS(4)
        assert abs(mps.amplitude("0000")) == pytest.approx(1.0)
        assert mps.bond_dimensions() == [1, 1, 1]

    def test_from_bitstring(self):
        mps = MPS.from_bitstring("0110")
        assert abs(mps.amplitude("0110")) == pytest.approx(1.0)
        assert abs(mps.amplitude("0000")) < 1e-14

    def test_bad_bitstring(self):
        with pytest.raises(ValidationError):
            MPS.from_bitstring("01a")

    def test_random_state_normalized_canonical(self):
        mps = MPS.random_state(6, bond_dimension=4, seed=3)
        assert mps.check_right_canonical()
        psi = mps.to_statevector()
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        assert mps.max_bond() <= 4

    def test_random_state_respects_bond_cap(self):
        mps = MPS.random_state(8, bond_dimension=5, seed=1)
        assert mps.max_bond() <= 5

    def test_single_site(self):
        mps = MPS(1)
        mps.apply_one_qubit(GATE_MATRICES["H"], 0)
        assert abs(mps.amplitude("0")) == pytest.approx(2 ** -0.5)

    def test_from_attached_validates_buffer_count(self):
        mps = MPS.random_state(3, bond_dimension=2, seed=5)
        with pytest.raises(ValidationError):
            MPS.from_attached(4, mps.tensors, mps.lambdas)


class TestGateApplication:
    def test_one_qubit_gate(self):
        mps = MPS(3)
        mps.apply_one_qubit(GATE_MATRICES["X"], 1)
        assert abs(mps.amplitude("010")) == pytest.approx(1.0)
        assert mps.check_right_canonical()

    def test_bell_pair(self):
        mps = MPS(2)
        mps.apply_one_qubit(GATE_MATRICES["H"], 0)
        mps.apply_two_qubit(GATE_MATRICES["CX"], 0, 1)
        assert abs(mps.amplitude("00")) == pytest.approx(2 ** -0.5)
        assert abs(mps.amplitude("11")) == pytest.approx(2 ** -0.5)
        assert mps.entanglement_entropy(1) == pytest.approx(np.log(2))

    def test_reversed_qubit_order(self):
        """CX on (1, 0) must equal the permuted matrix on (0, 1)."""
        a = MPS(2)
        a.apply_one_qubit(GATE_MATRICES["H"], 1)
        a.apply_two_qubit(GATE_MATRICES["CX"], 1, 0)
        # reference via dense simulation
        from repro.simulators.statevector import StatevectorSimulator
        from repro.circuits.circuit import Circuit
        from repro.circuits.gates import Gate

        c = Circuit(2, [Gate("H", (1,)), Gate("CX", (1, 0))])
        ref = StatevectorSimulator(2).run(c).statevector()
        assert np.allclose(a.to_statevector(), ref, atol=1e-12)

    def test_non_adjacent_gate_routed(self):
        mps = MPS(5)
        mps.apply_one_qubit(GATE_MATRICES["H"], 0)
        mps.apply_two_qubit(GATE_MATRICES["CX"], 0, 4)
        assert abs(mps.amplitude("10001")) == pytest.approx(2 ** -0.5)
        assert mps.check_right_canonical()

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            MPS(3).apply_two_qubit(GATE_MATRICES["CX"], 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            MPS(2).apply_one_qubit(GATE_MATRICES["X"], 5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 3))
    def test_update_preserves_canonical_form_and_norm(self, seed, site):
        """Eq. 7-10 invariants under random unitaries on random states."""
        mps = MPS.random_state(5, bond_dimension=4, seed=seed % 50)
        u = random_two_qubit_unitary(seed)
        mps.apply_two_qubit(u, site, site + 1)
        assert mps.check_right_canonical(tolerance=1e-8)
        assert np.linalg.norm(mps.to_statevector()) == pytest.approx(
            1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unitarity_of_evolution(self, seed):
        """Applying U then U+ returns the original state."""
        mps = MPS.random_state(4, bond_dimension=3, seed=seed % 20)
        before = mps.to_statevector()
        u = random_two_qubit_unitary(seed)
        mps.apply_two_qubit(u, 1, 2)
        mps.apply_two_qubit(u.conj().T, 1, 2)
        after = mps.to_statevector()
        assert np.allclose(before, after, atol=1e-9)


class TestTruncation:
    def test_truncation_records_error(self):
        mps = MPS(6, max_bond_dimension=2)
        # entangle heavily: two layers of random gates
        for layer in range(3):
            for q in range(layer % 2, 5, 2):
                mps.apply_two_qubit(random_two_qubit_unitary(layer * 10 + q),
                                    q, q + 1)
        assert mps.stats.truncation_events > 0
        assert mps.stats.total_discarded_weight > 0
        assert mps.max_bond() <= 2

    def test_truncation_overflow_raises(self):
        mps = MPS(6, max_bond_dimension=1, max_truncation_error=1e-6)
        with pytest.raises(TruncationOverflowError):
            for layer in range(4):
                for q in range(layer % 2, 5, 2):
                    mps.apply_two_qubit(
                        random_two_qubit_unitary(layer * 10 + q), q, q + 1)

    def test_fidelity_improves_with_bond_dimension(self):
        """Larger D -> better fidelity against exact evolution."""
        from repro.circuits.hea import random_brick_circuit
        from repro.simulators.statevector import StatevectorSimulator
        from repro.simulators.mps_circuit import MPSSimulator

        circ = random_brick_circuit(8, 4, seed=9)
        exact = StatevectorSimulator(8).run(circ).statevector()
        fids = []
        for d in (2, 4, 8):
            sim = MPSSimulator(8, max_bond_dimension=d).run(circ)
            fids.append(abs(np.vdot(exact, sim.statevector())))
        assert fids[0] < fids[2]
        assert fids[2] > 0.99

    def test_norm_renormalized_after_truncation(self):
        mps = MPS(6, max_bond_dimension=2)
        for layer in range(3):
            for q in range(layer % 2, 5, 2):
                mps.apply_two_qubit(random_two_qubit_unitary(7 * layer + q),
                                    q, q + 1)
        assert np.linalg.norm(mps.to_statevector()) == pytest.approx(
            1.0, abs=1e-8)


class TestMeasurement:
    def test_local_expectation_eq11(self):
        """Eq. 11 contraction against dense computation."""
        mps = MPS.random_state(5, bond_dimension=4, seed=12)
        psi = mps.to_statevector()
        for label in ("ZIIII", "IXIII", "IIYII", "ZZIII", "IXZYI"):
            p = pauli_string(label)
            dense = np.real(psi.conj() @ p.matrix(5) @ psi)
            assert mps.expectation_pauli(p) == pytest.approx(dense, abs=1e-9)

    def test_entanglement_entropy_bounds(self):
        mps = MPS.random_state(6, bond_dimension=4, seed=5)
        for b in range(1, 6):
            s = mps.entanglement_entropy(b)
            assert 0.0 <= s <= np.log(4) + 1e-9

    def test_entropy_bond_range(self):
        with pytest.raises(ValidationError):
            MPS(3).entanglement_entropy(0)

    def test_copy_independent(self):
        a = MPS.random_state(4, bond_dimension=2, seed=8)
        b = a.copy()
        b.apply_one_qubit(GATE_MATRICES["X"], 0)
        assert not np.allclose(a.to_statevector(), b.to_statevector())

    def test_memory_bytes_positive(self):
        assert MPS.random_state(6, 4, seed=0).memory_bytes() > 0


class TestPauliRotation:
    """Entry checks of ``apply_pauli_rotation`` (its numerics live in
    tests/properties/test_pauli_rotation.py)."""

    @pytest.mark.parametrize("ops", [
        [], [(0, "X"), (0, "Z")], [(-1, "X"), (1, "Z")], [(1, "X"), (4, "Z")],
        [(0, "I"), (1, "Z")], [(0, "x"), (1, "Z")],
    ])
    def test_bad_strings_rejected(self, ops):
        with pytest.raises(ValidationError):
            MPS(4).apply_pauli_rotation(ops, 0.3)

    def test_one_site_span_is_a_single_qubit_gate(self):
        from repro import obs

        with obs.collect() as reg:
            mps = MPS(3)
            mps.apply_pauli_rotation([(1, "Y")], 0.8)
        assert reg.value("mps.gate_1q") == 1
        assert reg.value("mps.pauli_rotation") == 0
        assert reg.value("mps.svd") == 0
        # RY(0.8)|0> on qubit 1
        assert mps.amplitude("010") == pytest.approx(np.sin(0.4))

    def test_one_svd_per_bond_of_the_span_and_no_swaps(self):
        from repro import obs

        with obs.collect() as reg:
            mps = MPS.from_bitstring("010010")
            mps.apply_pauli_rotation([(1, "X"), (2, "Z"), (5, "Y")], 0.8)
        assert reg.value("mps.pauli_rotation") == 1
        assert reg.value("mps.svd") == 4              # bonds 2..5
        assert reg.value("mps.gate_2q") == reg.value("mps.swap") == 0
        assert mps.bond_dimensions() == [1, 2, 2, 2, 2]

    def test_accepts_an_iterator_and_bumps_the_revision_once(self):
        mps = MPS(4)
        before = mps.revision
        mps.apply_pauli_rotation(zip((0, 3), "XY"), 0.5)
        assert mps.revision == before + 1

    def test_truncation_ceiling_enforced_inside_the_sweep(self):
        mps = MPS.random_state(6, 4, seed=2, max_bond_dimension=2,
                               max_truncation_error=1e-9)
        with pytest.raises(TruncationOverflowError):
            mps.apply_pauli_rotation(
                [(0, "X"), (2, "Y"), (3, "Z"), (5, "X")], 1.1)


class TestExcitation:
    """Entry checks of ``apply_excitation`` (its numerics live in
    tests/properties/test_excitation_gate.py); the sweep behind it is the
    one ``apply_pauli_rotation`` runs."""

    @pytest.mark.parametrize("ops", [
        [], [(0, "+"), (0, "-")], [(-1, "+"), (1, "-")], [(1, "+"), (4, "-")],
        [(0, "X"), (1, "-")], [(0, None), (1, "-")],
        [(0, "Z"), (1, "Z")],          # no ladder factor: T - T+ = 0
    ])
    def test_bad_strings_rejected(self, ops):
        with pytest.raises(ValidationError):
            MPS(4).apply_excitation(ops, 0.3)

    def test_one_svd_per_bond_of_the_span_and_no_swaps(self):
        from repro import obs

        with obs.collect() as reg:
            mps = MPS.from_bitstring("011000")
            # a double excitation 1, 2 -> 4, 5 with an identity gap at 3
            mps.apply_excitation([(1, "-"), (2, "-"), (4, "+"), (5, "+")],
                                 0.8)
        assert reg.value("mps.excitation") == 1
        assert reg.value("mps.pauli_rotation") == 0
        assert reg.value("mps.svd") == 4              # bonds 2..5
        assert reg.value("mps.gate_2q") == reg.value("mps.swap") == 0
        assert mps.bond_dimensions() == [1, 2, 2, 2, 2]
        # cos(a)|011000> + sin(a)|000011>, up to the sign of the ordering
        assert abs(mps.amplitude("011000")) == pytest.approx(np.cos(0.8))
        assert abs(mps.amplitude("000011")) == pytest.approx(np.sin(0.8))

    def test_truncation_ceiling_enforced_inside_the_sweep(self):
        mps = MPS.random_state(6, 4, seed=2, max_bond_dimension=2,
                               max_truncation_error=1e-9)
        with pytest.raises(TruncationOverflowError):
            mps.apply_excitation(
                [(0, "-"), (2, "-"), (3, "+"), (5, "+")], 1.1)


class TestStateBackend:
    def test_sweep_qrs_run_on_the_state_backend(self, monkeypatch):
        """The QRs of both sweeps - the canonicalization's and an
        excitation's - run on the state's own ``KernelBackend``: a
        reference backend goes through ``np.linalg.qr``, "blas" through the
        bound LAPACK pair, and a state built without one shares the "blas"
        default."""
        calls, real_qr = [], np.linalg.qr

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        double = [(0, "-"), (1, "-"), (3, "+"), (4, "+")]
        want = MPS.random_state(5, 4, seed=3, backend=KernelBackend("plain"))
        assert len(calls) == 4                    # one per bond, left sweep
        want.apply_excitation(double, 0.4)
        assert len(calls) == 4 + 4                # sites 4..1 of the span
        calls.clear()
        for backend in (KernelBackend(), None):
            mps = MPS.random_state(5, 4, seed=3, backend=backend)
            mps.apply_excitation(double, 0.4)
            assert calls == []
            assert mps.backend.name == "blas"
            assert np.allclose(mps.to_statevector(), want.to_statevector(),
                               atol=1e-12)
        assert MPS(2).backend is get_backend()
