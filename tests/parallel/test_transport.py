"""Tests for the per-backend state transport layer.

Covers the satellite acceptance of the StateTransport refactor: dense and
MPS round trips (export -> reattach -> identical buffers), worker-side
mutate isolation (attached views are read-only), picklable handles, and
the structured :class:`TransportError` for unsupported states.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.common.errors import TransportError, ValidationError
from repro.parallel.transport import (
    BufferSpec,
    TransportHandle,
    attach_state,
    available_transports,
    export_state,
    register_transport,
    transport_for_state,
    transport_spec,
    unregister_transport,
)
from repro.simulators.mps import MPS


def _random_psi(n_qubits: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = (rng.standard_normal(2**n_qubits)
           + 1j * rng.standard_normal(2**n_qubits))
    return psi / np.linalg.norm(psi)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_transports() == ["dense_shm", "mps_shm"]

    def test_unknown_transport_is_structured(self):
        with pytest.raises(TransportError) as exc:
            transport_spec("nope")
        assert exc.value.available == ("dense_shm", "mps_shm")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_transport(transport_spec("dense_shm"))

    def test_third_party_registration(self):
        class FakeTransport:
            name = "fake_shm"

        register_transport(FakeTransport())
        try:
            assert "fake_shm" in available_transports()
        finally:
            unregister_transport("fake_shm")
        assert "fake_shm" not in available_transports()

    def test_resolution_by_state_kind(self):
        assert transport_for_state(np.ones(4, dtype=complex)) == "dense_shm"
        assert transport_for_state(MPS(3)) == "mps_shm"
        assert transport_for_state(object()) is None

    def test_unsupported_state_raises_structured(self):
        with pytest.raises(TransportError) as exc:
            export_state({"not": "a state"})
        assert exc.value.state_kind == "dict"
        assert "dense_shm" in exc.value.available
        # legacy catch sites treat transport failures as validation errors
        assert isinstance(exc.value, ValidationError)


class TestDenseRoundTrip:
    def test_export_attach_roundtrip(self):
        psi = _random_psi(6)
        with export_state(psi) as exported:
            assert exported.handle.transport == "dense_shm"
            view, closer = attach_state(exported.handle)
            try:
                np.testing.assert_array_equal(view, psi)
            finally:
                closer()

    def test_attached_view_is_read_only(self):
        psi = _random_psi(4)
        with export_state(psi) as exported:
            view, closer = attach_state(exported.handle)
            try:
                with pytest.raises(ValueError):
                    view[0] = 0.0
            finally:
                closer()

    def test_export_is_a_copy(self):
        # mutating the source after export must not leak into workers
        psi = _random_psi(4)
        with export_state(psi) as exported:
            psi[:] = 0.0
            (packed,) = exported.views()
            assert np.linalg.norm(packed) == pytest.approx(1.0)

    def test_handle_is_picklable(self):
        psi = _random_psi(3)
        with export_state(psi) as exported:
            handle = pickle.loads(pickle.dumps(exported.handle))
            assert handle == exported.handle
            view, closer = attach_state(handle)
            try:
                np.testing.assert_array_equal(view, psi)
            finally:
                closer()

    def test_close_idempotent_and_views_fail_after(self):
        exported = export_state(np.ones(4, dtype=complex))
        exported.close()
        exported.close()
        with pytest.raises(ValidationError):
            exported.views()
        # the segment is unlinked, not just unmapped: nothing can reattach
        with pytest.raises(FileNotFoundError):
            attach_state(exported.handle)


class TestMPSRoundTrip:
    def _state(self, n=6, d=8, seed=9):
        return MPS.random_state(n, bond_dimension=d, seed=seed)

    def test_export_attach_roundtrip(self):
        mps = self._state()
        with export_state(mps) as exported:
            assert exported.handle.transport == "mps_shm"
            attached, closer = attach_state(exported.handle)
            try:
                assert attached.n_qubits == mps.n_qubits
                assert attached.revision == mps.revision
                for a, b in zip(attached.tensors, mps.tensors):
                    np.testing.assert_array_equal(a, b)
                for a, b in zip(attached.lambdas, mps.lambdas):
                    np.testing.assert_array_equal(a, b)
            finally:
                closer()

    def test_attached_state_measures_identically(self):
        from tests.simulators.test_mps_measure import random_operator

        mps = self._state()
        op = random_operator(6, 12, 31)
        from repro.simulators.mps_measure import MPSMeasurementEngine

        reference = MPSMeasurementEngine().expectation_sweep(mps, op)
        with export_state(mps) as exported:
            attached, closer = attach_state(exported.handle)
            try:
                value = MPSMeasurementEngine().expectation_sweep(attached, op)
            finally:
                closer()
        assert value == reference  # same tensors, same schedule: bitwise

    def test_mutate_isolation(self):
        # in-place writes into the shared buffers raise (views are
        # read-only), and gate application - which rebuilds tensors out
        # of place - diverges only the attached object, never the
        # exported segment the parent still owns
        mps = self._state(n=4, d=4)
        with export_state(mps) as exported:
            attached, closer = attach_state(exported.handle)
            try:
                with pytest.raises(ValueError):
                    attached.tensors[0][0, 0, 0] = 123.0
                x = np.array([[0, 1], [1, 0]], dtype=complex)
                attached.apply_two_qubit(np.kron(x, x), 0, 1)
                packed = exported.views()
                for parent, shared in zip(mps.tensors,
                                          packed[:mps.n_qubits]):
                    np.testing.assert_array_equal(parent, shared)
            finally:
                closer()
        assert mps.norm() == pytest.approx(1.0)

    def test_handle_is_picklable(self):
        mps = self._state(n=3, d=2)
        with export_state(mps) as exported:
            handle = pickle.loads(pickle.dumps(exported.handle))
            assert handle.meta == (3, mps.revision)
            attached, closer = attach_state(handle)
            try:
                for a, b in zip(attached.tensors, mps.tensors):
                    np.testing.assert_array_equal(a, b)
            finally:
                closer()

    def test_from_attached_validates_buffer_count(self):
        mps = self._state(n=3, d=2)
        with pytest.raises(ValidationError):
            MPS.from_attached(4, mps.tensors, mps.lambdas)


class TestBufferSpec:
    def test_nbytes(self):
        spec = BufferSpec(shape=(2, 3), dtype="<c16", offset=0)
        assert spec.nbytes == 2 * 3 * 16

    def test_handle_equality(self):
        a = TransportHandle("dense_shm", "seg", (BufferSpec((2,), "<c16", 0),))
        b = TransportHandle("dense_shm", "seg", (BufferSpec((2,), "<c16", 0),))
        assert a == b
