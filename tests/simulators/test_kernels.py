"""Tests for the tensor-kernel layer: fused contraction, QR, SVD, caches.

The ``kernels.*`` obs counters are the kernels' one ledger, so the cache
and call-count assertions read them through ``obs.collect()``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.circuits.hea import random_brick_circuit
from repro.common.errors import ConvergenceError, ValidationError
from repro.simulators import kernels
from repro.simulators.kernels import (
    KernelBackend,
    _svd_reference,
    gemm,
    qr_reduced,
    svd_truncated,
    tensordot_fused,
)
from repro.simulators.statevector import StatevectorSimulator


@pytest.fixture()
def backend():
    return KernelBackend()


def _plan(reg, outcome):
    return reg.value("kernels.plan_cache", outcome=outcome)


class TestTensordotFused:
    def test_matches_numpy(self, backend, rng):
        a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
        ours = tensordot_fused(a, b, axes=((2, 1), (0, 1)), backend=backend)
        ref = np.tensordot(a, b, axes=((2, 1), (0, 1)))
        assert np.allclose(ours, ref, atol=1e-12)

    def test_matrix_multiply(self, backend, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        out = tensordot_fused(a, b, axes=((1,), (0,)), backend=backend)
        assert np.allclose(out, a @ b)

    def test_plan_cache_hits(self, backend, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        with obs.collect() as reg:
            tensordot_fused(a, b, axes=((1,), (0,)), backend=backend)
            assert (_plan(reg, "miss"), _plan(reg, "hit")) == (1, 0)
            tensordot_fused(a, b, axes=((1,), (0,)), backend=backend)
            assert (_plan(reg, "miss"), _plan(reg, "hit")) == (1, 1)
            # different shape -> new plan
            c = rng.standard_normal((2, 3))
            tensordot_fused(c, b, axes=((1,), (0,)), backend=backend)
            assert (_plan(reg, "miss"), _plan(reg, "hit")) == (2, 1)

    def test_naive_backend_matches(self, rng):
        be = KernelBackend(name="naive")
        a = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((3, 2, 2))
        ours = tensordot_fused(a, b, axes=((1,), (0,)), backend=be)
        ref = np.tensordot(a, b, axes=((1,), (0,)))
        assert np.allclose(ours, ref, atol=1e-12)

    def test_gemm_counter(self, backend, rng):
        a = rng.standard_normal((2, 2))
        with obs.collect() as reg:
            tensordot_fused(a, a, axes=((1,), (0,)), backend=backend)
        assert reg.value("kernels.gemm_calls") == 1

    @pytest.mark.parametrize("axes", [
        [[2, 1], [0, 1]],
        ([2, 1], (0, 1)),
        ((np.int64(2), np.int64(1)), (np.intp(0), np.int32(1))),
        (np.array([2, 1]), np.array([0, 1])),
    ])
    @pytest.mark.parametrize("name", ["blas", "plain", "naive"])
    def test_axes_forms_hit_the_tuple_plan(self, rng, axes, name):
        """The plan key holds ``axes`` as passed: lists and numpy ints give
        numpy's result and hit the plan the int-tuple form compiled, with
        the same hit/miss/GEMM counts."""
        a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
        ref = np.tensordot(a, b, axes=((2, 1), (0, 1)))
        be = KernelBackend(name=name)
        with obs.collect() as reg:
            tuple_out = tensordot_fused(a, b, axes=((2, 1), (0, 1)),
                                        backend=be)
            out = tensordot_fused(a, b, axes=axes, backend=be)
        assert np.allclose(out, ref, atol=1e-12)
        assert np.array_equal(out, tuple_out)
        assert (_plan(reg, "miss"), _plan(reg, "hit")) == (1, 1)
        assert len(be.plan_cache) == 1
        assert reg.value("kernels.gemm_calls") == (2 if name == "blas" else 0)
        # and the other way round: a plan compiled from lists serves tuples
        be = KernelBackend(name=name)
        with obs.collect() as reg:
            tensordot_fused(a, b, axes=axes, backend=be)
            tensordot_fused(a, b, axes=((2, 1), (0, 1)), backend=be)
        assert (_plan(reg, "miss"), _plan(reg, "hit")) == (1, 1)


class TestSVD:
    def test_reconstruction(self, backend, rng):
        m = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        u, s, vh, disc = svd_truncated(m, backend=backend)
        assert disc == 0.0
        assert np.allclose(u * s @ vh, m, atol=1e-10)

    def test_truncation_to_max_dim(self, backend, rng):
        m = rng.standard_normal((10, 10))
        u, s, vh, disc = svd_truncated(m, max_dim=4, backend=backend)
        assert s.size == 4
        assert 0.0 < disc < 1.0

    def test_cutoff(self, backend):
        # rank-1 matrix: cutoff keeps exactly one value
        m = np.outer([1.0, 2.0], [3.0, 4.0])
        u, s, vh, disc = svd_truncated(m, cutoff=1e-10, backend=backend)
        assert s.size == 1
        assert disc < 1e-20

    def test_discarded_weight_value(self, backend):
        m = np.diag([2.0, 1.0])
        _, s, _, disc = svd_truncated(m, max_dim=1, backend=backend)
        assert s[0] == pytest.approx(2.0)
        assert disc == pytest.approx(1.0 / 5.0)

    def test_zero_matrix_rejected(self, backend):
        with pytest.raises(ValidationError):
            svd_truncated(np.zeros((3, 3)), backend=backend)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_rejected(self, rng, bad):
        """An inf comes back from gesdd as s = [nan] and a NaN fails both
        drivers: either way a ValidationError, never a NaN Schmidt value
        or a bare numpy/scipy exception."""
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            svd_truncated(m, max_dim=2, backend=KernelBackend())

    def test_both_drivers_failing_is_a_convergence_error(self, monkeypatch,
                                                         rng):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(kernels, "_gesdd", _not_converging(kernels._gesdd))
        monkeypatch.setattr(kernels.sla, "svd", failing)
        m = rng.standard_normal((5, 3))
        with pytest.raises(ConvergenceError, match="gesdd and gesvd"):
            svd_truncated(m, backend=KernelBackend())

    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch, rng):
        """Fault injection: the gesdd gufunc not converging once (NaN
        factors) must yield the same truncated factors and discarded
        weight through the gesvd driver, not an exception or a silently
        different answer."""
        m = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        want = svd_truncated(m, max_dim=4, cutoff=1e-12,
                             backend=KernelBackend())
        real_gesdd, calls = kernels._gesdd, []

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return _not_converging(real_gesdd)(*args, **kwargs)
            return real_gesdd(*args, **kwargs)

        monkeypatch.setattr(kernels, "_gesdd", failing_once)
        with obs.collect() as reg:
            u, s, vh, disc = svd_truncated(m, max_dim=4, cutoff=1e-12,
                                           backend=KernelBackend())
        assert len(calls) == 1 and reg.value("kernels.svd_calls") == 1
        assert np.allclose(s, want[1], rtol=1e-13, atol=0)
        assert disc == pytest.approx(want[3], rel=1e-12)
        assert u.shape == want[0].shape and vh.shape == want[2].shape
        # singular vectors are fixed up to a phase per triplet: compare
        # the rank-4 reconstructions
        assert np.allclose((u * s) @ vh, (want[0] * want[1]) @ want[2],
                           atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (2, 10), (8, 16),
                                       (32, 25), (40, 10), (64, 30),
                                       (30, 64)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bitwise_parity_with_numpy(self, rng, shape, dtype, transpose):
        """The gesdd gufunc called bare is ``np.linalg.svd``: the same U, s
        and Vh bits on real and complex blocks, tall and wide, including
        transposed views."""
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal(shape)
        if transpose:
            a = a.T
        u, s, vh, disc = svd_truncated(a, backend=KernelBackend())
        u_ref, s_ref, vh_ref = np.linalg.svd(a, full_matrices=False)
        assert disc == 0.0
        for got, ref in ((u, u_ref), (s, s_ref), (vh, vh_ref)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert _bits(got) == _bits(ref)

    def test_reference_svd_matches(self, rng):
        for shape in [(6, 4), (4, 6), (5, 5)]:
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, s, vh = _svd_reference(m)
            _, s_ref, _ = np.linalg.svd(m, full_matrices=False)
            assert np.allclose(np.sort(s)[::-1], s_ref, atol=1e-8)
            assert np.allclose(u * s @ vh, m, atol=1e-8)

    def test_naive_backend_svd(self, rng):
        be = KernelBackend(name="naive")
        m = rng.standard_normal((6, 6))
        with obs.collect() as reg:
            u, s, vh, _ = svd_truncated(m, backend=be)
        assert np.allclose(u * s @ vh, m, atol=1e-8)
        assert reg.value("kernels.svd_calls") == 1


def _bits(x):
    """Raw bytes in C order: equal iff every element is bit for bit."""
    return np.ascontiguousarray(x).tobytes()


def _not_converging(gesdd):
    """``gesdd`` as it answers when it does not converge: NaN factors of
    the right shapes."""
    def call(*args, **kwargs):
        return tuple(np.full_like(x, np.nan) for x in gesdd(*args, **kwargs))
    return call


class TestQRReduced:
    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (40, 10), (10, 40),
                                       (64, 30), (7, 7), (1, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bitwise_parity_with_numpy(self, rng, shape, dtype, order,
                                       transpose):
        """The bound geqrf/orgqr pair is numpy's: the same Q and R bits on
        tall, wide and square blocks, including the transposed view the
        sweep passes."""
        a = rng.standard_normal(shape).astype(dtype)
        if dtype is np.complex128:
            a += 1j * rng.standard_normal(shape)
        a = np.asarray(a, order=order)
        if transpose:
            a = a.T
        q, r = qr_reduced(a, KernelBackend())
        q_ref, r_ref = np.linalg.qr(a)
        assert q.dtype == q_ref.dtype and r.dtype == r_ref.dtype
        assert q.shape == q_ref.shape and r.shape == r_ref.shape
        assert _bits(q) == _bits(q_ref)
        assert _bits(r) == _bits(r_ref)

    def test_bitwise_parity_in_the_blocked_code(self):
        """Past min(m, n) = 128 LAPACK switches to blocked code, whose
        bits depend on the workspace: the kernel passes the size numpy's
        workspace query returns.  numpy and scipy may link separate BLAS
        builds whose threaded level-3 kernels split work differently, so
        this runs in a child on one BLAS thread, as the benchmarks do."""
        code = """if True:
            import numpy as np
            from repro.simulators.kernels import KernelBackend, qr_reduced
            rng = np.random.default_rng(7)
            for shape in [(160, 140), (140, 300), (300, 140)]:
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for x in (a, np.asfortranarray(a).T, a.real.copy()):
                    q, r = qr_reduced(x, KernelBackend())
                    q0, r0 = np.linalg.qr(x)
                    assert q.tobytes() == np.ascontiguousarray(q0).tobytes()
                    assert r.tobytes() == np.ascontiguousarray(r0).tobytes()
        """
        env = {**os.environ, "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   [str(Path(kernels.__file__).parents[2])]
                   + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6)])
    def test_r_is_upper_triangular(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q, r = qr_reduced(a, KernelBackend())
        k = min(shape)
        assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
        assert not np.tril(r, -1).any()
        assert np.allclose(q @ r, a, atol=1e-13)
        assert np.allclose(q.conj().T @ q, np.eye(k), atol=1e-13)

    @pytest.mark.parametrize("name", ["plain", "naive"])
    def test_reference_backends_call_numpy(self, monkeypatch, rng, name):
        calls = []
        real_qr = np.linalg.qr

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        a = rng.standard_normal((6, 3))
        qr_reduced(a, KernelBackend(name=name))
        assert calls == [(6, 3)]
        qr_reduced(a, KernelBackend())
        assert calls == [(6, 3)]

    def test_lapack_argument_error_is_raised(self, monkeypatch, rng):
        """LAPACK's info < 0 leaves zeros in the outputs: an error, never
        a result."""
        a = rng.standard_normal((4, 3))
        geqrf, *rest = kernels._qr_plan(a.dtype, *a.shape)

        def rejecting(x, lwork):
            return np.zeros_like(x), np.zeros(min(x.shape)), None, -4

        monkeypatch.setattr(kernels, "_qr_plan",
                            lambda *key: (rejecting, *rest))
        with pytest.raises(ValidationError, match="argument 4"):
            qr_reduced(a, KernelBackend())


class TestGemm:
    @pytest.mark.parametrize("name", ["blas", "plain", "naive"])
    def test_matches_matmul_without_plan_lookups(self, rng, name):
        """The fixed-layout kernel on every pipeline: a @ b, no plan
        lookup, and a counted GEMM on "blas" only."""
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        be = KernelBackend(name=name)
        with obs.collect() as reg:
            out = gemm(a, b, be)
        assert np.allclose(out, a @ b, rtol=0, atol=1e-13)
        assert len(be.plan_cache) == 0
        assert reg.value("kernels.gemm_calls") == (name == "blas")

    def test_blas_is_the_fused_contraction_bit_for_bit(self, rng):
        """A caller reshaping its own operands gets the bits
        tensordot_fused gives for the same contraction."""
        a = rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5))
        b = rng.standard_normal((5, 2, 4)) + 1j * rng.standard_normal((5, 2, 4))
        fused = tensordot_fused(a, b, axes=((2,), (0,)))
        direct = gemm(a.reshape(6, 5), b.reshape(5, 8)).reshape(3, 2, 2, 4)
        assert _bits(direct) == _bits(fused)


class TestBackendName:
    @pytest.mark.parametrize("name", ["cuda", "BLAS", "Naive", ""])
    def test_unknown_name_rejected(self, name):
        """A name outside blas/plain/naive is an error at construction, not
        a backend that runs fused GEMMs with the reference QR and SVD."""
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            KernelBackend(name)


class TestPlanCacheBound:
    def test_lru_eviction(self, rng):
        be = KernelBackend(max_plans=2)
        mats = [rng.standard_normal((n, n)) for n in (2, 3, 4)]
        with obs.collect() as reg:
            for m in mats:
                tensordot_fused(m, m, axes=((1,), (0,)), backend=be)
            assert _plan(reg, "evict") == 1
            assert len(be.plan_cache) == 2
            # the 2x2 plan (least recently used) was dropped; re-use
            # recompiles
            tensordot_fused(mats[0], mats[0], axes=((1,), (0,)), backend=be)
        assert _plan(reg, "miss") == 4
        assert _plan(reg, "evict") == 2

    def test_lru_recency_order(self, rng):
        be = KernelBackend(max_plans=2)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        with obs.collect() as reg:
            tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
            tensordot_fused(b, b, axes=((1,), (0,)), backend=be)
            # touch `a` so `b` becomes LRU, then insert a third plan
            tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
            c = rng.standard_normal((4, 4))
            tensordot_fused(c, c, axes=((1,), (0,)), backend=be)
            tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
        assert _plan(reg, "hit") == 2  # `a` stayed resident throughout


class TestPlainBackend:
    def test_contraction_matches(self, rng):
        plain = KernelBackend(name="plain")
        a = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((5, 4, 2))
        ours = tensordot_fused(a, b, axes=((2, 1), (0, 1)), backend=plain)
        ref = np.tensordot(a, b, axes=((2, 1), (0, 1)))
        assert np.allclose(ours, ref, atol=1e-12)

    def test_svd_matches(self, rng):
        plain = KernelBackend(name="plain")
        m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        u, s, vh, disc = svd_truncated(m, backend=plain)
        assert disc == 0.0
        assert np.allclose(u * s @ vh, m, atol=1e-10)
        # economy shapes even though gesvd computed full matrices
        assert u.shape == (7, 5)

    def test_naive_mode_simulator_equivalence(self):
        """MPSSimulator naive mode (plain kernels) == optimized mode."""
        from repro.simulators.mps_circuit import MPSSimulator

        circ = random_brick_circuit(5, 2, seed=3)
        a = MPSSimulator(5, mode="naive").run(circ).statevector()
        b = MPSSimulator(5, mode="optimized").run(circ).statevector()
        sv = StatevectorSimulator(5).run(circ).statevector()
        assert abs(np.vdot(a, sv)) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(b, sv)) == pytest.approx(1.0, abs=1e-9)
