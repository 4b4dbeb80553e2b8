"""Tests for the tensor-kernel layer: fused contraction, SVD, caches."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.rng import default_rng
from repro.simulators.kernels import (
    KernelBackend,
    _svd_reference,
    get_backend,
    set_backend,
    svd_truncated,
    tensordot_fused,
)


@pytest.fixture()
def backend():
    return KernelBackend()


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
        tensordot_fused(a, b, axes=((1,), (0,)), backend=backend)
        assert backend.cache_misses == 1
        tensordot_fused(a, b, axes=((1,), (0,)), backend=backend)
        assert backend.cache_hits == 1
        # different shape -> new plan
        c = rng.standard_normal((2, 3))
        tensordot_fused(c, b, axes=((1,), (0,)), backend=backend)
        assert backend.cache_misses == 2

    def test_naive_backend_matches(self, rng):
        be = KernelBackend(name="naive")
        a = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((3, 2, 2))
        ours = tensordot_fused(a, b, axes=((1,), (0,)), backend=be)
        ref = np.tensordot(a, b, axes=((1,), (0,)))
        assert np.allclose(ours, ref, atol=1e-12)

    def test_gemm_counter(self, backend, rng):
        a = rng.standard_normal((2, 2))
        tensordot_fused(a, a, axes=((1,), (0,)), backend=backend)
        assert backend.gemm_calls == 1


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

    def test_gesdd_failure_falls_back_to_gesvd(self, monkeypatch, rng):
        """Fault injection: ``np.linalg.svd`` raising LinAlgError once must
        yield the same truncated factors and discarded weight through the
        gesvd driver, not an exception or a silently different answer."""
        m = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        want = svd_truncated(m, max_dim=4, cutoff=1e-12,
                             backend=KernelBackend())
        real_svd, calls = np.linalg.svd, []

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_once)
        be = KernelBackend()
        u, s, vh, disc = svd_truncated(m, max_dim=4, cutoff=1e-12,
                                       backend=be)
        assert len(calls) == 1 and be.svd_calls == 1
        assert np.allclose(s, want[1], rtol=1e-13, atol=0)
        assert disc == pytest.approx(want[3], rel=1e-12)
        assert u.shape == want[0].shape and vh.shape == want[2].shape
        # singular vectors are fixed up to a phase per triplet: compare
        # the rank-4 reconstructions
        assert np.allclose((u * s) @ vh, (want[0] * want[1]) @ want[2],
                           atol=1e-12)

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
        u, s, vh, _ = svd_truncated(m, backend=be)
        assert np.allclose(u * s @ vh, m, atol=1e-8)
        assert be.svd_calls == 1


class TestGlobalBackend:
    def test_set_and_get(self):
        original = get_backend().name
        try:
            be = set_backend("naive")
            assert be.name == "naive"
            assert get_backend().name == "naive"
        finally:
            set_backend(original)

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            set_backend("cuda")

    def test_stats_reset(self, backend, rng):
        a = rng.standard_normal((2, 2))
        tensordot_fused(a, a, axes=((1,), (0,)), backend=backend)
        backend.reset_stats()
        assert backend.stats() == {"cache_hits": 0, "cache_misses": 0,
                                   "cache_evictions": 0,
                                   "gemm_calls": 0, "svd_calls": 0}


class TestPlanCacheBound:
    def test_lru_eviction(self, rng):
        be = KernelBackend(max_plans=2)
        mats = [rng.standard_normal((n, n)) for n in (2, 3, 4)]
        for m in mats:
            tensordot_fused(m, m, axes=((1,), (0,)), backend=be)
        assert be.cache_evictions == 1
        assert len(be.plan_cache) == 2
        # the 2x2 plan (least recently used) was dropped; re-use recompiles
        tensordot_fused(mats[0], mats[0], axes=((1,), (0,)), backend=be)
        assert be.cache_misses == 4
        assert be.cache_evictions == 2

    def test_lru_recency_order(self, rng):
        be = KernelBackend(max_plans=2)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3))
        tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
        tensordot_fused(b, b, axes=((1,), (0,)), backend=be)
        # touch `a` so `b` becomes LRU, then insert a third plan
        tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
        c = rng.standard_normal((4, 4))
        tensordot_fused(c, c, axes=((1,), (0,)), backend=be)
        tensordot_fused(a, a, axes=((1,), (0,)), backend=be)
        assert be.cache_hits == 2  # `a` stayed resident throughout
