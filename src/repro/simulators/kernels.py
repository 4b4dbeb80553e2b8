"""Tensor kernels: fused permute+GEMM contraction, QR and truncated SVD.

This module plays the role the Julia JIT + swBLAS stack plays in the paper
(Sec. III-E): the hot operations of the MPS simulator - tensor contraction,
QR and SVD - are routed through a small set of kernels with

* a *specialization cache*: contraction plans (permutation + reshape
  metadata) are compiled once per (shape, axes, dtype) signature and reused,
  the same amortize-specialization-over-iterations behaviour Julia's
  multiple dispatch provides on Sunway;
* a *fused permute+GEMM* path: the index permutation is folded into a single
  reshape-transpose feeding one ZGEMM, the technique the paper credits for
  its contraction speedups;
* *reference kernels*: deliberately unoptimized pure-loop implementations
  standing in for the paper's MPE-only baseline in the Fig. 11 experiment.

A :class:`KernelBackend` is chosen per state, never switched process-wide:
every MPS built without one shares the "blas" default (:func:`get_backend`);
the reference kernels run only on a state handed an explicit
``KernelBackend(name="plain" | "naive")``.  The ``kernels.*`` obs counters
are the one ledger of plan-cache lookups, GEMMs and SVDs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import linalg as sla

from repro.common.errors import ConvergenceError, ValidationError
from repro.obs import metrics as _obs

#: compiled contraction plans kept per backend; one (shape, axes) signature
#: per gate/measurement shape class, so steady state is far below this -
#: the bound only guards long multi-molecule runs against unbounded growth
PLAN_CACHE_MAX = 512

# observability instruments (free unless `repro.obs` is enabled); these
# merge across process workers like every other labelled counter
_M_PLAN_CACHE = _obs.counter(
    "kernels.plan_cache",
    "contraction-plan cache lookups, labelled hit/miss/evict")
_M_GEMM = _obs.counter(
    "kernels.gemm_calls", "fused permute+GEMM contractions executed")
_M_SVD = _obs.counter(
    "kernels.svd_calls", "truncated SVD kernel invocations")


# ---------------------------------------------------------------------------
# contraction plans (the "JIT specialization" cache)
# ---------------------------------------------------------------------------

@dataclass
class _Plan:
    """Compiled contraction plan for one (shapes, axes) signature."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    rows_a: int
    cols: int
    cols_b: int
    out_shape: tuple[int, ...]


@dataclass
class KernelBackend:
    """Kernel dispatch table plus its contraction-plan cache.

    ``name`` picks the pipeline:

    * "blas"  - fused permute+GEMM, bound geqrf/orgqr QR, numpy's gesdd
      SVD (the paper's optimized pipeline);
    * "plain" - generic-library choices: einsum, np.linalg.qr and gesvd
      full-matrices SVD (the quimb-like reference of Fig. 8);
    * "naive" - pure-loop reference kernels (the Fig. 11 MPE-only stand-in).

    ``plan_cache`` is a bounded per-backend LRU: hits
    refresh recency, overflow evicts the least-recently-used signature,
    and the hit/miss/eviction traffic is booked in the labelled
    ``kernels.plan_cache`` obs counter so it merges across processes and
    shows up in the pinned counter budgets.
    """

    name: str = "blas"
    plan_cache: OrderedDict = field(default_factory=OrderedDict)
    max_plans: int = PLAN_CACHE_MAX

    def __post_init__(self) -> None:
        if self.name not in ("blas", "plain", "naive"):
            raise ValidationError(
                f"unknown kernel backend {self.name!r}; known: blas, plain, "
                "naive")


_BACKEND = KernelBackend()


def get_backend() -> KernelBackend:
    """The shared "blas" backend of every state built without its own."""
    return _BACKEND


# ---------------------------------------------------------------------------
# fused permute + GEMM contraction
# ---------------------------------------------------------------------------

def _compile_plan(shape_a: tuple[int, ...], shape_b: tuple[int, ...],
                  axes_a: tuple[int, ...], axes_b: tuple[int, ...]) -> _Plan:
    free_a = [i for i in range(len(shape_a)) if i not in axes_a]
    free_b = [i for i in range(len(shape_b)) if i not in axes_b]
    # an empty product is 1: a contraction over no axes is an outer product
    rows_a = int(np.prod([shape_a[i] for i in free_a], dtype=np.int64))
    cols = int(np.prod([shape_a[i] for i in axes_a], dtype=np.int64))
    cols_b = int(np.prod([shape_b[i] for i in free_b], dtype=np.int64))
    out_shape = tuple([shape_a[i] for i in free_a]
                      + [shape_b[i] for i in free_b])
    return _Plan(
        perm_a=tuple(free_a + list(axes_a)),
        perm_b=tuple(list(axes_b) + free_b),
        rows_a=rows_a,
        cols=cols,
        cols_b=cols_b,
        out_shape=out_shape,
    )


def tensordot_fused(a: np.ndarray, b: np.ndarray,
                    axes: tuple[tuple[int, ...], tuple[int, ...]],
                    backend: KernelBackend | None = None) -> np.ndarray:
    """Tensor contraction as one permute+reshape feeding a single GEMM.

    Semantically identical to :func:`numpy.tensordot` but with an explicit
    plan cache keyed on the shape/axes signature, so steady-state VQE
    iterations re-use compiled plans (``kernels.plan_cache`` counts this).
    """
    be = backend or _BACKEND
    cache = be.plan_cache
    key = (a.shape, b.shape, axes)
    try:
        plan = cache.get(key)
    except TypeError:  # list-valued axes do not hash: normalised below
        plan = None
    if plan is None:
        axes = tuple(tuple(int(x) for x in ax) for ax in axes)
        key = (a.shape, b.shape, axes)
        plan = cache.get(key)
    enabled = _obs.REGISTRY.enabled
    if plan is None:
        plan = _compile_plan(a.shape, b.shape, *axes)
        if len(cache) >= be.max_plans:
            cache.popitem(last=False)
            if enabled:
                _M_PLAN_CACHE.inc(outcome="evict")
        cache[key] = plan
        if enabled:
            _M_PLAN_CACHE.inc(outcome="miss")
    else:
        cache.move_to_end(key)
        if enabled:
            _M_PLAN_CACHE.inc(outcome="hit")

    if be.name == "naive":
        return _tensordot_naive(a, b, plan)
    if be.name == "plain":
        # generic-library path: per-call contraction without the fused
        # permute+GEMM plan (np.einsum with optimization disabled)
        return _tensordot_plain(a, b, *axes)

    am = a.transpose(plan.perm_a).reshape(plan.rows_a, plan.cols)
    bm = b.transpose(plan.perm_b).reshape(plan.cols, plan.cols_b)
    if enabled:
        _M_GEMM.inc()
    return (am @ bm).reshape(plan.out_shape)


def _tensordot_plain(a: np.ndarray, b: np.ndarray,
                     axes_a: tuple[int, ...],
                     axes_b: tuple[int, ...]) -> np.ndarray:
    """Unfused contraction: einsum with path optimization disabled."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    sub_a = list(letters[: a.ndim])
    sub_b = list(letters[a.ndim: a.ndim + b.ndim])
    for ia, ib in zip(axes_a, axes_b):
        sub_b[ib] = sub_a[ia]
    out = [c for i, c in enumerate(sub_a) if i not in axes_a] + \
          [c for i, c in enumerate(sub_b) if i not in axes_b]
    spec = f"{''.join(sub_a)},{''.join(sub_b)}->{''.join(out)}"
    return np.einsum(spec, a, b, optimize=False)


def _tensordot_naive(a: np.ndarray, b: np.ndarray, plan: _Plan) -> np.ndarray:
    """Reference contraction: permute, then triple-loop matrix multiply."""
    am = np.ascontiguousarray(a.transpose(plan.perm_a)).reshape(
        plan.rows_a, plan.cols)
    bm = np.ascontiguousarray(b.transpose(plan.perm_b)).reshape(
        plan.cols, plan.cols_b)
    out = np.zeros((plan.rows_a, plan.cols_b), dtype=np.result_type(a, b))
    for i in range(plan.rows_a):
        row = am[i]
        for j in range(plan.cols_b):
            acc = 0.0 + 0.0j
            col = bm[:, j]
            for k in range(plan.cols):
                acc += row[k] * col[k]
            out[i, j] = acc
    return out.reshape(plan.out_shape)


# ---------------------------------------------------------------------------
# QR and SVD kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=PLAN_CACHE_MAX)
def _qr_plan(dtype: np.dtype, m: int, n: int) -> tuple:
    """geqrf/orgqr bound for ``dtype``, the workspaces numpy's queries size
    for m x n, and the upper-triangle mask np.triu builds on every call."""
    geqrf, orgqr = sla.get_lapack_funcs(("geqrf", "orgqr"), dtype=dtype)
    k, dt = min(m, n), geqrf.dtype
    lwork_r = geqrf(np.zeros((m, n), dt), lwork=-1)[2][0].real
    lwork_q = orgqr(np.zeros((m, k), dt), np.zeros(k, dt), lwork=-1)[1][0]
    return (geqrf, orgqr, int(lwork_r), int(lwork_q.real),
            np.triu(np.ones((k, n), dtype=bool)))


def qr_reduced(a: np.ndarray, backend: KernelBackend | None = None) -> tuple:
    """Reduced QR ``a = Q R``, bit for bit ``np.linalg.qr(a)``.

    On "blas", numpy's geqrf/orgqr and workspace but none of its per-call
    wrapping (an F-ordered ``a`` is not copied); else ``np.linalg.qr``.
    """
    be = backend or _BACKEND
    if be.name != "blas":
        return np.linalg.qr(a)
    geqrf, orgqr, lwork_r, lwork_q, upper = _qr_plan(a.dtype, *a.shape)
    qr, tau, _, info = geqrf(a, lwork=lwork_r)
    r = np.where(upper, qr[:tau.size], 0)
    q, _, info_q = orgqr(qr[:, :tau.size], tau, lwork=lwork_q, overwrite_a=1)
    if info or info_q:  # an illegal argument: the outputs are not a QR
        raise ValidationError(f"LAPACK QR: bad argument {-(info or info_q)}")
    return q, r


def svd_truncated(m: np.ndarray, max_dim: int | None = None,
                  cutoff: float = 0.0,
                  backend: KernelBackend | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Economy SVD with truncation: returns (U, s, Vh, discarded_weight).

    ``discarded_weight`` is the relative squared Schmidt weight dropped by
    truncating to ``max_dim`` singular values and to values above ``cutoff``;
    this is the truncation-error monitor of the paper (Sec. III-A).
    """
    be = backend or _BACKEND
    if _obs.REGISTRY.enabled:
        _M_SVD.inc()
    if be.name == "naive":
        u, s, vh = _svd_reference(m)
    elif be.name == "plain":
        # generic-library path: the slower QR-based gesvd driver with
        # full matrices computed then sliced
        uf, s, vhf = sla.svd(m, full_matrices=True, lapack_driver="gesvd")
        k = s.size
        u, vh = uf[:, :k], vhf[:k, :]
    else:
        try:
            # numpy's gesdd binding has the lowest call overhead, which
            # matters at the small bond dimensions typical of VQE circuits
            u, s, vh = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            # gesdd's divide-and-conquer can fail to converge where the
            # slower QR-iteration driver does not; a NaN entry fails both
            if not np.isfinite(m).all():
                raise ValidationError("SVD of a non-finite matrix") from exc
            try:
                u, s, vh = sla.svd(m, full_matrices=False,
                                   lapack_driver="gesvd", check_finite=False)
            except np.linalg.LinAlgError as err:
                raise ConvergenceError("gesdd and gesvd both failed") from err
    total = float((s * s).sum())
    if not 0.0 < total < np.inf:  # an inf entry: gesdd returns s = [nan]
        raise ValidationError(f"SVD of a {'non-finite' if total else 'zero'}"
                              " matrix in MPS update")
    keep = s.size
    if cutoff > 0.0:
        keep = int(np.count_nonzero(s > cutoff * s[0]))
        keep = max(keep, 1)
    if max_dim is not None:
        keep = min(keep, max_dim)
    discarded = float((s[keep:] ** 2).sum()) / total
    return u[:, :keep], s[:keep], vh[:keep, :], discarded


def _svd_reference(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference SVD: one-sided Jacobi on the Gram matrix, unblocked.

    Deliberately simple and slow (per-column Python loops) - the "MPE-only"
    stand-in for the Fig. 11 kernel comparison.  Falls back to the eigen
    decomposition of M+M, which is numerically adequate for the
    well-conditioned Schmidt spectra that appear in the benchmark circuits.
    """
    rows, cols = m.shape
    if rows >= cols:
        g = np.zeros((cols, cols), dtype=m.dtype)
        for i in range(cols):
            for j in range(cols):
                g[i, j] = np.vdot(m[:, i], m[:, j])
        evals, v = np.linalg.eigh(g)
        order = np.argsort(evals)[::-1]
        evals, v = evals[order], v[:, order]
        s = np.sqrt(np.clip(evals, 0.0, None))
        u = np.zeros((rows, cols), dtype=m.dtype)
        for k in range(cols):
            col = m @ v[:, k]
            nrm = s[k] if s[k] > 1e-300 else 1.0
            u[:, k] = col / nrm
        return u, s, v.conj().T
    u, s, vh = _svd_reference(m.conj().T)
    return vh.conj().T, s, u.conj().T
