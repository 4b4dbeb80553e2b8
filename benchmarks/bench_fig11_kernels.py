"""Fig. 11 + Sec. IV-B text: tensor-kernel speedups vs bond dimension.

Paper setup: the MPE-only baseline vs the MPE+64-CPE optimized kernels, for
tensor contraction (2.3x - 46.5x) and SVD (1.04x - 15.5x), with the speedup
growing as the bond dimension rises from 256 to 1024.

Offline substitution (DESIGN.md #2): the CPE offload is represented by the
gap between deliberately naive reference kernels (pure-loop contraction,
unblocked Jacobi SVD) and the fused permute+GEMM / LAPACK gesdd kernels.
The reproduced shape - speedup grows with D because arithmetic intensity
grows - is checked at laptop-sized D.
"""

import numpy as np
import pytest

from repro.common.rng import default_rng
from repro.common.timing import timed
from repro.simulators.kernels import (
    KernelBackend,
    svd_truncated,
    tensordot_fused,
)

from conftest import print_table

BOND_DIMS = [8, 16, 32, 64]


def _gate_contraction_operands(d: int, seed: int = 0):
    """The Eq. 7 contraction: gate (2,2,2,2) x theta (D,2,2,D)."""
    rng = default_rng(seed)
    gate = (rng.standard_normal((2, 2, 2, 2))
            + 1j * rng.standard_normal((2, 2, 2, 2)))
    theta = (rng.standard_normal((d, 2, 2, d))
             + 1j * rng.standard_normal((d, 2, 2, d)))
    return gate, theta


def test_fig11_contraction_speedup(benchmark):
    blas = KernelBackend(name="blas")
    naive = KernelBackend(name="naive")
    rows = []
    speedups = []
    for d in BOND_DIMS:
        gate, theta = _gate_contraction_operands(d)
        axes = ((2, 3), (1, 2))
        t_blas, _ = timed(
            lambda: tensordot_fused(gate, theta, axes, backend=blas),
            repeat=3)
        t_naive, _ = timed(
            lambda: tensordot_fused(gate, theta, axes, backend=naive),
            repeat=1)
        rows.append([d, t_naive, t_blas, t_naive / t_blas])
        speedups.append(t_naive / t_blas)

    gate, theta = _gate_contraction_operands(64)
    benchmark(lambda: tensordot_fused(gate, theta, ((2, 3), (1, 2)),
                                      backend=blas))
    print_table(
        "Fig 11 (upper): tensor contraction - naive vs fused permute+GEMM",
        ["D", "naive (s)", "optimized (s)", "speedup"],
        rows,
        "paper: 2.3x at small D growing to 46.5x at D=1024 (MPE vs "
        "MPE+CPE)",
    )
    assert speedups[-1] > speedups[0]       # grows with D
    assert speedups[-1] > 10.0              # large at the top of our range


def test_fig11_svd_speedup(benchmark):
    blas = KernelBackend(name="blas")
    naive = KernelBackend(name="naive")
    rng = default_rng(1)
    rows = []
    speedups = []
    for d in BOND_DIMS:
        m = (rng.standard_normal((2 * d, 2 * d))
             + 1j * rng.standard_normal((2 * d, 2 * d)))
        t_blas, _ = timed(lambda: svd_truncated(m, backend=blas), repeat=5)
        t_naive, _ = timed(lambda: svd_truncated(m, backend=naive), repeat=2)
        rows.append([d, t_naive, t_blas, t_naive / t_blas])
        speedups.append(t_naive / t_blas)

    m64 = (rng.standard_normal((128, 128))
           + 1j * rng.standard_normal((128, 128)))
    benchmark(lambda: svd_truncated(m64, backend=blas))
    print_table(
        "Fig 11 (lower): SVD - reference Jacobi vs LAPACK gesdd",
        ["D", "naive (s)", "optimized (s)", "speedup"],
        rows,
        "paper: 1.04x at small D growing to 15.5x at D=1024",
    )
    # the paper's SVD band is 1.04x..15.5x; the reproduced speedups must
    # stay within (and not below) that band - SVD gains are much more
    # modest than contraction gains, which is itself part of the shape
    assert all(s > 1.0 for s in speedups)
    assert max(speedups) > 2.0
    assert max(speedups) < 60.0


def test_sec4b_backend_comparison(benchmark):
    """Sec. IV-B: the optimized stack vs generic-library builds.

    Paper measurement: the SW version runs 1.1x faster than an x86 build on
    OpenBLAS and 16.6x faster than one on reference LAPACK-3.2, for a
    random nearest-neighbour circuit on a random MPS (D-threshold state).
    Reproduced contrast: the fused-gesdd ("blas") backend vs the
    unfused-einsum/gesvd ("plain") backend on the same workload.
    """
    from repro.circuits.hea import random_brick_circuit
    from repro.simulators.kernels import KernelBackend
    from repro.simulators.mps import MPS

    n, d = 12, 32
    circ = random_brick_circuit(n, 2, seed=11)

    def evolve(backend_name):
        mps = MPS.random_state(n, bond_dimension=d, seed=5)
        mps.backend = KernelBackend(name=backend_name)
        mps.max_bond_dimension = d
        for g in circ.gates:
            mps.apply_two_qubit(g.matrix(), *g.qubits)
        return mps

    t_blas, _ = timed(lambda: evolve("blas"), repeat=2)
    t_plain, _ = timed(lambda: evolve("plain"), repeat=2)

    benchmark.pedantic(lambda: evolve("blas"), rounds=1, iterations=1)
    print_table(
        "Sec IV-B: random MPS evolution - optimized vs generic backends",
        ["backend", "seconds", "relative"],
        [["blas (fused+gesdd)", t_blas, 1.0],
         ["plain (einsum+gesvd)", t_plain, t_plain / t_blas]],
        "paper: SW 1.1x over x86/OpenBLAS, 16.6x over x86/LAPACK-3.2 at "
        "D=512",
    )
    assert t_blas < t_plain


def test_sec4b_specialization_cache(benchmark):
    """Sec. III-E: plan/specialization caching (the Julia-JIT analogue).

    Steady-state VQE iterations must hit the contraction-plan cache; the
    first circuit compiles the plans, later circuits reuse them.
    """
    from repro import obs
    from repro.circuits.hea import random_brick_circuit
    from repro.simulators.mps_circuit import MPSSimulator
    from repro.simulators.kernels import get_backend

    def plan_lookups():
        with obs.collect() as reg:
            MPSSimulator(12, max_bond_dimension=16).run(circ)
        return {outcome: reg.value("kernels.plan_cache", outcome=outcome)
                for outcome in ("hit", "miss")}

    circ = random_brick_circuit(12, 3, seed=4)
    get_backend().plan_cache.clear()
    first = plan_lookups()
    second = plan_lookups()

    benchmark(lambda: MPSSimulator(12, max_bond_dimension=16).run(circ))

    print_table(
        "Sec III-E: kernel specialization cache across VQE iterations",
        ["run", "cache hits", "cache misses"],
        [["first", first["hit"], first["miss"]],
         ["second", second["hit"], second["miss"]]],
        "Julia JIT-compiles kernels once per shape signature and reuses "
        "them across the 20M-core run",
    )
    assert second["miss"] == 0
    assert second["hit"] > 0
