"""Fig. 8: single-circuit simulation time across simulator implementations.

Paper setup: one UCCSD circuit for H2, LiH and H2O on one process, compared
across qiskit (state vector), qiskit (MPS), quimb (MPS) and Q2Chemistry.
Offline substitution (DESIGN.md #4): the external packages are replaced by
faithful re-implementations of their algorithmic choices -

* "SV"        - dense gate-by-gate statevector (qiskit-SV stand-in);
* "MPS naive" - MPS on the decomposed CNOT-staircase stream without gate
                fusion: one SVD per two-qubit gate and routing swap, every
                single-qubit rotation applied individually (quimb stand-in);
* "MPS opt"   - the paper's pipeline: each excitation gate applied whole
                (one SVD per bond of its span, no swaps) + fusion +
                Hastings update + fused permute/GEMM kernels (the current
                work).  The two MPS columns differ by the kernel, not only
                by fusion and the BLAS/LAPACK choices.

Reproduced shape: the optimized MPS clearly beats the naive MPS (paper: ~7x
vs quimb, ~2x vs qiskit-MPS).
"""

import numpy as np
import pytest

from repro.common.timing import timed
from repro.circuits.uccsd import UCCSDAnsatz
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.statevector import StatevectorSimulator

from conftest import print_table


def _bound_uccsd(mo):
    ansatz = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons)
    rng = np.random.default_rng(7)
    theta = 0.05 * rng.standard_normal(ansatz.n_parameters)
    return ansatz.circuit().bind(theta)


def test_fig08_software_comparison(benchmark, h2_mo, lih_mo, water_mo):
    systems = [("H2", h2_mo[0]), ("LiH", lih_mo[0]), ("H2O", water_mo[0])]
    rows = []
    ratios = []
    for name, mo in systems:
        circ = _bound_uccsd(mo)
        n = circ.n_qubits
        t_sv, _ = timed(lambda: StatevectorSimulator(n).run(circ), repeat=1)
        t_naive, _ = timed(
            lambda: MPSSimulator(n, mode="naive").run(circ), repeat=1)
        t_opt, _ = timed(
            lambda: MPSSimulator(n, mode="optimized").run(circ), repeat=1)
        rows.append([name, n, len(circ.decomposed()), t_sv, t_naive, t_opt,
                     t_naive / t_opt])
        ratios.append(t_naive / t_opt)

    benchmark(lambda: MPSSimulator(h2_mo[0].n_qubits).run(
        _bound_uccsd(h2_mo[0])))

    print_table(
        "Fig 8: one UCCSD circuit, one process - seconds per simulator",
        ["system", "qubits", "gates", "SV", "MPS naive", "MPS opt",
         "naive/opt"],
        rows,
        "Q2Chemistry ~7x faster than quimb(MPS), ~2x faster than "
        "qiskit (SV and MPS)",
    )
    # the optimized pipeline must beat the naive MPS on every system,
    # and by a growing margin on the larger ones (paper: ~2x vs qiskit-MPS,
    # ~7x vs quimb)
    assert all(r > 1.2 for r in ratios)
    assert ratios[-1] > 2.0
