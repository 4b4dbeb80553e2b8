"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but measurements justifying its engineering:

1. Hastings update (Eq. 10) vs the Vidal inverse-lambda update - the paper
   chose Eq. 10 so that "the algorithm would be numerically more stable";
2. gate fusion on/off (Sec. III-A's absorption of single-qubit gates);
3. DMRG vs MPS-VQE at equal bond dimension (Sec. III-A's substitutability
   remark);
4. LPT vs static scheduling of Pauli-string circuits (Sec. III-C's
   "adapted dynamical load balancing").
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.common.rng import default_rng
from repro.common.timing import timed
from repro.circuits.hea import random_brick_circuit
from repro.simulators.kernels import svd_truncated
from repro.simulators.mps import MPS
from repro.simulators.mps_circuit import MPSSimulator

from conftest import print_table


def _canonical_violation(mps: MPS) -> float:
    worst = 0.0
    for q in range(mps.n_qubits):
        b = mps.tensors[q]
        g = np.einsum("lir,mir->lm", b, b.conj())
        worst = max(worst, float(np.max(np.abs(g - np.eye(b.shape[0])))))
    return worst


def _weak_gate(seed: int, eps: float = 1e-4) -> np.ndarray:
    rng = default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (h + h.conj().T)
    return expm(1j * eps * h)


def _vidal_step(mps: MPS, u: np.ndarray, q: int) -> None:
    """Eqs. 7-9 on sites (q, q+1), then B_q = diag(lambda_q)^-1 U S: the
    inverse-lambda restore Eq. 10 replaces, exact but dividing by the
    left Schmidt values (untruncated: cutoff 0, no bond cap)."""
    theta = np.einsum("lia,ajr->lijr", mps.tensors[q], mps.tensors[q + 1])
    m = np.einsum("ijkl,aklr->aijr", u.reshape(2, 2, 2, 2), theta)
    lam, (dl, _, _, dr) = mps.lambdas[q], m.shape
    uu, s, vh, _ = svd_truncated(
        (m * lam[:, None, None, None]).reshape(dl * 2, 2 * dr))
    s = s / np.linalg.norm(s)
    lam_safe = np.where(lam > 1e-14, lam, 1.0)
    mps.tensors[q] = (uu * s).reshape(dl, 2, s.size) / lam_safe[:, None, None]
    mps.tensors[q + 1] = vh.reshape(s.size, 2, dr)
    mps.lambdas[q + 1] = s


def test_ablation_hastings_vs_vidal(benchmark):
    """Eq. 10 vs dividing by Schmidt values, on weakly entangled evolution.

    Weak entanglers leave tiny Schmidt values on every bond (the NISQ/VQE
    regime the paper targets); the inverse-lambda update amplifies roundoff
    catastrophically while the Hastings form stays canonical to machine
    precision.
    """
    n, layers = 8, 30
    gates = []
    s = 0
    for layer in range(layers):
        for q in range(layer % 2, n - 1, 2):
            gates.append((_weak_gate(s), q))
            s += 1

    def evolve(scheme):
        mps = MPS(n, cutoff=0.0)
        for u, q in gates:
            if scheme == "vidal":
                _vidal_step(mps, u, q)
            else:
                mps.apply_two_qubit(u, q, q + 1)
        return mps

    rows = []
    violations = {}
    for scheme in ("hastings", "vidal"):
        mps = evolve(scheme)
        v = _canonical_violation(mps)
        lmin = min(float(l.min()) for l in mps.lambdas[1:-1])
        violations[scheme] = v
        rows.append([scheme, v, lmin])

    benchmark.pedantic(lambda: evolve("hastings"), rounds=1, iterations=1)

    print_table(
        "Ablation 1: canonical-form violation after weak-entangler evolution",
        ["update scheme", "max |BB+ - I|", "min Schmidt value"],
        rows,
        "the paper keeps the right-canonical form via Eq. 10 'for one "
        "thing, the algorithm would be numerically more stable'",
    )
    assert violations["hastings"] < 1e-10
    assert violations["vidal"] > 1e3 * violations["hastings"]


def test_ablation_gate_fusion(benchmark):
    """Fusion on vs off for a rotation-heavy UCCSD-style circuit.

    Fusion shrinks the gate *count* 2-3x; its runtime effect depends on the
    simulator: on the statevector backend every absorbed single-qubit gate
    saves a full O(2^n) pass, while on the MPS (where single-qubit gates
    cost O(D^2) without an SVD) the win comes from the merged two-qubit
    runs.  Both effects are measured here.
    """
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.circuits.fusion import fuse_single_qubit_gates
    from repro.simulators.statevector import StatevectorSimulator

    ansatz = UCCSDAnsatz(5, 4)
    rng = default_rng(9)
    # the elementary-gate stream: fusion has nothing to absorb into an EX
    circ = ansatz.circuit().bind(0.1 * rng.standard_normal(
        ansatz.n_parameters)).decomposed()
    n = circ.n_qubits
    fused = fuse_single_qubit_gates(circ)

    t_sv_plain, _ = timed(lambda: StatevectorSimulator(n).run(circ),
                          repeat=2)
    t_sv_fused, _ = timed(lambda: StatevectorSimulator(n).run(fused),
                          repeat=2)

    benchmark(lambda: StatevectorSimulator(n).run(fused))
    print_table(
        "Ablation 2: gate fusion (UCCSD, 10 qubits)",
        ["quantity", "unfused", "fused", "ratio"],
        [["gate count", len(circ), len(fused), len(circ) / len(fused)],
         ["SV seconds", t_sv_plain, t_sv_fused, t_sv_plain / t_sv_fused]],
        "Sec. III-A: single-qubit gates 'can be absorbed into two-qubit "
        "gates using gate fusion'",
    )
    assert len(fused) < 0.6 * len(circ)
    assert t_sv_fused < t_sv_plain


def test_ablation_dmrg_vs_vqe(benchmark, h2_mo):
    """DMRG vs MPS-VQE at the same bond dimension (Sec. III-A remark)."""
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.operators.molecular import molecular_qubit_hamiltonian
    from repro.simulators.dmrg import DMRG
    from repro.vqe.vqe import VQE
    from repro.chem.fci import FCISolver

    mo, _ = h2_mo
    ham = molecular_qubit_hamiltonian(mo)
    e_fci = FCISolver(mo).solve().energy

    rows = []
    for d in (2, 4):
        t_vqe, r_vqe = timed(lambda: VQE(
            ham, UCCSDAnsatz(2, 2), simulator="mps",
            max_bond_dimension=d).run(), repeat=1)
        t_dmrg, r_dmrg = timed(lambda: DMRG(
            ham, 4, max_bond_dimension=d, n_electrons=2).run(seed=1),
            repeat=1)
        rows.append([d, r_vqe.energy - e_fci, t_vqe,
                     r_dmrg.energy - e_fci, t_dmrg])

    benchmark.pedantic(
        lambda: DMRG(ham, 4, max_bond_dimension=4, n_electrons=2).run(seed=1),
        rounds=1, iterations=1)

    print_table(
        "Ablation 3: DMRG vs MPS-VQE at equal bond dimension (H2)",
        ["D", "VQE err (Ha)", "VQE s", "DMRG err (Ha)", "DMRG s"],
        rows,
        "Sec. III-A: 'one may well substitute the VQE simulator by ... "
        "DMRG and a similar or even higher precision would be expected'",
    )
    for row in rows:
        assert row[3] <= row[1] + 1e-6  # DMRG at least as accurate


def test_ablation_jw_vs_bk_on_mps(benchmark):
    """Why the MPS pipeline uses Jordan-Wigner: near-contiguous supports.

    JW excitation strings are contiguous up to the one identity gap of a
    double excitation, so their CNOT staircases need few routing swaps;
    Bravyi-Kitaev strings are lower weight but scattered, and the MPS's
    SWAP routing along its chain (``routing_plan``) inflates the two-qubit
    gate count.  (The same locality is what keeps the span - the SVD
    count - of a directly applied ``EX`` excitation short.)
    """
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.simulators.mps import routing_plan

    def routed_two_qubit_gates(circ):
        """Each two-qubit gate plus the adjacent SWAPs the MPS routes it
        with."""
        return sum(1 + routing_plan(*g.qubits).n_swaps
                   for g in circ.gates if g.n_qubits == 2)

    rows = []
    counts = {}
    circuits = {}
    for mapping in ("jw", "bk"):
        ansatz = UCCSDAnsatz(5, 4, mapping=mapping)
        circ = ansatz.circuit().bind(
            0.1 * default_rng(1).standard_normal(
                ansatz.n_parameters)).decomposed()
        circuits[mapping] = circ
        max_w = max(pt.weight for exc in ansatz.excitations
                    for pt, _ in exc.pauli_terms)
        counts[mapping] = routed_two_qubit_gates(circ)
        rows.append([mapping, max_w, circ.n_two_qubit_gates(),
                     counts[mapping]])

    benchmark.pedantic(lambda: routed_two_qubit_gates(circuits["bk"]),
                       rounds=1, iterations=1)

    print_table(
        "Ablation 5: JW vs BK ansatz on a linear (MPS) topology",
        ["mapping", "max Pauli weight", "2q gates", "2q gates routed"],
        rows,
        "Sec. III-A: JW's Z-chains make UCCSD staircases nearest-"
        "neighbour, which is what the MPS simulator wants",
    )
    assert counts["jw"] < counts["bk"]


def test_ablation_scheduling(benchmark):
    """LPT vs static block scheduling of real Hamiltonian strings."""
    from repro.chem import geometry
    from repro.chem.scf import RHF
    from repro.chem import mo as momod
    from repro.operators.molecular import molecular_qubit_hamiltonian
    from repro.parallel.scheduler import (
        Task,
        load_imbalance,
        makespan,
        schedule_lpt,
        schedule_static,
    )

    res = RHF(geometry.lih(), "sto-3g").run()
    ham = molecular_qubit_hamiltonian(momod.from_scf(res))

    # the transfer contraction of Eq. 11 runs over the contiguous range
    # spanning a string's support, so its cost ~ that span
    tasks = []
    for term, _ in ham:
        qubits = [q for q, _ in term.ops()]
        if qubits:
            tasks.append(Task(len(tasks), max(qubits) - min(qubits) + 1.0))

    rows = []
    ratios = {}
    for strategy, schedule in (("block", schedule_static),
                               ("lpt", schedule_lpt)):
        assignment = schedule(tasks, 32)
        ratios[strategy] = 1.0 + load_imbalance(assignment)
        rows.append([strategy, makespan(assignment), ratios[strategy]])

    benchmark.pedantic(lambda: schedule_lpt(tasks, 32), rounds=3,
                       iterations=1)

    print_table(
        "Ablation 4: Pauli-string scheduling (LiH Hamiltonian, 32 ranks)",
        ["strategy", "makespan (cost units)", "imbalance"],
        rows,
        "Sec. III-C: 'high parallel scalability with adapted dynamical "
        "load balancing algorithm'",
    )
    assert ratios["lpt"] <= ratios["block"]
    assert ratios["lpt"] < 1.05  # near-perfect balance