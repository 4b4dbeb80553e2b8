"""Fig. 10: one-VQE-circuit MPS simulation time vs hydrogen-chain length.

The paper simulates one VQE circuit for H_n chains with n = 6..100 atoms
(12..200 qubits) and finds the time "scales linearly with the number of
qubits".  At a fixed bond dimension the cost per two-qubit gate is constant,
so linearity holds for circuits whose gate count grows linearly - which is
the case for the spatially local UCCSD excitations that dominate a chain's
correlation.  We build exactly such circuits (nearest-neighbour pair
excitations, one Trotter step) and fit the measured times.
"""

import numpy as np
import pytest

from repro.common.timing import timed
from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.trotter import pauli_rotation_gate
from repro.operators.fermion import FermionOperator
from repro.operators.jordan_wigner import jordan_wigner
from repro.simulators.mps_circuit import MPSSimulator

from conftest import print_table


def local_uccsd_chain_circuit(n_atoms: int, theta: float = 0.05) -> Circuit:
    """One Trotter step of nearest-neighbour UCCSD on an H chain.

    Per neighbouring atom pair (i, i+1): the paired double excitation
    (both electrons of bond i hop to bond i+1) and the two spin singles.
    Gate count grows linearly with the chain length.
    """
    n_qubits = 2 * n_atoms
    circ = Circuit(n_qubits, name=f"local_uccsd_H{n_atoms}")
    # half-filled reference with every other site doubly occupied, so the
    # neighbouring-pair excitations all act nontrivially and the evolution
    # genuinely entangles the chain
    for i in range(0, n_atoms, 2):
        circ.append(Gate("X", (2 * i,)))
        circ.append(Gate("X", (2 * i + 1,)))
    for i in range(n_atoms - 1):
        base = 2 * i
        # singles (alpha/beta) i -> i+1 and the paired double
        taus = [
            FermionOperator.from_term([(base + 2, 1), (base, 0)]),
            FermionOperator.from_term([(base + 3, 1), (base + 1, 0)]),
            FermionOperator.from_term([(base + 2, 1), (base + 3, 1),
                                       (base + 1, 0), (base, 0)]),
        ]
        for tau in taus:
            gen = (tau - tau.dagger()).normal_ordered()
            for pt, coeff in jordan_wigner(gen):
                circ.append(pauli_rotation_gate(
                    pt, n_qubits, angle=float(coeff.imag) * theta))
    return circ


def test_fig10_linear_scaling(benchmark):
    atom_counts = [6, 12, 20, 32, 48]
    bond_dim = 16
    rows = []
    sizes, times = [], []
    for n in atom_counts:
        circ = local_uccsd_chain_circuit(n)
        nq = circ.n_qubits
        t, sim = timed(lambda: MPSSimulator(
            nq, max_bond_dimension=bond_dim).run(circ), repeat=2)
        rows.append([n, nq, len(circ.decomposed()), t, sim.max_bond()])
        sizes.append(nq)
        times.append(t)

    benchmark(lambda: MPSSimulator(24, max_bond_dimension=bond_dim).run(
        local_uccsd_chain_circuit(12)))

    print_table(
        "Fig 10: one VQE circuit on the MPS simulator, hydrogen chains",
        ["atoms", "qubits", "gates", "seconds", "max D"],
        rows,
        "paper: 6..100 atoms (12..200 qubits), time scales linearly with "
        "the number of qubits",
    )

    # linearity: R^2 of a linear fit in qubit count
    a = np.vstack([sizes, np.ones(len(sizes))]).T
    coef, res, *_ = np.linalg.lstsq(a, np.asarray(times), rcond=None)
    fitted = a @ coef
    ss_tot = np.sum((times - np.mean(times)) ** 2)
    ss_res = np.sum((np.asarray(times) - fitted) ** 2)
    r2 = 1.0 - ss_res / ss_tot
    print(f"linear fit: t = {coef[0]*1e3:.3f} ms/qubit + {coef[1]*1e3:.2f} "
          f"ms, R^2 = {r2:.4f}")
    assert r2 > 0.97  # the paper's linear-scaling claim
    assert coef[0] > 0
    # the circuits must actually entangle the chain (guards the workload)
    assert rows[-1][4] > 1


@pytest.mark.parametrize("n_atoms", [100])
def test_fig10_large_chain_200_qubits(benchmark, n_atoms):
    """The paper's largest MPS-VQE circuit: 100 atoms = 200 qubits."""
    circ = local_uccsd_chain_circuit(n_atoms)
    nq = circ.n_qubits
    assert nq == 200

    def run():
        return MPSSimulator(nq, max_bond_dimension=16).run(circ)

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n200-qubit circuit: {len(circ.decomposed())} gates, "
          f"max bond reached {sim.max_bond()}, "
          f"memory {sim.memory_bytes() / 1e6:.2f} MB")
    assert sim.max_bond() <= 16
