"""Fig. 9: the memory-efficient circuit-storage scheme (Sec. III-D).

Paper setup: (H2)3, LiH and H2O have 919, 630 and 1085 Hadamard-test
circuits; with 18/19/17 circuits per process, keeping ONE ansatz replica
plus on-the-fly measurement parts gives ~15x speedup and ~20x memory
reduction over storing full circuits.

We build the same per-process batches and measure both stores through one
full energy-evaluation step on the MPS simulator:

* replicated - rebind every full circuit, simulate each from scratch;
* shared     - bind the single ansatz replica, run it once, then apply only
               the cached measurement parts to copies of the state.
"""

import numpy as np
import pytest

from repro.common.timing import timed
from repro.chem import geometry
from repro.chem.scf import RHF
from repro.chem import mo as momod
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.operators.pauli import pauli_string
from repro.simulators.mps_circuit import MPSSimulator
from repro.vqe.circuit_store import (
    ReplicatedCircuitStore,
    SharedAnsatzCircuitStore,
)

from conftest import print_table


def _setup(molecule, circuits_per_process: int):
    res = RHF(molecule, "sto-3g").run()
    mo = momod.from_scf(res)
    ham = molecular_qubit_hamiltonian(mo)
    terms = [t for t, _ in ham if not t.is_identity()]
    ansatz = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons)
    width = ansatz.n_qubits + 1  # ancilla row
    # the stores model elementary-gate circuits, as the paper's do
    circuit = ansatz.circuit(n_qubits=width).decomposed()
    batch = terms[:circuits_per_process]
    return circuit, terms, batch, width, ansatz.n_parameters


# The store comparison is simulator-agnostic (both stores feed the same
# simulator); the dense statevector backend is the fastest exact engine at
# these 13-15 qubit sizes, keeping the benchmark wall time reasonable.
from repro.simulators.statevector import StatevectorSimulator


def _evaluate_replicated(store, theta, width):
    anc_z = pauli_string([(width - 1, "Z")])
    total = 0.0
    for circ in store.bind(theta):
        sim = StatevectorSimulator(width).run(circ)
        total += sim.expectation_pauli(anc_z)
    return total


def _evaluate_shared(store, theta, width):
    anc_z = pauli_string([(width - 1, "Z")])
    base = StatevectorSimulator(width).run(store.bind(theta))
    psi = base.statevector()
    total = 0.0
    for term in store.terms:
        sim = StatevectorSimulator(width)
        sim.set_state(psi)
        sim.run(store.measurement_circuit(term))
        total += sim.expectation_pauli(anc_z)
    return total


@pytest.mark.parametrize("name,molecule,per_process,total_paper", [
    ("(H2)3", geometry.h2_trimer(), 18, 919),
    ("LiH", geometry.lih(), 19, 630),
    ("H2O", geometry.water(), 17, 1085),
])
def test_fig09_memory_scheme(benchmark, name, molecule, per_process,
                             total_paper):
    circuit, terms, batch, width, n_params = _setup(molecule, per_process)
    rng = np.random.default_rng(3)
    theta = 0.02 * rng.standard_normal(n_params)

    replicated = ReplicatedCircuitStore(circuit, batch)
    shared = SharedAnsatzCircuitStore(circuit, batch)
    shared.materialize_all()

    t_rep, e_rep = timed(
        lambda: _evaluate_replicated(replicated, theta, width), repeat=1)
    t_shr, e_shr = timed(
        lambda: _evaluate_shared(shared, theta, width), repeat=1)
    assert e_rep == pytest.approx(e_shr, abs=1e-8)  # identical physics

    speedup = t_rep / t_shr
    mem_ratio = replicated.memory_bytes() / shared.memory_bytes()

    benchmark.pedantic(lambda: _evaluate_shared(shared, theta, width),
                       rounds=1, iterations=1)

    print_table(
        f"Fig 9 [{name}]: memory-efficient circuit store",
        ["total circuits", "per process", "speedup", "memory ratio"],
        [[len(terms), per_process, speedup, mem_ratio]],
        f"paper: {total_paper} circuits, ~15x speedup, ~20x memory "
        "reduction at 17-19 circuits/process",
    )
    # shape: an O(circuits-per-process) speedup and memory win
    assert speedup > 0.4 * per_process
    assert mem_ratio > 0.4 * per_process
