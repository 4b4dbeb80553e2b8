"""Independent-reference pins on frozen-core LiH (the ``lih_step`` system).

The statevector backend shares no evolution code with the MPS sweep
kernel: it runs the ``decomposed()`` CNOT staircases on dense amplitudes.
At theta_ref (the committed fast-backend optimum of
``benchmarks/e2e/reference.json``) it is the oracle for

* both MPS modes at unbounded D - two different kernels, the excitation
  sweep and the two-site staircase path - to 1e-10 Ha;
* D = 8 and D = 6, which the excitation stream no longer feels: exp(a kappa)
  never leaves the particle-number sector, the state's bonds peak at 7
  (12 for the same circuit as Pauli rotations, whose mid-excitation states
  do leave it), so D = 8 is exact - energy 8.1e-13 Ha, adjoint gradient
  4.3e-15 (max-norm) from the statevector's - and D = 6 discards 2.8e-17:
  8.1e-13 Ha / 2.0e-8, and 2.6e-9 with every gate undone on the ket
  instead of read from the forward trail;
* the same circuit one level down, as ``PR`` rotations through the same
  sweep, which is what these rows pinned before ``EX``: D = 8 6.4e-13 Ha /
  4.3e-7, D = 6 5.8e-7 Ha / 9.0e-5 (2.1e-4 without the trail); the
  staircase path is 7.9e-5 Ha off at D = 8, because it truncates
  mid-ladder states;
* D = 4, where the excitation stream truncates for real (discarded weight
  1.5e-3): 1.1e-3 Ha against the rotations' 1.5e-2 Ha at the same D.

Energies are Rayleigh quotients of the truncated state
(``MPS.environments``), so every truncated row errs *above* the exact
energy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Q2Chemistry
from repro.chem.geometry import lih
from repro.circuits.circuit import Circuit
from repro.circuits.uccsd import UCCSDAnsatz
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.statevector import StatevectorSimulator
from repro.vqe.energy import EnergyEvaluator

REFERENCE = (Path(__file__).resolve().parents[2]
             / "benchmarks" / "e2e" / "reference.json")


@pytest.fixture(scope="module")
def lih_frozen_core():
    job = Q2Chemistry.from_molecule(lih(), frozen_core=1)
    mo = job.mo_integrals
    circuit = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    theta = np.asarray(json.loads(REFERENCE.read_text())["lih_theta_ref"])
    exact = EnergyEvaluator(job.qubit_hamiltonian(), circuit,
                            simulator="statevector")
    rotations = Circuit(circuit.n_qubits,
                        [p for g in circuit for p in g.decompose()],
                        n_parameters=circuit.n_parameters)
    return {"hamiltonian": job.qubit_hamiltonian(), "circuit": circuit,
            "rotations": rotations,
            "theta": theta, "energy": exact.energy(theta),
            "gradient": exact.gradient_source("adjoint")(theta)}


#: ``lih_frozen_core["gradient"]`` as commit ``dec2258`` returned it, when
#: the dense adjoint ran its own forward pass and built H|psi> term by term
DENSE_GRADIENT_AT_DEC2258 = np.array([
    8.108380488081252e-07, -6.036884815441411e-08,
    -1.6805694378668094e-08, -8.618598605007352e-08,
    -6.341694958624517e-07, 2.3632269818507303e-07,
    1.0995289601090555e-08, 6.846358172810142e-07,
    -2.1896178288676938e-07, -1.5789651916755111e-07,
    -1.2680276918159567e-07, 1.8601809736639882e-07,
    4.880213957828804e-08, -1.0189839570659076e-07])


def test_dense_adjoint_gradient_did_not_move(lih_frozen_core):
    """The oracle now unwinds the evaluator's prepared state and builds
    H|psi> with its compiled observable - one gather per flip mask, which
    sums the 276 terms in another order, so to 1e-12 and not bitwise."""
    moved = np.abs(lih_frozen_core["gradient"] - DENSE_GRADIENT_AT_DEC2258)
    assert moved.max() <= 1e-12


@pytest.mark.parametrize("mode", ["optimized", "naive"])
def test_both_mps_kernels_match_the_statevector_at_unbounded_d(
        lih_frozen_core, mode):
    ref = lih_frozen_core
    bound = ref["circuit"].bind(ref["theta"])
    sim = MPSSimulator(bound.n_qubits, mode=mode).run(bound)
    assert abs(sim.expectation(ref["hamiltonian"]) - ref["energy"]) <= 1e-10
    exact = StatevectorSimulator(bound.n_qubits).run(bound).statevector()
    assert abs(np.vdot(exact, sim.statevector())) >= 1.0 - 1e-10


def _errors(ref, circuit, max_bond):
    """(energy error in Ha, max-norm adjoint-gradient error) at one D."""
    evaluator = EnergyEvaluator(ref["hamiltonian"], circuit,
                                simulator="mps", max_bond_dimension=max_bond)
    energy = evaluator.energy(ref["theta"])
    gradient = evaluator.gradient_source("adjoint")(ref["theta"])
    return (abs(energy - ref["energy"]),
            np.abs(gradient - ref["gradient"]).max())


def test_d8_energy_and_adjoint_gradient_against_the_statevector(
        lih_frozen_core):
    ref = lih_frozen_core
    e_err, g_err = _errors(ref, ref["circuit"], 8)
    assert e_err <= 1e-10
    assert g_err <= 1e-10
    # the same circuit as Pauli rotations feels the cap in its gradient
    e_err, g_err = _errors(ref, ref["rotations"], 8)
    assert e_err <= 1e-8
    assert 1e-8 <= g_err <= 1e-5
    # and the staircase stream in its energy: same D, same theta, the
    # decomposed() circuit through the two-site path is 7.9e-5 Ha off
    staircase = EnergyEvaluator(ref["hamiltonian"],
                                ref["circuit"].decomposed(),
                                simulator="mps", max_bond_dimension=8)
    assert abs(staircase.energy(ref["theta"]) - ref["energy"]) >= 1e-5


def test_d6_adjoint_gradient_against_the_statevector(lih_frozen_core):
    ref = lih_frozen_core
    e_err, g_err = _errors(ref, ref["circuit"], 6)
    assert e_err <= 1e-10
    assert g_err <= 1e-7
    e_err, g_err = _errors(ref, ref["rotations"], 6)
    assert 1e-8 <= e_err <= 1e-6
    assert g_err <= 2e-4


def test_d4_truncates_the_excitation_stream_less_than_its_rotations(
        lih_frozen_core):
    ref = lih_frozen_core
    e_err, _ = _errors(ref, ref["circuit"], 4)
    e_rot, _ = _errors(ref, ref["rotations"], 4)
    assert 1e-4 <= e_err <= 2e-3      # the cap bites ...
    assert e_err <= 0.1 * e_rot       # ... the rotations 14x harder
