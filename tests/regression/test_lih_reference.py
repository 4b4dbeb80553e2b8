"""Independent-reference pins on frozen-core LiH (the ``lih_step`` system).

The statevector backend shares no evolution code with the MPS rotation
kernel: it runs the ``decomposed()`` CNOT staircases on dense amplitudes.
At theta_ref (the committed fast-backend optimum of
``benchmarks/e2e/reference.json``) it is the oracle for

* both MPS modes at unbounded D - two different kernels, the rotation
  sweep and the two-site staircase path - to 1e-10 Ha;
* the truncated regime: at D = 8 the rotation kernel keeps the energy
  within 1e-8 Ha and the adjoint gradient within 1e-5 (max-norm) of exact.
  Measured 8.1e-13 Ha / 4.3e-7 here; the staircase path was 7.0e-5 Ha /
  1.4e-2 off at the same D, because it truncates mid-ladder states;
* D = 6, where truncation is felt (5.8e-7 Ha) and where reading the ket
  from the forward trail and un-evolving it part ways: the gradient is
  9.0e-5 off with the trail, 2.1e-4 with every gate undone on the ket.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Q2Chemistry
from repro.chem.geometry import lih
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
    return {"hamiltonian": job.qubit_hamiltonian(), "circuit": circuit,
            "theta": theta, "energy": exact.energy(theta),
            "gradient": exact.gradient_source("adjoint")(theta)}


@pytest.mark.parametrize("mode", ["optimized", "naive"])
def test_both_mps_kernels_match_the_statevector_at_unbounded_d(
        lih_frozen_core, mode):
    ref = lih_frozen_core
    bound = ref["circuit"].bind(ref["theta"])
    sim = MPSSimulator(bound.n_qubits, mode=mode).run(bound)
    assert abs(sim.expectation(ref["hamiltonian"]) - ref["energy"]) <= 1e-10
    exact = StatevectorSimulator(bound.n_qubits).run(bound).statevector()
    assert abs(np.vdot(exact, sim.statevector())) >= 1.0 - 1e-10


def test_d8_energy_and_adjoint_gradient_against_the_statevector(
        lih_frozen_core):
    ref = lih_frozen_core
    evaluator = EnergyEvaluator(ref["hamiltonian"], ref["circuit"],
                                simulator="mps", max_bond_dimension=8)
    assert abs(evaluator.energy(ref["theta"]) - ref["energy"]) <= 1e-8
    gradient = evaluator.gradient_source("adjoint")(ref["theta"])
    assert np.abs(gradient - ref["gradient"]).max() <= 1e-5
    # the cap is one the staircase stream feels: same D, same theta, the
    # decomposed() circuit through the two-site path is 7.0e-5 Ha off
    staircase = EnergyEvaluator(ref["hamiltonian"],
                                ref["circuit"].decomposed(),
                                simulator="mps", max_bond_dimension=8)
    assert abs(staircase.energy(ref["theta"]) - ref["energy"]) >= 1e-5


def test_d6_adjoint_gradient_against_the_statevector(lih_frozen_core):
    ref = lih_frozen_core
    evaluator = EnergyEvaluator(ref["hamiltonian"], ref["circuit"],
                                simulator="mps", max_bond_dimension=6)
    assert abs(evaluator.energy(ref["theta"]) - ref["energy"]) <= 1e-6
    gradient = evaluator.gradient_source("adjoint")(ref["theta"])
    assert np.abs(gradient - ref["gradient"]).max() <= 2e-4
