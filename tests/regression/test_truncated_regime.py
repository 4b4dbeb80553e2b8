"""Truncated-regime rows: 6-orbital, 4-electron UCCSD where the cap bites.

The regime the paper cares about, pinned against the dense statevector at
a fixed theta (scale 0.1, seed 0) and three caps: D = 16 and 24 truncate
both streams, D = 32 only the Pauli-rotation one.  Two statements per row:

* the excitation stream is no less faithful (<= 1.05 x) than the same
  circuit one level down - its ``PR`` rotations through the same sweep,
  which is what ran before ``EX`` (measured infidelity 2.64e-2 / 1.20e-3 /
  5.7e-13 against 2.86e-2 / 1.37e-3 / 2.4e-5);
* its truncation ledger can be trusted: infidelity <= 2 x the discarded
  weight it booked (ratio 0.8-1.2 here).

No row asserts a *smaller* discarded weight.  exp(a kappa) never leaves
the particle-number sector, so what the excitation stream discards is
weight of the state itself and its ledger tracks the real infidelity; the
rotation stream's mid-excitation states leave the sector and its ledger
wanders either side of it (at D = 16 it books 1.40e-2 for a real 2.86e-2,
at D = 24 6.1e-3 for 1.4e-3).  A ``max_truncation_error`` ceiling set on
the old ledger's reading at a cap that bites hard now trips where it
should have.

One adjoint row: on the H4 chain at D = 4 the bra ``H|psi>`` of the MPS
gradient is built at its full rank, above the ket's cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Q2Chemistry
from repro.chem.geometry import hydrogen_chain
from repro.circuits.circuit import Circuit
from repro.circuits.uccsd import UCCSDAnsatz
from repro.simulators.mpo import MPO
from repro.simulators.mps_circuit import MPSSimulator
from repro.simulators.statevector import StatevectorSimulator
from repro.vqe.energy import EnergyEvaluator


@pytest.fixture(scope="module")
def six_orbitals():
    ansatz = UCCSDAnsatz(6, 4)
    theta = 0.1 * np.random.default_rng(0).standard_normal(
        ansatz.n_parameters)
    excitations = ansatz.circuit().bind(theta)
    rotations = Circuit(excitations.n_qubits,
                        [p for g in excitations for p in g.decompose()])
    exact = StatevectorSimulator(excitations.n_qubits).run(
        excitations.decomposed()).statevector()
    return excitations, rotations, exact


def _infidelity_and_ledger(circuit, exact, max_bond):
    sim = MPSSimulator(circuit.n_qubits, max_bond_dimension=max_bond)
    psi = sim.run(circuit).statevector()
    infidelity = 1.0 - abs(np.vdot(exact, psi)) ** 2 / np.vdot(psi, psi).real
    return infidelity, sim.truncation_stats.total_discarded_weight


@pytest.mark.parametrize("max_bond", [16, 24])
def test_where_the_cap_bites_both_streams(six_orbitals, max_bond):
    excitations, rotations, exact = six_orbitals
    infidelity, booked = _infidelity_and_ledger(excitations, exact, max_bond)
    reference, _ = _infidelity_and_ledger(rotations, exact, max_bond)
    assert booked >= 1e-4, "the cap never bit: the row is vacuous"
    assert infidelity <= 1.05 * reference
    assert infidelity <= 2.0 * booked + 1e-10


def test_d32_fits_the_symmetric_state(six_orbitals):
    """Its Schmidt rank is 29; the rotation stream (2.4e-5 off at this cap,
    not re-run here: four seconds for a number twenty million times the
    bound below) needs more for its mid-excitation states."""
    excitations, _, exact = six_orbitals
    infidelity, booked = _infidelity_and_ledger(excitations, exact, 32)
    assert infidelity <= 1e-10
    assert booked <= 1e-20


def test_adjoint_bra_stays_uncapped_where_the_ket_truncates(monkeypatch):
    """H4 chain at 1.0 A, D = 4: the bra H|psi> peaks at bond 16.

    Built uncapped, the MPS adjoint gradient is 0.67 (max-norm) from the
    statevector's; capping the bra at the ket's D moves it to 1.20.
    """
    job = Q2Chemistry.from_molecule(hydrogen_chain(4, 1.0))
    mo = job.mo_integrals
    ham = job.qubit_hamiltonian()
    circuit = UCCSDAnsatz(mo.n_orbitals, mo.n_electrons).circuit()
    theta = 0.05 * np.random.default_rng(0).standard_normal(
        circuit.n_parameters)
    # the staircases: a reference that shares no excitation code with MPS
    exact = EnergyEvaluator(ham, circuit.decomposed(), simulator="statevector")
    reference = exact.gradient_source("adjoint")(theta)

    bra_bonds = []
    apply = MPO.apply

    def spy(self, mps, **kwargs):
        bra, norm = apply(self, mps, **kwargs)
        bra_bonds.append(bra.max_bond())
        return bra, norm

    monkeypatch.setattr(MPO, "apply", spy)
    mps = EnergyEvaluator(ham, circuit, simulator="mps",
                          max_bond_dimension=4)
    gradient = mps.gradient_source("adjoint")(theta)
    assert bra_bonds == [16]
    assert np.max(np.abs(gradient - reference)) <= 0.75
