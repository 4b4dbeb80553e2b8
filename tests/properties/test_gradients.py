"""Property: every gradient source computes the same derivative.

The adjoint engine (one forward + one backward sweep, all P partials),
gate-wise parameter shift (exact for the involutory generators this
gate set uses, 2 energy evaluations per parametric gate) and central
finite differences are three independent derivations of d<H>/dtheta;
they must agree on any circuit, any Hamiltonian, any parameter point -
on the dense statevector oracle and on the MPS backend alike.

At truncated bond dimension the MPS adjoint differs from the exact
oracle only through the discarded Schmidt weight, and the error is
checked against the Eq. 11-style budget ``C * ||H||_1 * sqrt(dw)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.hea import brick_ansatz
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators import mps_circuit
from repro.simulators.mps import MPS
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.gradients import (
    GradientSource,
    adjoint_gradient,
    finite_diff_gradient,
    make_gradient,
    param_shift_gradient,
)

from .support import given_seed, rng_for

#: adjoint vs gate-wise parameter shift: both analytic, agreement is
#: limited only by round-off accumulated over the sweeps
ATOL_ANALYTIC = 1e-8

#: central finite differences at step 1e-6: truncation error ~ step^2
#: times the third derivative, plus subtractive cancellation
ATOL_FD = 1e-6


def random_observable(rng: np.random.Generator, n: int,
                      n_terms: int = 8) -> QubitOperator:
    """Random hermitian operator: real weights on random Pauli strings."""
    op = QubitOperator.identity(float(rng.standard_normal()))
    for _ in range(n_terms):
        term = PauliTerm(x=int(rng.integers(0, 2**n)),
                         z=int(rng.integers(0, 2**n)))
        op = op + QubitOperator.from_term(term, float(rng.standard_normal()))
    return op


def random_parametric_circuit(rng: np.random.Generator, n: int,
                              n_params: int,
                              n_gates: int = 14) -> Circuit:
    """Random parametric circuit exercising the full generator set.

    Mixes parametric RX/RY/RZ/RZZ, ``PR`` Pauli rotations over random
    strings - identity gaps and Y factors included - and ``EX`` excitations
    over random ladder strings (with *shared*
    parameter indices and non-unit multipliers - the UCCSD binding pattern
    that makes naive per-parameter shift rules inexact), frozen-angle
    rotations and CX entanglers.
    """
    c = Circuit(n_qubits=n, name="random_parametric")
    c.n_parameters = n_params
    rotations = ("RX", "RY", "RZ", "RZZ", "PR", "EX")
    for _ in range(n_gates):
        kind = int(rng.integers(0, 7))
        if kind == 6:
            q = int(rng.integers(0, n - 1))
            c.append(Gate("CX", (q, q + 1)))
            continue
        name = rotations[kind]
        pauli = None
        if name in ("PR", "EX"):
            weight = int(rng.integers(1, n + 1))
            qubits = tuple(sorted(
                int(q) for q in rng.choice(n, size=weight, replace=False)))
            alphabet = "XYZ" if name == "PR" else "+-Z"
            pauli = "".join(alphabet[int(rng.integers(3))] for _ in qubits)
            if name == "EX" and set(pauli) == {"Z"}:
                pauli = "+" + pauli[1:]
        elif name == "RZZ":
            q = int(rng.integers(0, n - 1))
            qubits = (q, q + 1)
        else:
            qubits = (int(rng.integers(0, n)),)
        if rng.random() < 0.25:
            c.append(Gate(name, qubits, pauli=pauli,
                          angle=float(rng.uniform(-np.pi, np.pi))))
        else:
            idx = int(rng.integers(0, n_params))
            mult = float(rng.choice([-2.0, -1.0, 0.5, 1.0]))
            c.append(Gate(name, qubits, pauli=pauli, param=(idx, mult)))
    return c


def _three_way_parity(evaluator, theta) -> None:
    """adjoint == parameter shift (1e-8) == finite differences (1e-6)."""
    g_adj = adjoint_gradient(evaluator, theta)
    g_ps = param_shift_gradient(evaluator, theta)
    g_fd = finite_diff_gradient(evaluator.energy, theta,
                                n_parameters=theta.size)
    assert np.abs(g_adj - g_ps).max() <= ATOL_ANALYTIC
    assert np.abs(g_adj - g_fd).max() <= ATOL_FD


@given_seed(max_examples=15)
def test_random_circuit_three_way_parity_statevector(seed: int) -> None:
    """All three sources agree on random circuits (dense oracle)."""
    rng = rng_for(seed)
    n = 4
    circuit = random_parametric_circuit(rng, n, n_params=3)
    op = random_observable(rng, n)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_parameters)
    _three_way_parity(EnergyEvaluator(op, circuit,
                                      simulator="statevector"), theta)


@given_seed(max_examples=10)
def test_random_circuit_adjoint_mps_matches_oracle(seed: int) -> None:
    """The two-state MPS sweep equals the dense adjoint untruncated."""
    rng = rng_for(seed)
    n = 4
    circuit = random_parametric_circuit(rng, n, n_params=3)
    op = random_observable(rng, n)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_parameters)
    g_sv = adjoint_gradient(
        EnergyEvaluator(op, circuit, simulator="statevector"), theta)
    g_mps = adjoint_gradient(
        EnergyEvaluator(op, circuit, simulator="mps"), theta)
    assert np.abs(g_sv - g_mps).max() <= ATOL_ANALYTIC


@given_seed(max_examples=8)
def test_pauli_rotation_circuit_three_way_parity_mps(seed: int) -> None:
    """adjoint == parameter shift == central FD through the MPS rotation
    kernel (forward, PR(-angle) undo on the bra, gapped-string overlap),
    and the gradient equals the dense oracle's on the decomposed stream."""
    rng = rng_for(seed)
    n = 5
    circuit = random_parametric_circuit(rng, n, n_params=3, n_gates=10)
    # whatever the draw, one gapped string with a Y factor is in
    circuit.append(Gate("PR", (0, 2, 4), pauli="XZY", param=(0, 0.5)))
    op = random_observable(rng, n)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_parameters)
    evaluator = EnergyEvaluator(op, circuit, simulator="mps")
    _three_way_parity(evaluator, theta)
    g_sv = adjoint_gradient(
        EnergyEvaluator(op, circuit, simulator="statevector"), theta)
    assert np.abs(adjoint_gradient(evaluator, theta) - g_sv).max() \
        <= ATOL_ANALYTIC


@pytest.mark.parametrize("simulator", ["statevector", "mps"])
def test_h2_uccsd_parity(h2, simulator) -> None:
    """The molecular acceptance case: H2/UCCSD on both backends."""
    rng = rng_for(20260808)
    circuit = h2.uccsd_circuit
    theta = 0.2 * rng.standard_normal(circuit.n_parameters)
    _three_way_parity(
        EnergyEvaluator(h2.qubit_hamiltonian, circuit,
                        simulator=simulator), theta)


@pytest.mark.parametrize("simulator", ["statevector", "mps"])
def test_h2_hea_parity(h2, simulator) -> None:
    """Hardware-efficient ansatz (Fig. 2c brick circuit) on H2."""
    rng = rng_for(4)
    circuit = brick_ansatz(4, window=3)
    theta = rng.uniform(-np.pi, np.pi, circuit.n_parameters)
    _three_way_parity(
        EnergyEvaluator(h2.qubit_hamiltonian, circuit,
                        simulator=simulator), theta)


def test_lih_uccsd_adjoint_oracle(lih) -> None:
    """LiH/UCCSD (12 qubits, 736 parametric gates): the MPS adjoint
    equals the dense oracle, and the oracle is pinned against parameter
    shift / finite differences on spot components (the full shift sweep
    would cost 1472 LiH energy evaluations - the point of the adjoint
    engine)."""
    circuit = lih.uccsd_circuit
    ham = lih.qubit_hamiltonian
    theta = np.zeros(circuit.n_parameters)
    ev_sv = EnergyEvaluator(ham, circuit, simulator="statevector")
    g_sv = adjoint_gradient(ev_sv, theta)
    g_mps = adjoint_gradient(
        EnergyEvaluator(ham, circuit, simulator="mps"), theta)
    assert np.abs(g_sv - g_mps).max() <= ATOL_ANALYTIC
    assert np.abs(g_sv).max() > 1e-3  # the HF point has real gradients
    # spot parity on the parameter with the fewest bound rotations (the
    # cheapest exact shift: an excitation is shifted rotation by
    # rotation) plus component 0
    counts: dict[int, int] = {}
    for g in circuit.gates:
        if g.param is not None:
            counts[g.param[0]] = counts.get(g.param[0], 0) \
                + (len(g.decompose()) if g.name == "EX" else 1)
    cheap = min(counts, key=lambda k: (counts[k], k))
    g_ps = param_shift_gradient(ev_sv, theta, parameters=[cheap])
    assert abs(g_ps[cheap] - g_sv[cheap]) <= ATOL_ANALYTIC
    g_fd = finite_diff_gradient(ev_sv.energy, theta,
                                parameters=[cheap, 0],
                                n_parameters=circuit.n_parameters)
    assert abs(g_fd[cheap] - g_sv[cheap]) <= ATOL_FD
    assert abs(g_fd[0] - g_sv[0]) <= ATOL_FD


def test_truncated_bond_dimension_error_bounded_by_discarded_weight():
    """At finite D the adjoint error follows the truncation budget.

    The gradient of the truncated state differs from the exact oracle;
    the deviation must be controlled by the discarded Schmidt weight of
    the forward evolution (``C * ||H||_1 * sqrt(dw)``), and vanish when
    D reaches the exact rank.
    """
    rng = rng_for(3)
    n = 6
    circuit = brick_ansatz(n, window=4, sweeps=2)
    theta = rng.uniform(-1.5, 1.5, circuit.n_parameters)
    op = random_observable(rng, n, n_terms=10)
    norm1 = sum(abs(c) for _, c in op)
    g_exact = adjoint_gradient(
        EnergyEvaluator(op, circuit, simulator="statevector"), theta)
    saw_truncation = False
    for max_bond in (3, 4, 6, 8):
        evaluator = EnergyEvaluator(op, circuit, simulator="mps",
                                    max_bond_dimension=max_bond)
        g = adjoint_gradient(evaluator, theta)
        # replay the forward gate stream to read the discarded weight
        state = MPS(n, max_bond_dimension=max_bond,
                    cutoff=evaluator.cutoff)
        for gate in circuit.bind(theta).gates:
            if gate.n_qubits == 1:
                state.apply_one_qubit(gate.matrix(), gate.qubits[0])
            else:
                state.apply_two_qubit(gate.matrix(), *gate.qubits)
        dw = state.stats.total_discarded_weight
        err = np.abs(g - g_exact).max()
        assert err <= 20.0 * norm1 * np.sqrt(dw) + 1e-8, \
            (max_bond, dw, err)
        saw_truncation = saw_truncation or dw > 1e-6
        if dw == 0.0:  # window-4 bricks have exact rank 8
            assert err <= ATOL_ANALYTIC
    assert saw_truncation, "test never exercised a truncated evolution"


def pauli_rotation_ansatz(rng: np.random.Generator, n: int, n_params: int,
                          n_gates: int = 18) -> Circuit:
    """Random circuit whose every parametric gate is a ``PR`` (the UCCSD
    shape): the state ``energy()`` prepares is the one the adjoint sweep
    unwinds.  Fixed-angle rotations and CX entanglers in between."""
    c = Circuit(n_qubits=n, name="pauli_rotations")
    c.n_parameters = n_params
    for q in range(0, n, 2):
        c.append(Gate("X", (q,)))
    for _ in range(n_gates):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            q = int(rng.integers(0, n - 1))
            c.append(Gate("CX", (q, q + 1)))
        elif kind == 1:
            c.append(Gate("RY", (int(rng.integers(0, n)),),
                          angle=float(rng.uniform(-np.pi, np.pi))))
        else:
            weight = int(rng.integers(2, n + 1))
            qubits = tuple(sorted(
                int(q) for q in rng.choice(n, size=weight, replace=False)))
            pauli = "".join("XYZ"[int(rng.integers(3))] for _ in qubits)
            c.append(Gate("PR", qubits, pauli=pauli,
                          param=(int(rng.integers(0, n_params)),
                                 float(rng.choice([-1.0, 0.5, 1.0])))))
    return c


def _forward_pass(evaluator, theta):
    """(final MPS, trail) of the pass the adjoint gradient unwinds."""
    prepared, _ = evaluator.prepare(theta)
    return prepared.sim.state, prepared.trail


@pytest.mark.parametrize("ansatz", ["pauli_rotations", "bricks"])
def test_trail_bound_spills_to_undo_without_moving_the_gradient(
        monkeypatch, ansatz):
    """The forward trail is a bounded suffix; older gates are un-evolved.

    With no trail at all (every gate undone on the ket - what the sweep
    did before the trail existed), with the whole trail and with a bound
    that drops the first part of the stream, the gradient is the same to
    1e-10 where nothing truncates, and inside the discarded-weight budget
    of the test above at D = 4/6/8.  What the trail keeps alive never
    exceeds the bound, each replaced tensor counted once.
    """
    rng = rng_for(7)
    n = 6
    if ansatz == "bricks":
        circuit = brick_ansatz(n, window=4, sweeps=2)
    else:
        circuit = pauli_rotation_ansatz(rng, n, n_params=4)
    theta = rng.uniform(-1.5, 1.5, circuit.n_parameters)
    op = random_observable(rng, n, n_terms=10)
    norm1 = sum(abs(c) for _, c in op)
    g_exact = adjoint_gradient(
        EnergyEvaluator(op, circuit, simulator="statevector"), theta)
    unbounded = mps_circuit.TRAIL_MAX_BYTES
    saw_truncation = False
    for max_bond in (None, 4, 6, 8):
        def evaluator():
            return EnergyEvaluator(op, circuit, simulator="mps",
                                   max_bond_dimension=max_bond)

        state, trail = _forward_pass(evaluator(), theta)
        assert all(entry is not None for entry in trail.saved)
        dw = state.stats.total_discarded_weight
        saw_truncation = saw_truncation or dw > 1e-6
        grads = []
        for bound in (unbounded, 0, trail.nbytes // 2, trail.nbytes // 5):
            monkeypatch.setattr(mps_circuit, "TRAIL_MAX_BYTES", bound)
            _, kept = _forward_pass(evaluator(), theta)
            dropped = sum(entry is None for entry in kept.saved)
            if bound == unbounded:
                assert dropped == 0
            elif bound == 0:
                assert dropped == len(kept.gates)
            else:
                assert 0 < dropped < len(kept.gates)   # splits mid-circuit
            held = {id(t): t.nbytes for entry in kept.saved
                    if entry is not None for t in entry[1]}
            assert sum(held.values()) == kept.nbytes <= bound
            grads.append(adjoint_gradient(evaluator(), theta))
        monkeypatch.setattr(mps_circuit, "TRAIL_MAX_BYTES", unbounded)
        for g in grads:
            err = np.abs(g - g_exact).max()
            assert err <= 20.0 * norm1 * np.sqrt(dw) + 1e-8, (max_bond, err)
            if max_bond is None or dw == 0.0:
                assert np.abs(g - grads[0]).max() <= 1e-10
    assert saw_truncation, "test never exercised a truncated evolution"


class TestGradientSourceDispatch:
    """make_gradient: normalization, capability gating, accounting."""

    def _evaluator(self, h2, simulator="statevector"):
        return EnergyEvaluator(h2.qubit_hamiltonian, h2.uccsd_circuit,
                               simulator=simulator)

    def test_source_name_normalization(self, h2):
        src = make_gradient(self._evaluator(h2), "Param-Shift")
        assert isinstance(src, GradientSource)
        assert src.source == "param_shift"

    def test_unknown_source_rejected(self, h2):
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            make_gradient(self._evaluator(h2), "spsa")

    def test_adjoint_requires_backend_capability(self, h2):
        from repro.backends import BACKENDS
        from repro.common.errors import ValidationError

        _, _, adjoint = BACKENDS["density_matrix"]
        assert not adjoint
        evaluator = self._evaluator(h2, simulator="density_matrix")
        theta = np.zeros(h2.uccsd_circuit.n_parameters)
        with pytest.raises(ValidationError, match="no adjoint gradient"):
            make_gradient(evaluator, "adjoint")
        # a direct call goes through the same check
        with pytest.raises(ValidationError, match="no adjoint gradient"):
            adjoint_gradient(evaluator, theta)
        # the universal fallbacks still work on that backend
        g_ps = make_gradient(evaluator, "param_shift")(theta)
        g_fd = make_gradient(evaluator, "finite_diff")(theta)
        assert np.abs(g_ps - g_fd).max() <= ATOL_FD

    def test_sources_agree_through_dispatch(self, h2):
        rng = rng_for(11)
        theta = 0.1 * rng.standard_normal(h2.uccsd_circuit.n_parameters)
        evaluator = self._evaluator(h2, simulator="mps")
        grads = {name: make_gradient(evaluator, name)(theta)
                 for name in ("adjoint", "param_shift", "finite_diff")}
        assert np.abs(grads["adjoint"]
                      - grads["param_shift"]).max() <= ATOL_ANALYTIC
        assert np.abs(grads["adjoint"]
                      - grads["finite_diff"]).max() <= ATOL_FD

    def test_evaluation_accounting(self, h2):
        evaluator = self._evaluator(h2)
        theta = np.zeros(h2.uccsd_circuit.n_parameters)
        src = make_gradient(evaluator, "adjoint")
        src(theta)
        src(theta)
        assert src.n_evaluations == 2
