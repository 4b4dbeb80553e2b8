"""Property: the ``EX`` gate is exp(a (T - T+)), on every path that reads it.

One gate, four readers, each checked against the others:

* ``Gate.matrix()`` - the closed form 1 + sin(a) kappa + (1 - cos(a)) kappa^2;
* ``Gate.decompose()`` - the 2^(k-1) commuting ``PR`` rotations derived from
  the ladder string (and, through ``Circuit.decomposed()``, their CNOT
  staircases, the stream every dense backend runs);
* ``MPS.apply_excitation`` - the five-product-operator sweep;
* the adjoint gradient - two overlaps <phi|T|ket> - <phi|T+|ket> per gate.

Plus what the gate buys: a UCCSD pass that never leaves the
particle-number sector, and the invariants a right-canonical MPS must keep
through every path that mutates it (B B+ = 1 per site, unit-norm Schmidt
vectors: the TeNPy ``SimpleMPS`` invariants).
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import LADDER_MATRICES, Gate
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators.mps import MPS
from repro.simulators.mps_circuit import ForwardTrail, apply_gate, evolve
from repro.simulators.statevector import StatevectorSimulator
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.gradients import (
    adjoint_gradient,
    finite_diff_gradient,
    param_shift_gradient,
)

from .support import given_seed, rng_for
from .test_pauli_rotation import reference_staircase

N_QUBITS = 7


def random_ladder(rng: np.random.Generator, n: int = N_QUBITS,
                  ) -> tuple[tuple[int, ...], str]:
    """A random ``EX`` string: 1-4 ladder factors (singles and doubles
    among them) anywhere on the chain, each gap between them a Z string,
    identities or a mix, spans touching either chain end or both."""
    k = int(rng.integers(1, 5))
    sites = sorted(int(q) for q in rng.choice(n, size=k, replace=False))
    fill = int(rng.integers(3))       # 0: Z strings, 1: gaps, 2: mixed
    qubits, ladder = [], []
    for q in range(sites[0], sites[-1] + 1):
        if q in sites:
            qubits.append(q)
            ladder.append("+-"[int(rng.integers(2))])
        elif fill == 0 or (fill == 2 and rng.random() < 0.5):
            qubits.append(q)
            ladder.append("Z")
    return tuple(qubits), "".join(ladder)


def embedded(gate: Gate, n: int) -> np.ndarray:
    """A gate's unitary on the full register, from its definition."""
    string = dict(zip(gate.qubits, gate.pauli))
    t = reduce(np.kron, [LADDER_MATRICES[string[q]] if q in string
                         else np.eye(2) for q in range(n)])
    kappa = t - t.conj().T
    a = gate.angle
    return (np.eye(2 ** n) + np.sin(a) * kappa
            + (1.0 - np.cos(a)) * (kappa @ kappa))


def assert_canonical(mps: MPS, sites=None) -> None:
    """B B+ = 1 on ``sites`` (default: all) and unit-norm Schmidt vectors."""
    for q in range(mps.n_qubits) if sites is None else sites:
        b = mps.tensors[q]
        gram = np.tensordot(b, b.conj(), axes=((1, 2), (1, 2)))
        assert np.allclose(gram, np.eye(b.shape[0]), atol=1e-10), q
    for lam in mps.lambdas:
        assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12


# -- the gate -----------------------------------------------------------------


@given_seed(max_examples=25)
def test_matrix_is_the_exponential_and_the_product_of_its_rotations(
        seed: int) -> None:
    from scipy.linalg import expm

    rng = rng_for(seed)
    qubits, ladder = random_ladder(rng, n=5)
    angle = float(rng.uniform(-np.pi, np.pi))
    gate = Gate("EX", tuple(range(len(ladder))), pauli=ladder, angle=angle)
    u = gate.matrix()
    t = reduce(np.kron, [LADDER_MATRICES[ch] for ch in ladder])
    assert np.allclose(u, expm(angle * (t - t.conj().T)), atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)
    rotations = gate.decompose()
    n_ladder = len(ladder) - ladder.count("Z")
    assert len(rotations) == 2 ** (n_ladder - 1)
    assert {r.name for r in rotations} == {"PR"}
    assert np.allclose(reduce(np.matmul, [r.matrix() for r in rotations]),
                       u, atol=1e-12)
    # commuting factors: any order
    assert np.allclose(
        reduce(np.matmul, [r.matrix() for r in rotations[::-1]]), u,
        atol=1e-12)
    undo = Gate("EX", gate.qubits, pauli=ladder, angle=-angle).matrix()
    assert np.allclose(undo @ u, np.eye(u.shape[0]), atol=1e-12)


# -- the sweep ----------------------------------------------------------------


@given_seed(max_examples=25)
def test_sweep_matches_the_matrix_at_unbounded_d(seed: int) -> None:
    rng = rng_for(seed)
    mps = MPS.random_state(N_QUBITS, int(rng.integers(1, 9)), seed=seed)
    psi = mps.to_statevector()
    qubits, ladder = random_ladder(rng)
    gate = Gate("EX", qubits, pauli=ladder,
                angle=float(rng.uniform(-np.pi, np.pi)))
    mps.apply_excitation(zip(qubits, ladder), gate.angle)
    out = mps.to_statevector()
    assert np.allclose(out, embedded(gate, N_QUBITS) @ psi, atol=1e-12)
    assert mps.check_right_canonical()
    assert_canonical(mps)
    assert mps.stats.total_discarded_weight <= 1e-20
    for bond in range(1, N_QUBITS):               # true Schmidt values
        exact = np.linalg.svd(out.reshape(2 ** bond, -1), compute_uv=False)
        lam = mps.lambdas[bond]
        assert np.allclose(exact[:lam.size], lam, atol=1e-10)
        assert np.all(exact[lam.size:] <= 1e-10)
    # EX(-a) EX(a) = 1 on the MPS as well
    mps.apply_excitation(zip(qubits, ladder), -gate.angle)
    assert np.allclose(mps.to_statevector(), psi, atol=1e-12)


@given_seed(max_examples=20)
def test_sweep_equals_its_rotations_through_the_same_kernel(
        seed: int) -> None:
    """w = 5 against w = 2: one shared sweep, two operator sums."""
    rng = rng_for(seed)
    qubits, ladder = random_ladder(rng)
    gate = Gate("EX", qubits, pauli=ladder,
                angle=float(rng.uniform(-np.pi, np.pi)))
    whole = MPS.random_state(N_QUBITS, 4, seed=seed)
    parts = whole.copy()
    apply_gate(whole, gate)
    for rotation in gate.decompose():
        apply_gate(parts, rotation)
    assert np.allclose(whole.to_statevector(), parts.to_statevector(),
                       atol=1e-12)


@given_seed(max_examples=20)
def test_truncating_sweep_keeps_what_truncation_can_keep(seed: int) -> None:
    """Unit norm, unit-norm Schmidt vectors, the cap, the fidelity bound,
    and B B+ = 1 wherever no bond to the right of the site was cut.

    Not on the others: the Hastings update B_q = M V+ (Eq. 10) of a
    truncated bond is right-canonical only up to (discarded singular value
    / smallest Schmidt value on its left)^2, in this sweep as in the
    two-site update - the price of never dividing by a Schmidt value.
    """
    rng = rng_for(seed)
    cap = 3     # the state sits at the cap: whatever the gate adds is cut
    mps = MPS.random_state(N_QUBITS, cap, seed=seed, max_bond_dimension=cap)
    before = mps.to_statevector()
    k = int(rng.integers(2, 5))
    sites = sorted(int(q) for q in rng.choice(N_QUBITS, size=k,
                                              replace=False))
    ops = [(q, "+-"[int(rng.integers(2))]) for q in sites]
    gate = Gate("EX", tuple(sites), pauli="".join(ch for _, ch in ops),
                angle=float(rng.uniform(0.3, 1.2)))
    mps.apply_excitation(ops, gate.angle)
    assert mps.max_bond() <= cap
    out = mps.to_statevector()
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-8
    cut = mps.stats.per_bond_discarded_weight
    clean = [q for q in range(N_QUBITS)
             if not (sites[0] <= q < sites[-1] and cut.get(q + 1, 0.0))]
    assert_canonical(mps, sites=clean)
    fidelity = abs(np.vdot(embedded(gate, N_QUBITS) @ before, out)) ** 2
    assert fidelity >= 1.0 - 2.0 * mps.stats.total_discarded_weight - 1e-10


@given_seed(max_examples=15)
def test_rewind_restores_the_state_before_each_gate(seed: int) -> None:
    rng = rng_for(seed)
    state = MPS.random_state(N_QUBITS, 3, seed=seed)
    gates = []
    for _ in range(4):
        qubits, ladder = random_ladder(rng)
        gates.append(Gate("EX", qubits, pauli=ladder,
                          angle=float(rng.uniform(-np.pi, np.pi))))
    before = []
    trail = ForwardTrail()
    for gate in gates:
        before.append(state.to_statevector())
        evolve(state, [gate], trail)
    for psi, entry in zip(reversed(before), reversed(trail.saved)):
        trail.rewind(state, entry)
        assert np.allclose(state.to_statevector(), psi, atol=1e-12)
        assert state.check_right_canonical()
        assert_canonical(state)


def test_one_site_ladder_is_a_single_qubit_gate() -> None:
    mps = MPS.random_state(3, 2, seed=4)
    psi = mps.to_statevector()
    gate = Gate("EX", (1,), pauli="+", angle=0.7)
    mps.apply_excitation([(1, "+")], 0.7)
    assert np.allclose(mps.to_statevector(), embedded(gate, 3) @ psi,
                       atol=1e-12)
    assert mps.bond_dimensions() == [2, 2]


# -- UCCSD: same unitary, particle number, gradients --------------------------

SYSTEMS = {"4o2e": (4, 2), "5o2e": (5, 2), "4o4e": (4, 4), "6o4e": (6, 4)}


def parent_gate_list(ansatz: UCCSDAnsatz, theta: np.ndarray) -> Circuit:
    """The circuit before ``EX``: the reference, then one CNOT staircase
    per string, in ``Excitation.pauli_terms`` order."""
    gates = [Gate("X", (q,)) for q in ansatz._reference_qubits()]
    for exc in ansatz.excitations:
        for term, coeff in exc.pauli_terms:
            gates += [g.bound(theta) for g in
                      reference_staircase(term, (exc.param_index, coeff))]
    return Circuit(ansatz.n_qubits, gates)


@pytest.mark.parametrize("system", SYSTEMS)
def test_uccsd_is_the_unitary_it_was_per_pauli_string(system: str) -> None:
    ansatz = UCCSDAnsatz(*SYSTEMS[system])
    theta = rng_for(17).standard_normal(ansatz.n_parameters)
    circuit = ansatz.circuit()
    assert set(circuit.count_gates()) == {"X", "EX"}
    state = MPS(ansatz.n_qubits)
    evolve(state, circuit.bind(theta).gates)
    exact = StatevectorSimulator(ansatz.n_qubits).run(
        parent_gate_list(ansatz, theta)).statevector()
    assert abs(np.vdot(exact, state.to_statevector())) ** 2 >= 1.0 - 1e-10
    assert np.allclose(state.to_statevector(), exact, atol=1e-10)
    assert_canonical(state)


def _number_operator(n: int) -> QubitOperator:
    op = QubitOperator.identity(0.5 * n)
    for q in range(n):
        op = op + QubitOperator.from_term(PauliTerm.from_ops([(q, "Z")]),
                                          -0.5)
    return op


def test_particle_number_is_conserved_after_every_gate() -> None:
    """exp(a kappa) commutes with N; one Pauli rotation of its eight does
    not, which is why the rotation stream's intermediate states (and its
    un-evolved bra) need the larger bonds.  Unbounded D only: plain SVD
    truncation splits degenerate multiplets and conserves <N> in neither
    stream."""
    from repro.simulators.mps_measure import MPSMeasurementEngine

    ansatz = UCCSDAnsatz(4, 4)
    theta = 0.3 * rng_for(3).standard_normal(ansatz.n_parameters)
    number = _number_operator(ansatz.n_qubits)
    engine = MPSMeasurementEngine()
    bound = ansatz.circuit().bind(theta)

    def worst_deviation(gates) -> float:
        state = MPS(ansatz.n_qubits)
        worst = 0.0
        for gate in gates:
            apply_gate(state, gate)
            if gate.name == "X":      # still preparing the reference
                continue
            n = engine.expectation_per_term(state, number)
            worst = max(worst, abs(n - ansatz.n_electrons))
        return worst

    assert worst_deviation(bound.gates) <= 1e-12
    rotations = [p for g in bound.gates for p in g.decompose()]
    assert worst_deviation(rotations) >= 1e-2


@pytest.mark.parametrize("simulator", ["mps", "statevector"])
@pytest.mark.parametrize("system", ["h2", "4o4e"])
def test_three_gradient_sources_agree_on_uccsd(system: str, simulator: str,
                                               h2) -> None:
    rng = rng_for(23)
    if system == "h2":
        hamiltonian, circuit = h2.qubit_hamiltonian, h2.uccsd_circuit
    else:
        circuit = UCCSDAnsatz(4, 4).circuit()
        hamiltonian = QubitOperator.identity(0.3)
        for _ in range(12):
            term = PauliTerm(x=int(rng.integers(0, 2 ** 8)),
                             z=int(rng.integers(0, 2 ** 8)))
            hamiltonian = hamiltonian + QubitOperator.from_term(
                term, float(rng.standard_normal()))
    theta = 0.2 * rng.standard_normal(circuit.n_parameters)
    evaluator = EnergyEvaluator(hamiltonian, circuit, simulator=simulator)
    g_adj = adjoint_gradient(evaluator, theta)
    # the 4o4e shift sweep is 2 x 176 evaluations: spot-check one double
    # (one ladder, eight rotations; H2 covers the singles)
    picked = None if system == "h2" else [4]
    g_ps = param_shift_gradient(evaluator, theta, parameters=picked)
    g_fd = finite_diff_gradient(evaluator.energy, theta,
                                n_parameters=theta.size, parameters=picked)
    sel = slice(None) if picked is None else picked
    assert np.abs(g_adj[sel] - g_ps[sel]).max() <= 1e-8
    assert np.abs(g_adj[sel] - g_fd[sel]).max() <= 1e-6
    assert np.abs(g_adj).max() >= 1e-3            # not a comparison of zeros


def test_param_shift_expands_only_the_excitation_it_shifts(
        h2, monkeypatch) -> None:
    """Every other excitation reaches the simulator whole, as in
    ``energy()``: on a truncating MPS the rotation stream is a different
    function of theta (its mid-excitation states leave the N-sector and
    truncate where the excitation stream does not)."""
    evaluator = EnergyEvaluator(h2.qubit_hamiltonian, h2.uccsd_circuit,
                                simulator="mps", max_bond_dimension=2)
    seen = []
    run = evaluator.energy_of_circuit
    monkeypatch.setattr(
        evaluator, "energy_of_circuit",
        lambda circuit: (seen.append(circuit.count_gates()), run(circuit))[1])
    param_shift_gradient(evaluator, np.array([0.03, -0.05]))
    # two singles of two rotations, one double of eight; +-pi/2 each
    assert seen == ([{"X": 2, "EX": 2, "PR": 2}] * 8
                    + [{"X": 2, "EX": 2, "PR": 8}] * 16)


@pytest.mark.parametrize("kwargs", [
    dict(n_spatial=3, n_electrons=2, mapping="bk"),
], ids=["bk"])
def test_groups_that_are_no_ladder_keep_their_rotations(kwargs) -> None:
    """Emission is decided per flip-mask group, from the strings: two
    ladder products per mask under Bravyi-Kitaev."""
    ansatz = UCCSDAnsatz(**kwargs)
    circuit = ansatz.circuit()
    counts = circuit.count_gates()
    assert counts.get("PR", 0) > 0
    assert "EX" not in counts
    theta = rng_for(29).standard_normal(ansatz.n_parameters)
    state = MPS(ansatz.n_qubits)
    evolve(state, circuit.bind(theta).gates)
    exact = StatevectorSimulator(ansatz.n_qubits).run(
        parent_gate_list(ansatz, theta)).statevector()
    assert np.allclose(state.to_statevector(), exact, atol=1e-10)
