"""Property: ``MPS.apply_pauli_rotation`` is exp(-i a/2 P), and truncates less.

The rotation kernel applies cos(a/2) 1 - i sin(a/2) P as a bond-2 MPO and
compresses once per bond of the string's span.  Three independent
references pin it:

* the dense formula ``cos(a/2) psi - i sin(a/2) P psi`` on random states
  and random strings with identity gaps and Y factors (unbounded D: exact,
  canonical, unit-norm Schmidt vectors);
* the CNOT staircase of ``Gate.decompose()`` through the two-site path -
  the kernel this one replaced on the UCCSD path - on the same seeded
  stream at capped D: the rotation kernel must stay inside the
  discarded-weight fidelity bound and discard no more than the staircase;
* the staircase emitter the repo shipped before ``PR`` existed, rewritten
  here from its definition, against ``Circuit.decomposed()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.pauli import PauliTerm
from repro.simulators.mps import MPS
from repro.simulators.mps_circuit import apply_gate

from .support import given_seed, rng_for

N_QUBITS = 7


def random_string(rng: np.random.Generator, n: int = N_QUBITS,
                  min_weight: int = 2) -> list[tuple[int, str]]:
    """Random Pauli string: any support (gaps included), X/Y/Z factors."""
    weight = int(rng.integers(min_weight, n + 1))
    qubits = sorted(rng.choice(n, size=weight, replace=False))
    return [(int(q), "XYZ"[int(rng.integers(3))]) for q in qubits]


def dense_rotation(psi: np.ndarray, ops, angle: float, n: int) -> np.ndarray:
    """cos(a/2) psi - i sin(a/2) P psi with P as a dense matrix."""
    p = PauliTerm.from_ops(ops).matrix(n)
    return np.cos(angle / 2) * psi - 1j * np.sin(angle / 2) * (p @ psi)


def rotation_gate(ops, angle: float) -> Gate:
    return Gate("PR", tuple(q for q, _ in ops), angle=angle,
                pauli="".join(ch for _, ch in ops))


@given_seed(max_examples=25)
def test_matches_dense_formula_at_unbounded_d(seed: int) -> None:
    rng = rng_for(seed)
    mps = MPS.random_state(N_QUBITS, int(rng.integers(1, 9)), seed=seed)
    psi = mps.to_statevector()
    ops = random_string(rng)
    angle = float(rng.uniform(-np.pi, np.pi))
    mps.apply_pauli_rotation(ops, angle)
    out = mps.to_statevector()
    ref = dense_rotation(psi, ops, angle, N_QUBITS)
    assert abs(np.vdot(ref, out)) ** 2 >= 1.0 - 1e-12
    assert np.allclose(out, ref, atol=1e-12)      # the phase is right too
    assert mps.check_right_canonical()
    for bond, lam in enumerate(mps.lambdas):
        assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12
        if 0 < bond < N_QUBITS:                   # true Schmidt values
            exact = np.linalg.svd(out.reshape(2 ** bond, -1),
                                  compute_uv=False)
            assert np.allclose(exact[:lam.size], lam, atol=1e-10)
            assert np.all(exact[lam.size:] <= 1e-10)
    assert mps.stats.total_discarded_weight <= 1e-20


def _seeded_stream(rng: np.random.Generator, n_rotations: int = 8):
    """Entangling product-state preparation + a run of random rotations."""
    prep = [Gate("RY", (q,), angle=float(rng.uniform(-np.pi, np.pi)))
            for q in range(N_QUBITS)]
    rotations = [rotation_gate(random_string(rng),
                               float(rng.uniform(-np.pi, np.pi)))
                 for _ in range(n_rotations)]
    return prep + rotations


def _run(gates, max_bond: int | None) -> MPS:
    state = MPS(N_QUBITS, max_bond_dimension=max_bond)
    for gate in gates:
        apply_gate(state, gate)
    return state


@given_seed(max_examples=20)
def test_truncated_stream_stays_inside_the_fidelity_bound(seed: int) -> None:
    """|<exact|mps>|^2 >= 1 - 2 x discarded weight at D = 4 and 6."""
    gates = _seeded_stream(rng_for(seed))
    exact = _run(gates, None).to_statevector()
    for max_bond in (4, 6):
        state = _run(gates, max_bond)
        assert state.max_bond() <= max_bond
        approx = state.to_statevector()
        assert abs(np.linalg.norm(approx) - 1.0) <= 1e-8
        fidelity = abs(np.vdot(exact, approx)) ** 2
        discarded = state.stats.total_discarded_weight
        assert fidelity >= 1.0 - 2.0 * discarded - 1e-10, (max_bond, seed)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_bond", [4, 6])
def test_discards_no_more_than_the_staircase(seed: int,
                                             max_bond: int) -> None:
    """Same stream, same D: the staircase truncates its more entangled
    mid-ladder states, the rotation kernel only the rotated state.

    A tendency, not a theorem (2 of 240 seeded streams go the other way by
    a few percent; the median ratio is 2.2x), so the streams are pinned.
    """
    gates = _seeded_stream(rng_for(seed))
    staircase = [e for g in gates for e in g.decompose()]
    dw_direct = _run(gates, max_bond).stats.total_discarded_weight
    dw_ladder = _run(staircase, max_bond).stats.total_discarded_weight
    assert dw_ladder > 1e-6, "stream never truncated: the test is vacuous"
    assert dw_direct <= dw_ladder


@given_seed(max_examples=10)
def test_zero_angle_keeps_every_bond_at_rank_one(seed: int) -> None:
    rng = rng_for(seed)
    bits = "".join(str(int(b)) for b in rng.integers(0, 2, N_QUBITS))
    mps = MPS.from_bitstring(bits)
    for _ in range(3):
        mps.apply_pauli_rotation(random_string(rng), 0.0)
    assert mps.bond_dimensions() == [1] * (N_QUBITS - 1)
    assert abs(abs(mps.amplitude(bits)) - 1.0) <= 1e-12


@given_seed(max_examples=10)
def test_saturated_bonds_do_not_grow_past_the_register_rank(seed: int) -> None:
    """Stacking doubles a bond already at min(2^b, 2^(n-b)): the stacked
    tensors are rank deficient and the sweeps must shed the excess."""
    rng = rng_for(seed)
    n = 5
    mps = MPS.random_state(n, 2 ** n, seed=seed, cutoff=0.0)
    cap = [min(2 ** b, 2 ** (n - b)) for b in range(1, n)]
    assert mps.bond_dimensions() == cap            # saturated everywhere
    psi = mps.to_statevector()
    middle = [(q, "XYZ"[int(rng.integers(3))])
              for q in range(1, n - 1) if rng.random() < 0.5]
    ops = [(0, "Y")] + middle + [(n - 1, "X")]   # spans both edge bonds
    angle = float(rng.uniform(-np.pi, np.pi))
    mps.apply_pauli_rotation(ops, angle)
    assert mps.bond_dimensions() == cap
    assert np.allclose(mps.to_statevector(),
                       dense_rotation(psi, ops, angle, n), atol=1e-12)


# -- the decomposition is today's staircase -----------------------------------

_HALF_PI = 0.5 * 3.141592653589793


def reference_staircase(term: PauliTerm, param) -> list[Gate]:
    """The pre-``PR`` emitter of exp(i mult theta P), from its definition."""
    ops = term.ops()
    pre, post = [], []
    for q, ch in ops:
        if ch == "X":
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
        elif ch == "Y":
            pre.append(Gate("RX", (q,), angle=_HALF_PI))
            post.append(Gate("RX", (q,), angle=-_HALF_PI))
    qubits = [q for q, _ in ops]
    ladder = [Gate("CX", (a, b)) for a, b in zip(qubits[:-1], qubits[1:])]
    idx, mult = param
    rz = Gate("RZ", (qubits[-1],), param=(idx, -2.0 * mult))
    return pre + ladder + [rz] + ladder[::-1] + post[::-1]


@pytest.mark.parametrize("kwargs", [
    dict(n_spatial=2, n_electrons=2),
    dict(n_spatial=4, n_electrons=4),
    dict(n_spatial=3, n_electrons=2, mapping="bk"),
], ids=["h2", "4o4e", "bk"])
def test_uccsd_decomposed_is_the_staircase_circuit(kwargs) -> None:
    """Gate for gate one staircase per string, in ``Excitation.pauli_terms``
    order - also where a flip-mask group of them travels as one ``EX``
    gate (Jordan-Wigner), whose ``decompose()`` derives its strings from
    the ladder string alone."""
    ansatz = UCCSDAnsatz(**kwargs)
    expected = [Gate("X", (q,)) for q in ansatz._reference_qubits()]
    for exc in ansatz.excitations:
        for term, coeff in exc.pauli_terms:
            expected += reference_staircase(term, (exc.param_index, coeff))
    circuit = ansatz.circuit()
    composite = (
        {"PR": sum(len(e.pauli_terms) for e in ansatz.excitations)}
        if "mapping" in kwargs else
        {"EX": sum(len(e.mask_groups) for e in ansatz.excitations)})
    assert circuit.count_gates() == {
        "X": len(ansatz._reference_qubits()), **composite}
    assert circuit.decomposed().gates == expected
    # binding and decomposing commute, angle for angle
    theta = rng_for(5).standard_normal(ansatz.n_parameters)
    assert (circuit.bind(theta).decomposed().gates
            == [g.bound(theta) for g in expected])
