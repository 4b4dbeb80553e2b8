"""Property: the one-pass per-string hooks equal the per-term definition.

``term_expectations(terms)`` is the one measurement method every built-in
state holder adds for RDM measurement: a shared-environment sweep on MPS
(exact and truncated), one gather + sign-matrix product per flip mask
on the dense backends.  For any strings and any state it must return what
measuring the strings one at a time returns, and the RDMs assembled from it
must equal the ones assembled from the per-term fallback.
"""

from __future__ import annotations

import numpy as np

from repro.backends import resolve_backend
from repro.circuits.hea import random_brick_circuit
from repro.operators.pauli import PauliTerm
from repro.vqe.rdm import measure_rdms, per_term_expectations

from .support import (
    ExpectationOnly,
    given_seed,
    random_statevector,
    rng_for,
)

N_QUBITS = 6

BACKENDS = (("statevector", {}), ("density_matrix", {}), ("mps", {}),
            ("mps", {"max_bond_dimension": 4}),
            ("mps", {"max_bond_dimension": 2}))


def random_terms(rng: np.random.Generator, n_terms: int = 24) -> list:
    """Distinct non-identity strings, flip masks repeated on purpose."""
    masks = rng.integers(0, 2**N_QUBITS, size=4)
    terms = {PauliTerm(x=int(rng.choice(masks)),
                       z=int(rng.integers(0, 2**N_QUBITS)))
             for _ in range(n_terms)}
    return sorted(terms - {PauliTerm(0, 0)}, key=lambda t: (t.x, t.z))


@given_seed(max_examples=15)
def test_hooks_equal_per_term_values(seed: int) -> None:
    rng = rng_for(seed)
    terms = random_terms(rng)
    circuit = random_brick_circuit(N_QUBITS, 4, seed=seed)
    for backend, options in BACKENDS:
        sim = resolve_backend(backend, N_QUBITS, **options).run(circuit)
        got = sim.term_expectations(terms)
        assert got.dtype == float
        assert np.abs(got - per_term_expectations(sim, terms)).max() <= 1e-12


@given_seed(max_examples=10)
def test_values_come_back_in_the_order_asked(seed: int) -> None:
    """The MPS plan store's key ignores term order: whichever order (or
    unit-coefficient operator) planned a set of strings first must not
    decide the order later calls get their values in."""
    rng = rng_for(seed)
    terms = random_terms(rng)
    shuffled = [terms[i] for i in rng.permutation(len(terms))]
    circuit = random_brick_circuit(N_QUBITS, 4, seed=seed)
    for backend, options in BACKENDS:
        sim = resolve_backend(backend, N_QUBITS, **options).run(circuit)
        first = sim.term_expectations(shuffled)
        second = sim.term_expectations(terms)
        reordered = np.array([second[terms.index(t)] for t in shuffled])
        assert np.abs(first - reordered).max() <= 1e-14
        assert np.abs(second - per_term_expectations(sim, terms)).max() \
            <= 1e-12


@given_seed(max_examples=10)
def test_mixed_state_values_are_traces(seed: int) -> None:
    """tr(rho P) on a rank-2 mixture, against dense matrices."""
    rng = rng_for(seed)
    terms = random_terms(rng, n_terms=10)
    a, b = (random_statevector(rng, N_QUBITS) for _ in range(2))
    rho = 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())
    sim = resolve_backend("density_matrix", N_QUBITS)
    sim.rho = rho.reshape((2,) * (2 * N_QUBITS))
    expected = [np.trace(rho @ t.matrix(N_QUBITS)).real for t in terms]
    assert np.abs(sim.term_expectations(terms) - expected).max() <= 1e-12


@given_seed(max_examples=8)
def test_one_pass_rdms_equal_per_term_rdms(seed: int) -> None:
    circuit = random_brick_circuit(N_QUBITS, 4, seed=seed)
    for backend, options in BACKENDS:
        sim = resolve_backend(backend, N_QUBITS, **options).run(circuit)
        g1, g2 = measure_rdms(sim, N_QUBITS // 2)
        o1, o2 = measure_rdms(ExpectationOnly(sim.copy()), N_QUBITS // 2)
        assert np.abs(g1 - o1).max() <= 1e-12
        assert np.abs(g2 - o2).max() <= 1e-12
        assert np.array_equal(g2, g2.transpose(2, 3, 0, 1))
