"""Property: batched measurement equals the naive per-term contraction.

:class:`CompiledObservable` (the flip-mask batched kernel every dense
backend routes through) must agree with the definitionally-correct
``sum_i c_i <psi|P_i|psi>`` for any operator and any state.
"""

from __future__ import annotations

import numpy as np

from repro.operators.pauli import PauliTerm, QubitOperator
from repro.simulators.pauli_kernels import CompiledObservable

from .support import given_seed, random_statevector, rng_for

N_QUBITS = 5


def random_observable(rng: np.random.Generator, n: int = N_QUBITS,
                      n_terms: int = 12) -> QubitOperator:
    """Random hermitian operator: real weights on random Pauli strings."""
    op = QubitOperator.identity(float(rng.standard_normal()))
    for _ in range(n_terms):
        term = PauliTerm(x=int(rng.integers(0, 2**n)),
                         z=int(rng.integers(0, 2**n)))
        op = op + QubitOperator.from_term(term, float(rng.standard_normal()))
    return op


def naive_expectation(op: QubitOperator, psi: np.ndarray,
                      n: int = N_QUBITS) -> float:
    """Definition of <H>: one dense matrix-vector product per term."""
    total = 0.0 + 0.0j
    for term, coeff in op:
        total += coeff * np.vdot(psi, term.matrix(n) @ psi)
    return float(np.real(total))


@given_seed()
def test_compiled_matches_naive(seed: int) -> None:
    """Flip-mask batched expectation equals the per-term definition."""
    rng = rng_for(seed)
    op = random_observable(rng)
    psi = random_statevector(rng, N_QUBITS)
    compiled = CompiledObservable(op, N_QUBITS)
    assert np.isclose(compiled.expectation(psi),
                      naive_expectation(op, psi), atol=1e-10)


@given_seed(max_examples=15)
def test_compiled_linear_in_coefficients(seed: int) -> None:
    """<aH> = a<H>: scaling the operator scales the expectation."""
    rng = rng_for(seed)
    op = random_observable(rng)
    psi = random_statevector(rng, N_QUBITS)
    a = float(rng.standard_normal())
    base = CompiledObservable(op, N_QUBITS).expectation(psi)
    scaled = CompiledObservable(op * a, N_QUBITS).expectation(psi)
    assert np.isclose(scaled, a * base, atol=1e-9)
