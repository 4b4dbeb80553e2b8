"""Tests for the permutation+phase Pauli actions.

The closed-form UCC evaluator these rode with is gone; the statevector
backend applies excitations itself (tests/simulators/test_statevector.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.pauli import PauliTerm
from repro.simulators.pauli_kernels import PauliAction

N = 4


def term_strategy():
    return st.builds(
        PauliTerm,
        x=st.integers(0, 2 ** N - 1),
        z=st.integers(0, 2 ** N - 1),
    )


class TestPauliAction:
    @settings(max_examples=50, deadline=None)
    @given(term_strategy())
    def test_action_matches_matrix(self, term):
        action = PauliAction(term, N)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(2 ** N) + 1j * rng.standard_normal(2 ** N)
        assert np.allclose(action.apply(psi), term.matrix(N) @ psi,
                           atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(term_strategy())
    def test_involution(self, term):
        """P^2 = I: applying twice restores the state."""
        action = PauliAction(term, N)
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(2 ** N) + 1j * rng.standard_normal(2 ** N)
        assert np.allclose(action.apply(action.apply(psi)), psi, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(term_strategy())
    def test_norm_preserving(self, term):
        action = PauliAction(term, N)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(2 ** N) + 1j * rng.standard_normal(2 ** N)
        assert np.linalg.norm(action.apply(psi)) == pytest.approx(
            np.linalg.norm(psi))

