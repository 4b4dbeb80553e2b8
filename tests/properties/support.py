"""Shared machinery for the property suite: seeded randomness either way.

`given_seed` turns a test taking a single ``seed: int`` argument into a
property: under hypothesis it becomes ``@given(integers)`` (shrinking and
example database included); without hypothesis it degrades to a
deterministic ``parametrize`` sweep over a fixed seed list, so the suite
still exercises many random instances on minimal installs.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only on minimal installs
    HAVE_HYPOTHESIS = False

#: fallback sweep used when hypothesis is unavailable
FIXED_SEEDS = tuple(range(12))


def given_seed(max_examples: int = 25):
    """Decorator: feed the wrapped test a stream of integer seeds."""
    if HAVE_HYPOTHESIS:
        def deco(fn):
            wrapped = given(seed=st.integers(min_value=0,
                                             max_value=2**32 - 1))(fn)
            return settings(
                max_examples=max_examples, deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )(wrapped)
        return deco

    def deco(fn):  # pragma: no cover - exercised only on minimal installs
        return pytest.mark.parametrize(
            "seed", FIXED_SEEDS[:max(1, min(max_examples, len(FIXED_SEEDS)))]
        )(fn)
    return deco


def rng_for(seed: int) -> np.random.Generator:
    """The one RNG constructor the property tests use (auditable seeding)."""
    return np.random.default_rng(seed)


def random_statevector(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Haar-ish normalized random complex state on ``n_qubits``."""
    psi = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(
        2**n_qubits)
    return psi / np.linalg.norm(psi)


class ExpectationOnly:
    """What a third-party backend may be: ``expectation(op)`` and nothing
    batched.  RDM measurement serves it string by string, which makes it
    the oracle of every one-pass ``term_expectations`` hook."""

    def __init__(self, sim):
        self._sim = sim

    def expectation(self, op):
        return self._sim.expectation(op)
