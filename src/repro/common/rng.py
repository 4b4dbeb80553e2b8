"""Deterministic random-number policy.

Every stochastic component in the library (random initial MPS states,
random circuits, synthetic workload generators) draws randomness through
:func:`default_rng` with an explicit seed, so that benchmarks and tests are
bit-for-bit reproducible.
"""

from __future__ import annotations

import numpy as np

#: Seed used across the test-suite and benchmark harness when none is given.
DEFAULT_SEED: int = 20220914  # SC'22 conference date


def default_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` uses :data:`DEFAULT_SEED` (deterministic!); an ``int`` seeds a
        fresh PCG64 generator; an existing generator is passed through, which
        lets call-chains share one stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)
