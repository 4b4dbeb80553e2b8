"""Shared infrastructure: errors, constants, RNG policy, timers.

Every subpackage of :mod:`repro` builds on these primitives so that error
handling, determinism and timing are uniform across the chemistry substrate,
the simulators and the parallel runtime.
"""

from repro.common.bits import popcount, parity
from repro.common.errors import (
    ReproError,
    ConvergenceError,
    ValidationError,
    TruncationOverflowError,
)
from repro.common.constants import (
    ANGSTROM_TO_BOHR,
    BOHR_TO_ANGSTROM,
    HARTREE_TO_EV,
    EV_TO_HARTREE,
)
from repro.common.rng import default_rng
from repro.common.timing import Timer, timed

__all__ = [
    "popcount",
    "parity",
    "ReproError",
    "ConvergenceError",
    "ValidationError",
    "TruncationOverflowError",
    "ANGSTROM_TO_BOHR",
    "BOHR_TO_ANGSTROM",
    "HARTREE_TO_EV",
    "EV_TO_HARTREE",
    "default_rng",
    "Timer",
    "timed",
]
