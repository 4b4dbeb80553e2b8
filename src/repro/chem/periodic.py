"""Minimal periodic-table data for the elements covered by our basis sets."""

from __future__ import annotations

from repro.common.errors import ValidationError

#: symbol -> atomic number
ELEMENTS: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5,
    "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
}


def atomic_number(symbol: str) -> int:
    """Atomic number for an element symbol (case-normalized)."""
    key = symbol.strip().capitalize()
    if key not in ELEMENTS:
        raise ValidationError(f"unsupported element symbol: {symbol!r}")
    return ELEMENTS[key]
