"""Shared helpers for the per-figure benchmark harness.

Every file in this directory regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 3 for the index).  Benchmarks print the
same rows/series the paper reports, annotated with the paper's values; the
assertions check the reproduced *shape* (orderings, crossovers, approximate
factors), not Sunway-absolute numbers.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest


def print_table(title: str, headers: list[str], rows: list[list],
                paper_note: str = "") -> None:
    """Uniform table printer for the benchmark reports."""
    print(f"\n=== {title} ===")
    widths = [max(len(h), 12) for h in headers]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for v, w in zip(row, widths):
            if isinstance(v, float):
                cells.append(f"{v:.6g}".rjust(w))
            else:
                cells.append(str(v).rjust(w))
        print("  ".join(cells))
    if paper_note:
        print(f"[paper] {paper_note}")


@pytest.fixture(scope="session")
def h2_mo():
    from repro.chem import geometry
    from repro.chem.scf import RHF
    from repro.chem import mo as momod

    res = RHF(geometry.h2(0.7414), "sto-3g").run()
    return momod.from_scf(res), res


@pytest.fixture(scope="session")
def lih_mo():
    from repro.chem import geometry
    from repro.chem.scf import RHF
    from repro.chem import mo as momod

    res = RHF(geometry.lih(), "sto-3g").run()
    return momod.from_scf(res), res


@pytest.fixture(scope="session")
def water_mo():
    from repro.chem import geometry
    from repro.chem.scf import RHF
    from repro.chem import mo as momod

    res = RHF(geometry.water(), "sto-3g").run()
    return momod.from_scf(res), res
