"""The metric inventory of docs/OBSERVABILITY.md cannot drift from the code."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: registered by the first ``MetricsRegistry.merge``, not at import
LAZY = {"obs.merges"}

#: a fresh interpreter: the test session's registry also holds whatever
#: names other tests made up
_COLLECT = """
import importlib, pkgutil, repro
from repro.obs.metrics import REGISTRY
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
print("\\n".join(REGISTRY.names()))
"""


def _documented() -> list[str]:
    section = DOC.read_text().split("## Metric inventory")[1].split("\n## ")[0]
    return re.findall(r"^\| `([a-z0-9_.]+)` \|", section, flags=re.M)


def test_inventory_table_lists_exactly_the_registered_names():
    out = subprocess.run([sys.executable, "-c", _COLLECT], check=True,
                         capture_output=True, text=True).stdout
    registered = set(out.split())
    documented = _documented()
    assert len(documented) == len(set(documented)), "a name is listed twice"
    assert set(documented) == registered | LAZY
