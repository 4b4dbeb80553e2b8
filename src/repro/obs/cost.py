"""Roofline-style cost model over the ``repro.obs`` event counters.

The paper's headline numbers are flop rates (Secs. V-VI: per-kernel
GFLOP/s, scaling curves), but the repo's counters record *events* - SVDs
taken, GEMMs issued, gathers per expectation.  This module closes the
gap: it converts the counters a run already emitted into modeled flops
and bytes moved per phase, so any metrics document (a live registry
snapshot, a ``--metrics-out`` file, a merged multi-worker document)
yields an `achieved vs modeled` roofline report without re-running
anything.

Conventions (one complex multiply-accumulate = 8 real flops; one complex
amplitude = 16 bytes):

* **state_prep** (MPS gate/truncation work, bond dimension ``D`` read
  off the ``mps.max_bond_dimension`` gauge):

  - 1-qubit gate: a 2x2 unitary against a (D, 2, D) site tensor -
    ``32 D^2`` flops;
  - 2-qubit gate (and each routed SWAP): theta contraction on the merged
    (D, 4, D) bond - ``32 D^3 + 128 D^2`` flops;
  - truncated SVD: LAPACK-style ``22 m^3`` on the (2D, 2D) merged
    matrix - ``22 (2D)^3`` flops (the classic constant folding in the
    bidiagonalization + implicit-QR sweeps).

* **measurement_mps**: the sweep engine already models its own GEMM
  flops (``mps_measure.modeled_flops``); bytes are modeled as three
  (D, D) complex streams per environment step.

* **measurement_dense**: the compiled flip-mask path counts its own
  passes (``pauli.modeled_flops`` / ``pauli.modeled_bytes``).

The absolute numbers are models, not measurements - their value is that
they are *deterministic* functions of the counters, so ratios
(phase shares, achieved-vs-modeled GFLOP/s, run-over-run drift in the
performance ledger) are stable and comparable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import REGISTRY, MetricsRegistry

#: schema tag of :func:`cost_report` documents
COST_SCHEMA = "repro.cost/1"


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the flop/byte model (defaults documented above)."""

    #: real flops per complex multiply-accumulate
    complex_flop: int = 8
    #: bytes per complex amplitude
    complex_bytes: int = 16
    #: LAPACK-style constant in the ``c * m^3`` SVD flop model
    svd_flop_constant: float = 22.0
    #: fallback bond dimension when no ``mps.max_bond_dimension`` gauge
    #: was recorded (a product state has D = 1; 2 is the smallest
    #: entangled bond, the conservative default)
    default_bond_dimension: int = 2

    # -- per-event costs -------------------------------------------------------

    def gate_1q_flops(self, d: int) -> float:
        """2x2 unitary times a (D, 2, D) site tensor."""
        return 4.0 * self.complex_flop * d * d

    def gate_2q_flops(self, d: int) -> float:
        """Merge + theta contraction on the (D, 4, D) two-site tensor."""
        return self.complex_flop * (4.0 * d ** 3 + 16.0 * d * d)

    def svd_flops(self, d: int) -> float:
        """Truncated SVD of the (2D, 2D) merged bond matrix."""
        return self.svd_flop_constant * (2.0 * d) ** 3

    def env_step_bytes(self, d: int) -> float:
        """Three (D, D) complex streams per environment transfer step."""
        return 3.0 * self.complex_bytes * d * d


def _counter_total(metrics: dict, name: str) -> float:
    """Sum of every labelled slot of one counter (0 when absent)."""
    inst = metrics.get(name)
    if not inst:
        return 0.0
    return float(sum(slot["value"] for slot in inst.get("values", ())))


def _gauge_max(metrics: dict, name: str, default: float) -> float:
    """Largest labelled slot of one gauge (``default`` when absent)."""
    inst = metrics.get(name)
    if not inst or not inst.get("values"):
        return default
    return float(max(slot["value"] for slot in inst["values"]))


def phase_costs(metrics: dict, *, model: CostModel | None = None,
                bond_dimension: int | None = None) -> dict[str, dict]:
    """Modeled {flops, bytes} per phase from a metrics mapping.

    ``metrics`` is the ``{name: instrument snapshot}`` mapping of a
    ``repro.obs`` document (or :meth:`MetricsRegistry.snapshot`).  Phases
    with zero modeled work are omitted, so a dense-only run reports no
    MPS phases and vice versa.
    """
    model = model or CostModel()
    d = bond_dimension if bond_dimension is not None else int(_gauge_max(
        metrics, "mps.max_bond_dimension", model.default_bond_dimension))
    d = max(1, d)
    phases: dict[str, dict] = {}

    g1 = _counter_total(metrics, "mps.gate_1q")
    g2 = _counter_total(metrics, "mps.gate_2q")
    swaps = _counter_total(metrics, "mps.swap")
    svds = _counter_total(metrics, "mps.svd")
    prep_flops = (g1 * model.gate_1q_flops(d)
                  + (g2 + swaps) * model.gate_2q_flops(d)
                  + svds * model.svd_flops(d))
    if prep_flops:
        # each gate streams its site tensors once; each SVD reads and
        # writes the (2D, 2D) merged matrix
        prep_bytes = (
            (g1 + g2 + swaps) * 2.0 * model.complex_bytes * 2.0 * d * d
            + svds * 2.0 * model.complex_bytes * 4.0 * d * d)
        phases["state_prep"] = {"flops": prep_flops, "bytes": prep_bytes,
                                "bond_dimension": d}

    sweep_flops = _counter_total(metrics, "mps_measure.modeled_flops")
    env_steps = _counter_total(metrics, "mps_measure.env_steps")
    if sweep_flops or env_steps:
        phases["measurement_mps"] = {
            "flops": sweep_flops,
            "bytes": env_steps * model.env_step_bytes(d),
            "bond_dimension": d,
        }

    dense_flops = _counter_total(metrics, "pauli.modeled_flops")
    dense_bytes = _counter_total(metrics, "pauli.modeled_bytes")
    if dense_flops:
        phases["measurement_dense"] = {"flops": dense_flops,
                                       "bytes": dense_bytes}

    for slot in phases.values():
        if slot.get("bytes"):
            slot["intensity_flop_per_byte"] = slot["flops"] / slot["bytes"]
    return phases


def cost_report(doc: dict | MetricsRegistry | None = None, *,
                wall_s: float | None = None,
                bond_dimension: int | None = None,
                peak_gflops: float | None = None,
                model: CostModel | None = None) -> dict:
    """Roofline-style report over one run's counters.

    ``doc`` is a ``repro.obs`` export document, a bare metrics mapping, a
    :class:`MetricsRegistry`, or None for the global registry.  With
    ``wall_s`` the report includes achieved GFLOP/s (and utilization when
    ``peak_gflops`` names the machine's roof); per-VQE-iteration and
    per-DMET-fragment normalizations appear whenever the matching
    counters were recorded.
    """
    if doc is None:
        doc = REGISTRY
    if isinstance(doc, MetricsRegistry):
        metrics = doc.snapshot()
    elif "metrics" in doc and "schema" in doc:
        metrics = doc["metrics"]
    else:
        metrics = doc
    phases = phase_costs(metrics, model=model,
                         bond_dimension=bond_dimension)
    total_flops = sum(p["flops"] for p in phases.values())
    total_bytes = sum(p.get("bytes", 0.0) for p in phases.values())
    report: dict = {
        "schema": COST_SCHEMA,
        "phases": phases,
        "totals": {"flops": total_flops, "bytes": total_bytes},
    }
    if total_bytes:
        report["totals"]["intensity_flop_per_byte"] = \
            total_flops / total_bytes
    if wall_s is not None and wall_s > 0:
        report["wall_s"] = float(wall_s)
        report["achieved_gflops"] = total_flops / wall_s / 1e9
        if peak_gflops:
            report["peak_gflops"] = float(peak_gflops)
            report["utilization"] = \
                report["achieved_gflops"] / float(peak_gflops)
    iterations = _counter_total(metrics, "vqe.iterations")
    if iterations:
        report["per_iteration"] = {"iterations": iterations,
                                   "flops": total_flops / iterations}
    fragments = _counter_total(metrics, "dmet.fragment_solves")
    if fragments:
        report["per_fragment"] = {"fragment_solves": fragments,
                                  "flops": total_flops / fragments}
    return report


__all__ = ["COST_SCHEMA", "CostModel", "cost_report", "phase_costs"]
