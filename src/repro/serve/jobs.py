"""Job specifications for the in-process service.

A :class:`JobSpec` is the serve-layer request vocabulary: one frozen,
hashable record naming a molecule, a method and its knobs.  Three key
projections drive the whole service:

* :meth:`JobSpec.spec_key` - the content address of the *result*: every
  field that can change the computed numbers, nothing else (labels and
  checkpoint plumbing are excluded).  Jobs with equal spec keys are the
  same computation, so the second one is a ``serve.result`` cache hit.
* :meth:`JobSpec.system_key` - the content address of the prepared
  molecular system (integrals + RHF + active space), shared by every
  method on the same molecule/basis.
* :meth:`JobSpec.batch_key` - the scheduler's compatibility class
  (molecule/basis/backend): jobs in one class run
  back-to-back so they reuse the prepared system and hit the same
  compiled-artifact namespaces while they are hottest.

All computations a spec can name are deterministic, which is what makes
result-level caching sound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.backends import check_backend
from repro.common.errors import ValidationError
from repro.vqe.optimizers import DEFAULT_OPTIMIZER, check_optimizer

#: request kinds the service understands
JOB_KINDS = ("energy", "vqe", "dmet")

#: closed-form energy methods (kind="energy")
ENERGY_METHODS = ("hf", "fci", "ccsd")

#: JobSpec fields that do NOT affect the computed numbers - excluded
#: from :meth:`JobSpec.spec_key` (checkpoint plumbing changes where
#: intermediate state is persisted, never the trajectory itself)
NON_RESULT_FIELDS = ("tag", "checkpoint_path", "resume")

#: what each name in a JobSpec annotation accepts (an int is a float;
#: a bool is never a number, it is matched by name below)
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


@dataclass(frozen=True)
class JobSpec:
    """One request: a molecule, a method, and the method's knobs."""

    kind: str = "energy"
    molecule: str = "h2"
    basis: str = "sto-3g"
    bond: float | None = None
    #: kind="energy": "hf" | "fci" | "ccsd"
    method: str = "hf"
    #: kind="vqe": backend + optimizer knobs (mirrors Q2Chemistry.vqe_energy)
    simulator: str = "statevector"
    optimizer: str = DEFAULT_OPTIMIZER
    max_bond_dimension: int | None = None
    max_iterations: int = 4000
    tolerance: float = 1e-8
    grad: str | None = None
    #: kind="dmet": fragment solver + partitioning
    solver: str = "fci"
    atoms_per_group: int = 2
    #: checkpoint/resume plumbing (kind="vqe", adam only)
    checkpoint_path: str | None = None
    resume: bool = False
    #: caller-chosen label, echoed back verbatim (never keyed on)
    tag: str = ""

    def __post_init__(self):
        # a mistyped field must fail here, at submit: the scheduler keys
        # batches on these values outside its per-job error isolation
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            declared = [name.strip() for name in f.type.split("|")]
            if value is None:
                ok = "None" in declared
            elif isinstance(value, bool):
                ok = "bool" in declared
            else:
                ok = any(isinstance(value, _FIELD_TYPES[name])
                         for name in declared if name != "None")
            if not ok:
                raise ValidationError(
                    f"job spec field {f.name!r} must be {f.type}, "
                    f"got {value!r}")
        check_optimizer(self.optimizer)
        check_backend(self.simulator)
        if self.solver != "fci":
            check_backend(self.solver, "vqe-")
        if self.kind not in JOB_KINDS:
            raise ValidationError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}")
        if self.kind == "energy" and self.method not in ENERGY_METHODS:
            raise ValidationError(
                f"unknown energy method {self.method!r}; expected one of "
                f"{ENERGY_METHODS} (use kind='vqe' or kind='dmet' for "
                f"variational methods)")

    # -- content addresses ---------------------------------------------------

    def spec_key(self) -> tuple:
        """Hashable content address of this job's *result*.

        Every result-relevant field in declaration order; the fields in
        :data:`NON_RESULT_FIELDS` are excluded, so e.g. a resumed job and
        a fresh job with the same physics share one cache entry.
        """
        return tuple(
            getattr(self, f.name) for f in dataclasses.fields(self)
            if f.name not in NON_RESULT_FIELDS
        )

    def system_key(self) -> tuple:
        """Content address of the prepared molecular system."""
        return (self.molecule.lower(), self.basis.lower(), self.bond)

    def batch_key(self) -> tuple:
        """Scheduler compatibility class (molecule/basis/backend).

        Jobs in one class are executed back-to-back so they share the
        prepared system and the hottest compiled-artifact cache entries.
        """
        return (self.molecule.lower(), self.basis.lower(), self.bond,
                self.simulator)

    # -- wire format ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict (the serve request-file entry format)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build from a request-file entry; unknown keys are an error."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"job spec must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown job spec field(s) {unknown}; known fields: "
                f"{sorted(known)}")
        return cls(**data)


@dataclass
class JobRecord:
    """Mutable service-side state of one submitted job."""

    job_id: str
    spec: JobSpec
    status: str = "queued"  # queued | running | done | error
    result: dict | None = None
    error: str | None = None
    error_type: str | None = None
    #: per-request ``repro.obs/2`` snapshot (None when observe=False)
    metrics: dict | None = None
    #: ``repro.obs.flight/1`` dump captured when the job failed - the
    #: last N runtime events (workers included) leading to the error
    flight: dict | None = None
    #: True when the result came straight from the serve.result cache
    cache_hit: bool = False
    #: scheduler batch this job executed in (drain ordinal, batch key)
    batch: tuple | None = None
    wall_s: float = 0.0

    def summary(self) -> dict:
        """JSON-ready status/result line (the CLI output format)."""
        out = {
            "job_id": self.job_id,
            "status": self.status,
            "kind": self.spec.kind,
            "molecule": self.spec.molecule,
            "tag": self.spec.tag,
            "cache_hit": self.cache_hit,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
            out["error_type"] = self.error_type
            if self.flight is not None:
                out["flight"] = self.flight
        return out


__all__ = [
    "ENERGY_METHODS",
    "JOB_KINDS",
    "JobRecord",
    "JobSpec",
    "NON_RESULT_FIELDS",
]
