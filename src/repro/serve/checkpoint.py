"""Job checkpoint/resume: bitwise-reproducible optimizer snapshots.

Long VQE optimizations are the jobs a multi-tenant service cannot afford
to lose to a restart.  This module serializes the *complete* optimizer
state - the parameter vector, the optimizer's internal moments, the
energy history, the RNG state for stochastic optimizers - after every
iteration, so a killed job resumes to a **bitwise-identical trajectory**:
the resumed run's final energy, parameters and iteration count equal the
uninterrupted run's exactly (the contract the fault-injection suite in
``tests/serve`` pins on both the statevector and MPS backends).

Document format (schema ``repro.ckpt/1``)::

    {
      "schema": "repro.ckpt/1",
      "optimizer": "adam",
      "iteration": 17,
      "payload": { ... optimizer state, ndarrays base64-encoded ... },
      "checksum": "sha256 hex of the canonical payload JSON"
    }

Arrays are encoded as ``{"__ndarray__": <base64 of tobytes()>, "dtype",
"shape"}`` - byte-exact, no float/JSON round-trip ambiguity.  RNG state
(numpy bit-generator state dicts) serializes as plain JSON.  Writes are
atomic (tmp + ``os.replace``), so a crash mid-write leaves the previous
checkpoint intact; loads verify the checksum and schema and raise a
structured :class:`repro.common.errors.CheckpointError` on any damage -
**never** a silent fresh start.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.common.errors import CheckpointError
from repro.obs import flight as _flight
from repro.obs import trace as _trace

#: schema tag of the checkpoint document
CKPT_SCHEMA = "repro.ckpt/1"


def _encode(obj):
    """JSON-ready deep copy; ndarrays become byte-exact base64 blobs."""
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": base64.b64encode(
                np.ascontiguousarray(obj).tobytes()).decode("ascii"),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, np.generic):
        return _encode(np.asarray(obj))
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    if isinstance(obj, (int, float)):
        return obj
    raise CheckpointError(
        f"cannot serialize {type(obj).__name__!r} into a checkpoint",
        reason="schema")


def _decode(obj):
    """Inverse of :func:`_encode`."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            raw = base64.b64decode(obj["__ndarray__"])
            arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return arr.reshape(obj["shape"]).copy()
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def _payload_checksum(payload: dict) -> str:
    """sha256 over the canonical (sorted-key, compact) payload JSON."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def save_checkpoint(path: str | Path, *, optimizer: str, iteration: int,
                    state: dict) -> Path:
    """Atomically write one checkpoint document; returns the path.

    ``state`` is the optimizer's own snapshot dict (arrays allowed at any
    nesting depth).  The write goes to ``<path>.tmp`` first and is
    renamed into place, so readers never observe a torn document.
    """
    path = Path(path)
    with _trace.span("checkpoint.save", path=str(path),
                     iteration=int(iteration)):
        payload = _encode(state)
        doc = {
            "schema": CKPT_SCHEMA,
            "optimizer": str(optimizer),
            "iteration": int(iteration),
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        os.replace(tmp, path)
    _flight.FLIGHT.note("checkpoint", "save", path=str(path),
                        iteration=int(iteration))
    return path


def _reject(path: Path, reason: str, message: str,
            cause: Exception | None = None):
    """Flight-note and raise one structured load rejection.

    The flight event lands in the ring *before* the dump is attached, so
    the error's own black box records the rejection it describes.
    """
    _flight.FLIGHT.note("checkpoint", "load_rejected", reason=reason,
                        path=str(path))
    exc = _flight.attach_flight(
        CheckpointError(message, path=str(path), reason=reason))
    if cause is not None:
        raise exc from cause
    raise exc


def load_checkpoint(path: str | Path, *,
                    expect_optimizer: str | None = None) -> dict:
    """Load and verify one checkpoint; raises :class:`CheckpointError`.

    Returns ``{"optimizer", "iteration", "state"}`` with arrays decoded.
    Any damage - missing file, truncated/unparseable JSON, checksum
    mismatch, unknown schema, or (when ``expect_optimizer`` is given) an
    optimizer mismatch - raises a structured error carrying the path, a
    machine-readable ``reason`` and the flight-recorder dump
    (``exc.flight``); resuming never silently restarts.
    """
    path = Path(path)
    with _trace.span("checkpoint.load", path=str(path)):
        if not path.exists():
            _reject(path, "missing", f"checkpoint {path} does not exist")
        text = path.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            reason = ("truncated" if not text.rstrip().endswith("}")
                      else "corrupt")
            _reject(path, reason,
                    f"checkpoint {path} is not valid JSON ({exc})",
                    cause=exc)
        if not isinstance(doc, dict) or doc.get("schema") != CKPT_SCHEMA:
            _reject(path, "schema",
                    f"checkpoint {path} has unknown schema "
                    f"{doc.get('schema') if isinstance(doc, dict) else None!r}; "
                    f"expected {CKPT_SCHEMA!r}")
        for field in ("optimizer", "iteration", "payload", "checksum"):
            if field not in doc:
                _reject(path, "truncated",
                        f"checkpoint {path} is missing field {field!r}")
        if _payload_checksum(doc["payload"]) != doc["checksum"]:
            _reject(path, "checksum",
                    f"checkpoint {path} failed its checksum - refusing to "
                    f"resume from a corrupt state")
        if expect_optimizer is not None \
                and doc["optimizer"] != expect_optimizer:
            _reject(path, "mismatch",
                    f"checkpoint {path} was written by optimizer "
                    f"{doc['optimizer']!r}, not {expect_optimizer!r}")
        _flight.FLIGHT.note("checkpoint", "load", path=str(path),
                            iteration=int(doc["iteration"]))
        return {
            "optimizer": doc["optimizer"],
            "iteration": int(doc["iteration"]),
            "state": _decode(doc["payload"]),
        }


class CheckpointWriter:
    """Per-iteration checkpoint sink handed to the optimizers.

    Callable as ``writer(state_dict)``; writes every ``every``-th
    iteration (and always remembers the latest state so :meth:`flush`
    can persist it after an interruption).  The optimizer's state dict
    must carry an ``"iteration"`` key.
    """

    def __init__(self, path: str | Path, *, optimizer: str, every: int = 1):
        if every < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1 (got {every})",
                reason="schema")
        self.path = Path(path)
        self.optimizer = str(optimizer)
        self.every = int(every)
        self.writes = 0
        self._latest: dict | None = None

    def __call__(self, state: dict) -> None:
        self._latest = state
        iteration = int(state["iteration"])
        if iteration % self.every == 0:
            self.flush()

    def flush(self) -> Path | None:
        """Persist the most recent state (no-op before any iteration)."""
        if self._latest is None:
            return None
        self.writes += 1
        return save_checkpoint(self.path, optimizer=self.optimizer,
                               iteration=int(self._latest["iteration"]),
                               state=self._latest)


__all__ = [
    "CKPT_SCHEMA",
    "CheckpointWriter",
    "load_checkpoint",
    "save_checkpoint",
]
