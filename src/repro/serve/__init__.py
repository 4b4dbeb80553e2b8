"""``repro.serve`` - the in-process multi-tenant job service.

The layer a long-running deployment needs on top of the numerical stack:

* :mod:`repro.serve.service` - :class:`JobService`, the async job queue
  (submit / status / result) with a single scheduler thread that batches
  compatible requests (same molecule/backend) back-to-back;
* :mod:`repro.serve.jobs` - :class:`JobSpec` / :class:`JobRecord`, the
  request vocabulary and its content-address projections;
* :mod:`repro.common.cache` - :class:`ServeCache`, the content-addressed
  size-bounded LRU store every memoised artifact (compiled observables,
  sweep plans, MPOs, results, prepared systems) lives in; the service
  installs its own for its lifetime;
* :mod:`repro.serve.checkpoint` - bitwise-reproducible adam
  checkpoints (schema ``repro.ckpt/1``) behind the VQE
  ``checkpoint_path`` / ``resume`` knobs.

The CLI front end is ``python -m repro serve --requests FILE`` (see
docs/SERVING.md).  Everything the service returns is bitwise identical
to the equivalent direct :mod:`repro.q2chem` call - caching and batching
change where artifacts live and when jobs run, never what is computed.
"""

from __future__ import annotations

from repro.common.cache import DEFAULT_MAX_BYTES, ServeCache, sizeof
from repro.serve.checkpoint import (
    CKPT_SCHEMA,
    CheckpointWriter,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.jobs import JobRecord, JobSpec
from repro.serve.service import JobService

__all__ = [
    "CKPT_SCHEMA",
    "CheckpointWriter",
    "DEFAULT_MAX_BYTES",
    "JobRecord",
    "JobService",
    "JobSpec",
    "ServeCache",
    "load_checkpoint",
    "save_checkpoint",
    "sizeof",
]
