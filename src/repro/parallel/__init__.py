"""Three-level parallel runtime + Sunway machine model.

The paper's parallelization (Sec. III-C) has three levels:

1. **fragments** (DMET) - embarrassingly parallel over MPI sub-groups;
2. **circuits** (Pauli strings) - distributed over the processes of one
   sub-group, with dynamic load balancing;
3. **tensor kernels** - threaded on the 64 CPEs of a core group.

We cannot run on 20M Sunway cores, so the package is two things:

* one engine - level 1 runs for real: ``DMET(n_workers=1)`` solves the
  fragments in-line, ``n_workers > 1`` maps them over a
  :class:`ProcessExecutor` pool through
  :meth:`ThreeLevelDriver.run_fragments_local` (1.90x on 2 processes on
  the ``chain8_dmet_w2`` benchmark workload);
* one replay - levels 2 and 3 in closed form: the fragment decomposition
  and LPT scheduling run for real, compute seconds come from a cost model
  calibrated on our own MPS simulator and communication seconds / bytes
  from the SW26010Pro machine model
  (:meth:`VQEIterationModel.iteration_seconds`, :class:`ScalingExperiment`)
  - which is how the strong/weak scaling figures (Figs. 12-13) are
  regenerated.  A second, event-clock replay of the same machine gave the
  same makespan to the last bit and was deleted (EXPERIMENTS.md,
  Ablation 9).  At the sizes this repo reaches, measuring one prepared
  state is under 2% of an energy evaluation and every way of splitting it
  over workers was slower than not splitting it (EXPERIMENTS.md,
  Ablation 6), so no real level-2/3 path exists.
"""

from repro.parallel.topology import SW26010Pro, SunwayMachine
from repro.parallel.scheduler import (
    schedule_static,
    schedule_lpt,
    makespan,
    Task,
)
from repro.parallel.executor import ProcessExecutor, resolve_executor
from repro.parallel.perfmodel import (
    CircuitCostModel,
    VQEIterationModel,
    ScalingExperiment,
)
from repro.parallel.threelevel import ThreeLevelDriver

__all__ = [
    "SW26010Pro",
    "SunwayMachine",
    "schedule_static",
    "schedule_lpt",
    "makespan",
    "Task",
    "ProcessExecutor",
    "resolve_executor",
    "CircuitCostModel",
    "VQEIterationModel",
    "ScalingExperiment",
    "ThreeLevelDriver",
]
