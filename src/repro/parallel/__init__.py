"""Three-level parallel runtime + Sunway machine model.

The paper's parallelization (Sec. III-C) has three levels:

1. **fragments** (DMET) - embarrassingly parallel over MPI sub-groups;
2. **circuits** (Pauli strings) - distributed over the processes of one
   sub-group, with dynamic load balancing;
3. **tensor kernels** - threaded on the 64 CPEs of a core group.

We cannot run on 20M Sunway cores, so each level is reproduced where a
measurement says it can be:

* level 1 runs for real: :class:`ThreeLevelEngine` /
  ``DMET(n_workers=, executor=)`` map fragments over serial, thread or
  process workers (:mod:`repro.parallel.executor`; 1.90x on 2 processes on
  the ``chain8_dmet_w2`` benchmark workload);
* levels 2 and 3 are replayed: the decomposition, communicator traffic
  and LPT scheduling run for real on :class:`SimCluster` clocks charged
  from a calibrated model of the SW26010Pro machine
  (:meth:`ThreeLevelDriver.simulate`, :mod:`repro.parallel.perfmodel`) -
  which is how the strong/weak scaling figures (Figs. 12-13) are
  regenerated.  At the sizes this repo reaches, measuring one prepared
  state is under 2% of an energy evaluation and every way of splitting it
  over workers was slower than not splitting it (EXPERIMENTS.md,
  Ablation 6), so no real level-2/3 path exists.
"""

from repro.parallel.topology import SW26010Pro, SunwayMachine
from repro.parallel.comm import SimCluster, SimCommunicator, CommStats
from repro.parallel.scheduler import (
    schedule_static,
    schedule_lpt,
    chunk_round_robin,
    makespan,
    Task,
)
from repro.parallel.executor import (
    ExecutorCounters,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    register_executor,
    resolve_executor,
)
from repro.parallel.perfmodel import (
    CircuitCostModel,
    VQEIterationModel,
    ScalingExperiment,
)
from repro.parallel.threelevel import (
    DistributedVQEReport,
    ThreeLevelDriver,
    ThreeLevelEngine,
)

__all__ = [
    "SW26010Pro",
    "SunwayMachine",
    "SimCluster",
    "SimCommunicator",
    "CommStats",
    "schedule_static",
    "schedule_lpt",
    "chunk_round_robin",
    "makespan",
    "Task",
    "ExecutorCounters",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "available_executors",
    "register_executor",
    "resolve_executor",
    "CircuitCostModel",
    "VQEIterationModel",
    "ScalingExperiment",
    "ThreeLevelDriver",
    "ThreeLevelEngine",
    "DistributedVQEReport",
]
