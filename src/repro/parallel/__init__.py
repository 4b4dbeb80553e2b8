"""Three-level parallel runtime + Sunway machine model.

The paper's parallelization (Sec. III-C) has three levels:

1. **fragments** (DMET) - embarrassingly parallel over MPI sub-groups;
2. **circuits** (Pauli strings) - distributed over the processes of one
   sub-group, with dynamic load balancing;
3. **tensor kernels** - threaded on the 64 CPEs of a core group.

We cannot run on 20M Sunway cores, so this package separates *policy* from
*clock*: the decomposition, communicator traffic and scheduling run for real
(and can execute on a local thread pool), while timing can come either from
the wall clock or from a calibrated event-driven model of the SW26010Pro
machine - which is how the strong/weak scaling figures are regenerated.
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
    GroupedObservable,
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
    "GroupedObservable",
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
