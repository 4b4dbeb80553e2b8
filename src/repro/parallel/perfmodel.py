"""Calibrated performance model regenerating the paper's scaling figures.

We cannot run 21M Sunway cores, so the Fig. 12/13 reproduction separates:

* *policy*, which runs for real - the DMET fragment decomposition into
  waves over 2048-process sub-groups and the LPT string scheduling - and
* *cost*, in closed form - compute from a :class:`CircuitCostModel` whose
  constants are **calibrated by timing our own MPS simulator** on small
  circuits, then extrapolated with the algorithm's known complexity
  (gates x D^3); the bcast/reduce seconds and bytes per iteration
  (15.6 KB/process/iteration in the paper) from the machine model's tree
  collectives (:class:`repro.parallel.topology.SunwayMachine`).

This is the one replay of the Sunway machine in the package:
:meth:`VQEIterationModel.iteration_seconds` returns the per-phase
(bcast / compute / reduce) breakdown of one sub-group's iteration and
:class:`ScalingExperiment` stacks it into the Fig. 12/13 curves.  The
scaling *shape* - who wins, where efficiency falls - is produced by the
decomposition and communication model, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import default_rng
from repro.common.timing import timed
from repro.parallel.topology import SunwayMachine
from repro.parallel.scheduler import Task, schedule_lpt


@dataclass
class CircuitCostModel:
    """Predicts the runtime of one Pauli-string circuit evaluation.

    t(circuit) = overhead + n_two_qubit_gates * gate_seconds(D)
    gate_seconds(D) = k_gate * D^3  (contraction + SVD are both O(D^3))

    ``calibrate`` measures the constants on the real MPS simulator.
    """

    k_gate: float = 2.0e-9      # seconds per gate per D^3 unit
    overhead: float = 5.0e-5    # per-circuit setup seconds
    bond_dimension: int = 64

    def gate_seconds(self) -> float:
        return self.k_gate * float(self.bond_dimension) ** 3

    def circuit_seconds(self, n_two_qubit_gates: int) -> float:
        if n_two_qubit_gates < 0:
            raise ValidationError("negative gate count")
        return self.overhead + n_two_qubit_gates * self.gate_seconds()

    @classmethod
    def calibrate(cls, bond_dimension: int = 64,
                  qubit_sizes: tuple[int, ...] = (12, 16, 20),
                  n_layers: int = 2, seed: int = 0) -> "CircuitCostModel":
        """Fit (k_gate, overhead) by timing random brick circuits."""
        from repro.circuits.hea import random_brick_circuit
        from repro.simulators.mps_circuit import MPSSimulator

        gates = []
        times = []
        for nq in qubit_sizes:
            circ = random_brick_circuit(nq, n_layers, seed=seed)
            t, _ = timed(lambda: MPSSimulator(
                nq, max_bond_dimension=bond_dimension).run(circ), repeat=2)
            gates.append(circ.n_two_qubit_gates())
            times.append(t)
        a = np.vstack([np.asarray(gates, float),
                       np.ones(len(gates))]).T
        coef, *_ = np.linalg.lstsq(a, np.asarray(times), rcond=None)
        slope = max(coef[0], 1e-12)
        intercept = max(coef[1], 0.0)
        # the measured D is whatever the random circuit reached; normalize
        # the slope to the requested D^3 so extrapolation in D is explicit
        k_gate = slope / float(bond_dimension) ** 3
        return cls(k_gate=k_gate, overhead=intercept,
                   bond_dimension=bond_dimension)


def synthetic_fragment_strings(n_qubits: int, seed: int = 0,
                               n_strings: int | None = None) -> list[Task]:
    """Synthetic Pauli-string workload for one DMET fragment.

    String count follows the O(N_q^4) law quoted in the paper, anchored at
    the measured H2 value (15 strings at 4 qubits); spans are distributed
    like Jordan-Wigner excitation strings (anything from 2 to N_q).
    """
    if n_strings is None:
        n_strings = max(1, round(15 * (n_qubits / 4.0) ** 4))
    rng = default_rng(seed)
    spans = rng.integers(2, max(3, n_qubits + 1), size=n_strings)
    # cost unit: two-qubit gates in the measurement+ansatz circuit ~ span
    return [Task(task_id=i, cost=float(s)) for i, s in enumerate(spans)]


@dataclass
class VQEIterationModel:
    """Cost of one distributed VQE iteration for one fragment sub-group.

    Mirrors Fig. 4: MPI_Bcast of the parameters, per-process evaluation of
    its Pauli-string circuits, MPI_Reduce of the partial energies.
    """

    machine: SunwayMachine
    cost_model: CircuitCostModel
    ansatz_gates: int = 200          # shared ansatz two-qubit gates
    n_parameters: int = 100

    def iteration_seconds(self, strings: list[Task],
                          n_processes: int) -> tuple[float, dict]:
        """(wall seconds, breakdown dict) for one VQE iteration."""
        if n_processes < 1:
            raise ValidationError("need at least one process")
        param_bytes = 8 * self.n_parameters
        t_bcast = self.machine.bcast_time(param_bytes, n_processes)
        assignment = schedule_lpt(strings, n_processes)
        gate_s = self.cost_model.gate_seconds()
        per_rank = []
        for tasks in assignment:
            # each rank runs the shared ansatz once, then its measurement
            # suffixes (the Sec. III-D shared-ansatz execution model)
            meas_gates = sum(t.cost for t in tasks)
            per_rank.append(self.cost_model.overhead * max(1, len(tasks))
                            + (self.ansatz_gates + meas_gates) * gate_s)
        t_compute = max(per_rank)
        t_reduce = self.machine.reduce_time(16, n_processes)
        total = t_bcast + t_compute + t_reduce
        return total, {
            "bcast_s": t_bcast,
            "compute_s": t_compute,
            "reduce_s": t_reduce,
            "imbalance": t_compute / (sum(per_rank) / len(per_rank)) - 1.0,
            "bytes_per_process": param_bytes + 16,
        }


@dataclass
class ScalingPoint:
    """One point of a strong/weak scaling curve."""

    n_processes: int
    n_cores: int
    n_fragments: int
    n_waves: int
    time_s: float
    speedup: float = 1.0
    efficiency: float = 1.0


#: The paper's Fig. 12 runs: H1280 on 10,240 .. 327,680 processes.
STRONG_SCALING_ATOMS = 1280
STRONG_SCALING_PROCESSES = (10_240, 20_480, 40_960, 81_920, 163_840, 327_680)
#: The paper's Fig. 13 runs: (atoms, processes), 8 atoms per 2048-process
#: sub-group throughout.
WEAK_SCALING_POINTS = ((40, 10_240), (80, 20_480), (320, 81_920),
                       (1280, 327_680))


@dataclass
class ScalingExperiment:
    """Strong/weak scaling of DMET-MPS-VQE hydrogen chains (Figs. 12-13).

    Geometry of the runs follows the paper exactly: 2048 processes per MPI
    sub-group (one fragment solved per group at a time), two atoms per
    fragment, fragments processed in waves when they outnumber the groups.
    """

    machine: SunwayMachine = field(default_factory=SunwayMachine)
    cost_model: CircuitCostModel = field(default_factory=CircuitCostModel)
    processes_per_group: int = 2048
    fragment_qubits: int = 8     # 2-atom fragment + bath -> 4 orbitals
    atoms_per_fragment: int = 2
    seed: int = 0
    #: relative std-dev of per-group wave times (OS noise / network jitter).
    #: Waves end at the *slowest* of G concurrent groups, and the expected
    #: maximum of G jittered times grows like sigma*sqrt(2 ln G) - the
    #: straggler effect that keeps measured efficiency below 100% at scale.
    straggler_sigma: float = 0.06

    def _fragment_strings(self) -> list[Task]:
        return synthetic_fragment_strings(self.fragment_qubits, seed=self.seed)

    def _straggler_factor(self, n_groups: int) -> float:
        if n_groups < 2 or self.straggler_sigma <= 0.0:
            return 1.0
        return 1.0 + self.straggler_sigma * float(
            np.sqrt(2.0 * np.log(n_groups)))

    def _time_for(self, n_atoms: int, n_processes: int) -> ScalingPoint:
        if n_processes % self.processes_per_group:
            raise ValidationError(
                f"{n_processes} processes not a multiple of the "
                f"{self.processes_per_group}-process groups"
            )
        n_fragments = n_atoms // self.atoms_per_fragment
        n_groups = n_processes // self.processes_per_group
        strings = self._fragment_strings()
        model = VQEIterationModel(self.machine, self.cost_model)
        t_iter, _ = model.iteration_seconds(strings, self.processes_per_group)
        waves = -(-n_fragments // n_groups)  # ceil
        # groups beyond the fragment count idle; fragments are independent
        # (the paper's "embarrassingly parallel" level) so total time is
        # waves x per-fragment iteration time (stretched by the slowest
        # concurrent group) + one final scalar reduction
        t_total = (waves * t_iter * self._straggler_factor(n_groups)
                   + self.machine.reduce_time(16, n_processes))
        return ScalingPoint(
            n_processes=n_processes,
            n_cores=self.machine.cores_for_processes(n_processes),
            n_fragments=n_fragments,
            n_waves=waves,
            time_s=t_total,
        )

    def strong_scaling(self) -> list[ScalingPoint]:
        """Fixed problem, growing machine (Fig. 12)."""
        points = [self._time_for(STRONG_SCALING_ATOMS, p)
                  for p in STRONG_SCALING_PROCESSES]
        base = points[0]
        for p in points:
            p.speedup = base.time_s / p.time_s
            ideal = p.n_processes / base.n_processes
            p.efficiency = p.speedup / ideal
        return points

    def weak_scaling(self) -> list[ScalingPoint]:
        """Problem grows with the machine (Fig. 13)."""
        points = [self._time_for(a, p) for a, p in WEAK_SCALING_POINTS]
        base = points[0]
        for p in points:
            p.efficiency = base.time_s / p.time_s
            p.speedup = p.n_processes / base.n_processes * p.efficiency
        return points
