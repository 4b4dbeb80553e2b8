"""Figs. 12-13: strong and weak scaling to 21,299,200 cores.

The decomposition and LPT scheduling execute for real; communication and
time come from the closed-form SW26010Pro machine model with kernel costs
calibrated against this machine's measured MPS timings (DESIGN.md
substitution #1).

Paper targets: strong scaling of the H1280 chain from 10,240 to 327,680
processes with >=92% efficiency and 30x speedup; weak scaling (40..1280
atoms) at ~92% efficiency.
"""

import pytest

from repro.parallel.perfmodel import (
    CircuitCostModel,
    ScalingExperiment,
    VQEIterationModel,
    synthetic_fragment_strings,
)
from repro.parallel.topology import SunwayMachine

from conftest import print_table


@pytest.fixture(scope="module")
def experiment():
    cost = CircuitCostModel.calibrate(bond_dimension=16,
                                      qubit_sizes=(8, 12, 16), n_layers=1)
    return ScalingExperiment(cost_model=cost)


def test_fig12_strong_scaling(benchmark, experiment):
    points = benchmark.pedantic(experiment.strong_scaling, rounds=1,
                                iterations=1)
    rows = [[p.n_processes, p.n_cores, p.n_waves, p.time_s, p.speedup,
             p.efficiency * 100] for p in points]
    print_table(
        "Fig 12: strong scaling, H1280 chain (640 fragments, 2048 "
        "procs/group)",
        ["processes", "cores", "waves", "time (s)", "speedup", "eff %"],
        rows,
        "paper: 30x speedup and >=92% parallel efficiency from 10,240 to "
        "327,680 processes (665,600 to 21,299,200 cores)",
    )
    last = points[-1]
    assert last.n_cores == 21_299_200
    assert 28.0 <= last.speedup <= 32.0
    assert last.efficiency >= 0.92
    speedups = [p.speedup for p in points]
    assert speedups == sorted(speedups)


def test_fig13_weak_scaling(benchmark, experiment):
    points = benchmark.pedantic(experiment.weak_scaling, rounds=1,
                                iterations=1)
    rows = [[p.n_processes, p.n_cores, p.n_fragments * 2, p.time_s,
             p.efficiency * 100] for p in points]
    print_table(
        "Fig 13: weak scaling, hydrogen chains growing with the machine",
        ["processes", "cores", "atoms", "time (s)", "eff %"],
        rows,
        "paper: ~92% weak-scaling efficiency at 327,680 processes "
        "(21,299,200 cores) relative to 10,240 processes",
    )
    assert points[-1].efficiency >= 0.92
    # weak scaling: time grows only mildly while the problem grows 32x
    assert points[-1].time_s < 1.15 * points[0].time_s


def test_fig4_communication_profile(benchmark):
    """The Fig. 4 communication pattern: tiny bcast+reduce per iteration.

    Paper measurement: ~15.6 KB per process and <0.001 s of communication
    per VQE iteration.
    """
    model = VQEIterationModel(SunwayMachine(), CircuitCostModel())
    t_iter, bd = benchmark.pedantic(
        lambda: model.iteration_seconds(synthetic_fragment_strings(8), 2048),
        rounds=1, iterations=1)
    comm_per_iter = bd["bcast_s"] + bd["reduce_s"]
    print_table(
        "Fig 4 profile: per-iteration communication of one sub-group",
        ["bytes/proc/iter", "comm s/iter", "comm share %"],
        [[bd["bytes_per_process"], comm_per_iter,
          comm_per_iter / t_iter * 100]],
        "paper: 15.6 KB/process, <0.001 s communication per VQE iteration",
    )
    assert bd["bytes_per_process"] < 15_600
    assert comm_per_iter < 1e-3
