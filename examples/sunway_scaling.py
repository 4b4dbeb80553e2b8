#!/usr/bin/env python
"""Replay of the paper's 20-million-core scaling runs (Figs. 12-13).

The decomposition (DMET fragments -> 2048-process sub-groups -> LPT-balanced
Pauli-string circuits) runs for real; communication and the clock come from
the closed-form SW26010Pro machine model, with kernel costs calibrated from
this machine's measured MPS timings.  See DESIGN.md substitution #1.

Usage:  python examples/sunway_scaling.py [--calibrate]
"""

import sys

from repro.parallel.perfmodel import (
    CircuitCostModel,
    ScalingExperiment,
    VQEIterationModel,
    synthetic_fragment_strings,
)


def main() -> None:
    if "--calibrate" in sys.argv:
        print("calibrating kernel cost model against the local MPS "
              "simulator ...")
        cost = CircuitCostModel.calibrate(bond_dimension=32,
                                          qubit_sizes=(8, 12, 16))
        print(f"  k_gate = {cost.k_gate:.3e} s/D^3, "
              f"overhead = {cost.overhead:.3e} s\n")
        exp = ScalingExperiment(cost_model=cost)
    else:
        exp = ScalingExperiment()

    print("STRONG SCALING - H1280 chain, 640 fragments, 2048 procs/group "
          "(paper Fig. 12)")
    print(f"{'processes':>10} {'cores':>12} {'waves':>6} {'time(s)':>9} "
          f"{'speedup':>8} {'eff':>6}")
    for p in exp.strong_scaling():
        print(f"{p.n_processes:>10,} {p.n_cores:>12,} {p.n_waves:>6} "
              f"{p.time_s:>9.3f} {p.speedup:>8.2f} "
              f"{p.efficiency * 100:>5.1f}%")
    print("(paper: 30x speedup, >=92% efficiency at 327,680 processes)\n")

    print("WEAK SCALING - chain grows with the machine (paper Fig. 13)")
    print(f"{'processes':>10} {'cores':>12} {'atoms':>6} {'time(s)':>9} "
          f"{'eff':>6}")
    for (atoms, _), p in zip(((40, 0), (80, 0), (320, 0), (1280, 0)),
                             exp.weak_scaling()):
        print(f"{p.n_processes:>10,} {p.n_cores:>12,} "
              f"{p.n_fragments * 2:>6} {p.time_s:>9.3f} "
              f"{p.efficiency * 100:>5.1f}%")
    print("(paper: ~92% weak-scaling efficiency at 21,299,200 cores)\n")

    print("COMMUNICATION PROFILE - one sub-group iteration")
    model = VQEIterationModel(exp.machine, exp.cost_model)
    t_iter, bd = model.iteration_seconds(synthetic_fragment_strings(8), 2048)
    comm_s = bd["bcast_s"] + bd["reduce_s"]
    print(f"  bytes/process/iteration : {bd['bytes_per_process']:.0f}"
          f"   (paper: ~15.6 KB incl. runtime overheads)")
    print(f"  comm share of iteration : {comm_s / t_iter * 100:.3f}%"
          f"   ({comm_s:.1e} s; paper: <0.001 s per iteration)")


if __name__ == "__main__":
    main()
