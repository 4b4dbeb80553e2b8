"""Tests for the calibrated performance model and scaling experiments."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.parallel.perfmodel import (
    CircuitCostModel,
    ScalingExperiment,
    VQEIterationModel,
    synthetic_fragment_strings,
)
from repro.parallel.topology import SunwayMachine


#: (n_processes, time_s, speedup, efficiency) of the default strong and weak
#: scaling curves - the numbers behind EXPERIMENTS.md "Figs. 12-13"
PINNED_CURVES = [
    [(10240, 15.474769099366469, 1.0, 1.0),
     (20480, 7.884866803119436, 1.962591060288335, 0.9812955301441675),
     (40960, 4.005692294981894, 3.8631946639417087, 0.9657986659854272),
     (81920, 2.030993313582427, 7.619310706676253, 0.9524138383345316),
     (163840, 1.0283100478633989, 15.04873858961081, 0.9405461618506756),
     (327680, 0.5200833029074711, 29.754404751808792, 0.9298251484940248)],
    [(10240, 0.4836136864802022, 1.0, 1.0),
     (20480, 0.4928323283199648, 1.962589135046443, 0.9812945675232215),
     (81920, 0.5077738538956068, 7.61935547125872, 0.95241943390734),
     (327680, 0.5200833029074711, 29.756075384177, 0.9298773557555312)],
]


class TestCircuitCostModel:
    def test_cubic_in_bond_dimension(self):
        small = CircuitCostModel(bond_dimension=32)
        large = CircuitCostModel(bond_dimension=64)
        assert large.gate_seconds() / small.gate_seconds() == pytest.approx(8.0)

    def test_circuit_seconds_linear_in_gates(self):
        m = CircuitCostModel()
        t100 = m.circuit_seconds(100) - m.overhead
        t200 = m.circuit_seconds(200) - m.overhead
        assert t200 == pytest.approx(2 * t100)

    def test_negative_gates_rejected(self):
        with pytest.raises(ValidationError):
            CircuitCostModel().circuit_seconds(-1)

    def test_calibration_produces_positive_constants(self):
        model = CircuitCostModel.calibrate(bond_dimension=16,
                                           qubit_sizes=(6, 8), n_layers=1)
        assert model.k_gate > 0
        assert model.overhead >= 0


class TestSyntheticStrings:
    def test_count_follows_quartic_law(self):
        """Anchored at H2's measured 15 strings at 4 qubits."""
        assert len(synthetic_fragment_strings(4)) == 15
        assert len(synthetic_fragment_strings(8)) == 240  # 15 * 2^4

    def test_deterministic(self):
        a = synthetic_fragment_strings(8, seed=1)
        b = synthetic_fragment_strings(8, seed=1)
        assert [t.cost for t in a] == [t.cost for t in b]

    def test_spans_within_register(self):
        for t in synthetic_fragment_strings(10):
            assert 2 <= t.cost <= 10


class TestIterationModel:
    def test_breakdown_components(self):
        model = VQEIterationModel(SunwayMachine(), CircuitCostModel())
        strings = synthetic_fragment_strings(8)
        total, bd = model.iteration_seconds(strings, 64)
        assert total == pytest.approx(bd["bcast_s"] + bd["compute_s"]
                                      + bd["reduce_s"])
        assert bd["bytes_per_process"] > 0

    def test_more_processes_less_compute(self):
        model = VQEIterationModel(SunwayMachine(), CircuitCostModel())
        strings = synthetic_fragment_strings(10)
        t16, _ = model.iteration_seconds(strings, 16)
        t128, _ = model.iteration_seconds(strings, 128)
        assert t128 < t16

    def test_communication_is_small_fraction(self):
        """Paper: 15.6 KB and <1ms comm per iteration - comm must be a tiny
        share of one sub-group's iteration."""
        model = VQEIterationModel(SunwayMachine(), CircuitCostModel())
        total, bd = model.iteration_seconds(synthetic_fragment_strings(8), 64)
        assert bd["bcast_s"] + bd["reduce_s"] < 0.05 * total
        # parameter vector + scalar result, well under the paper's 15.6 KB
        assert bd["bytes_per_process"] < 16_000


class TestScalingExperiments:
    def test_strong_scaling_matches_paper(self):
        """Fig. 12: ~30x speedup, >=92% efficiency at 327,680 processes."""
        points = ScalingExperiment().strong_scaling()
        last = points[-1]
        assert last.n_processes == 327_680
        assert last.n_cores == 21_299_200
        assert 28.0 <= last.speedup <= 32.0
        assert last.efficiency >= 0.92

    def test_strong_scaling_monotone(self):
        points = ScalingExperiment().strong_scaling()
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)
        assert all(p.efficiency <= 1.0 + 1e-9 for p in points)

    def test_weak_scaling_matches_paper(self):
        """Fig. 13: ~92% weak efficiency at the largest run."""
        points = ScalingExperiment().weak_scaling()
        assert points[-1].efficiency >= 0.92
        assert points[0].efficiency == pytest.approx(1.0)

    def test_wave_structure(self):
        """640 fragments / 160 groups = 4 waves at the paper's maximum."""
        exp = ScalingExperiment()
        p = exp._time_for(1280, 327_680)
        assert p.n_fragments == 640
        assert p.n_waves == 4

    def test_non_divisible_processes_rejected(self):
        with pytest.raises(ValidationError):
            ScalingExperiment()._time_for(1280, 1000)

    def test_more_groups_faster(self):
        exp = ScalingExperiment(processes_per_group=32)
        slow = exp._time_for(16, 32)
        fast = exp._time_for(16, 256)
        assert (slow.n_waves, fast.n_waves) == (8, 1)
        assert fast.time_s < slow.time_s

    def test_curves_pinned(self):
        """The one replay must not drift: the values `python -m repro
        scaling` and EXPERIMENTS.md "Figs. 12-13" print (29.75x, 93.0%)."""
        exp = ScalingExperiment()
        curves = [[(p.n_processes, p.time_s, p.speedup, p.efficiency)
                   for p in points]
                  for points in (exp.strong_scaling(), exp.weak_scaling())]
        assert curves == [pytest.approx(c, rel=1e-12) for c in PINNED_CURVES]

    def test_zero_jitter_gives_ideal_scaling(self):
        exp = ScalingExperiment(straggler_sigma=0.0)
        points = exp.strong_scaling()
        assert points[-1].efficiency == pytest.approx(1.0, abs=1e-3)
