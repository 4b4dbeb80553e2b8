"""Tests for the Sunway machine model."""

import pytest

from repro.common.errors import ValidationError
from repro.parallel.topology import SW26010Pro, SunwayMachine


class TestProcessor:
    def test_core_counts(self):
        """Paper Sec. II-B: 6 CGs x (1 MPE + 64 CPEs) = 390 cores."""
        p = SW26010Pro()
        assert p.cores_per_cg == 65
        assert p.cores == 390
        assert p.memory_gb == 96.0

    def test_paper_headline_core_count(self):
        """327,680 processes = 21,299,200 cores (the paper's maximum)."""
        m = SunwayMachine()
        assert m.cores_for_processes(327_680) == 21_299_200

    def test_process_bounds(self):
        m = SunwayMachine(n_processors=2)
        assert m.max_processes == 12
        with pytest.raises(ValidationError):
            m.cores_for_processes(13)

    def test_bcast_time_grows_logarithmically(self):
        m = SunwayMachine()
        t2 = m.bcast_time(1024, 2)
        t1024 = m.bcast_time(1024, 1024)
        assert t1024 > t2
        assert t1024 / t2 == pytest.approx(10.0, rel=0.01)  # log2(1024)=10

    def test_bcast_single_process_free(self):
        assert SunwayMachine().bcast_time(10 ** 6, 1) == 0.0
