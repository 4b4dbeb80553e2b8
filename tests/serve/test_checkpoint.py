"""Fault-injection tests for checkpoint/resume.

The contract (docs/SERVING.md): kill a VQE optimization at iteration k,
resume from its checkpoint, and the resumed run finishes on a trajectory
**bitwise identical** to the uninterrupted one - energy, parameters,
history and evaluation counts - on both the statevector and MPS
backends, for adam (theta and its moments).  Damaged checkpoints
(truncated, corrupted, wrong schema, optimizer mismatch) raise a structured
:class:`CheckpointError` - resuming **never** silently restarts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.common.errors import CheckpointError, ValidationError
from repro.serve.checkpoint import (
    CKPT_SCHEMA,
    CheckpointWriter,
    load_checkpoint,
    save_checkpoint,
)
from repro.vqe.vqe import VQE


class KillSignal(Exception):
    """Stands in for the process dying mid-optimization."""


@pytest.fixture(scope="module")
def h2_problem():
    from repro.chem.geometry import h2
    from repro.chem import mo as momod
    from repro.chem.scf import RHF
    from repro.circuits.uccsd import UCCSDAnsatz
    from repro.operators.molecular import molecular_qubit_hamiltonian

    rhf = RHF(h2(), "sto-3g")
    scf = rhf.run()
    momod.attach_eri(scf, rhf.engine.eri())
    mo = momod.from_scf(scf)
    ham = molecular_qubit_hamiltonian(mo)
    return ham, UCCSDAnsatz(mo.n_orbitals, mo.n_electrons)


def _vqe(ham, ansatz, *, optimizer, backend, **kwargs):
    return VQE(ham, ansatz, simulator=backend, optimizer=optimizer,
               max_iterations=10, tolerance=0.0, **kwargs)


def _run_killed_then_resumed(ham, ansatz, tmp_path, monkeypatch, *,
                             optimizer, backend, kill_at):
    """(uninterrupted result, resumed-after-kill result)."""
    ckpt = str(tmp_path / f"{optimizer}-{backend}.ckpt")
    full = _vqe(ham, ansatz, optimizer=optimizer, backend=backend).run()

    original = CheckpointWriter.__call__

    def killing(self, state):
        original(self, state)
        if int(state["iteration"]) >= kill_at:
            raise KillSignal(f"killed at iteration {state['iteration']}")

    monkeypatch.setattr(CheckpointWriter, "__call__", killing)
    with pytest.raises(KillSignal):
        _vqe(ham, ansatz, optimizer=optimizer, backend=backend,
             checkpoint_path=ckpt).run()
    monkeypatch.setattr(CheckpointWriter, "__call__", original)

    assert load_checkpoint(ckpt)["iteration"] == kill_at
    resumed = _vqe(ham, ansatz, optimizer=optimizer, backend=backend,
                   checkpoint_path=ckpt, resume=True).run()
    return full, resumed


class TestKillAndResumeBitwise:
    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    def test_adam_resumes_bitwise(self, h2_problem, tmp_path, monkeypatch,
                                  backend):
        ham, ansatz = h2_problem
        full, resumed = _run_killed_then_resumed(
            ham, ansatz, tmp_path, monkeypatch,
            optimizer="adam", backend=backend, kill_at=4)
        assert resumed.energy == full.energy
        assert np.array_equal(resumed.parameters, full.parameters)
        assert resumed.history == full.history
        assert resumed.n_iterations == full.n_iterations
        assert resumed.n_evaluations == full.n_evaluations

    def test_missing_checkpoint_with_resume_starts_fresh(self, h2_problem,
                                                         tmp_path):
        """resume=True against a never-written path = a fresh run."""
        ham, ansatz = h2_problem
        ckpt = str(tmp_path / "never-written.ckpt")
        fresh = _vqe(ham, ansatz, optimizer="adam",
                     backend="statevector").run()
        resumed = _vqe(ham, ansatz, optimizer="adam", backend="statevector",
                       checkpoint_path=ckpt, resume=True).run()
        assert resumed.energy == fresh.energy
        assert np.array_equal(resumed.parameters, fresh.parameters)


class TestDamagedCheckpoints:
    @pytest.fixture()
    def valid_ckpt(self, tmp_path):
        path = tmp_path / "valid.ckpt"
        save_checkpoint(path, optimizer="adam", iteration=3, state={
            "iteration": 3, "x": np.arange(4.0), "m": np.zeros(4),
            "v": np.zeros(4), "prev": -1.0, "history": [-0.5, -0.8, -1.0],
            "n_evaluations": 9,
        })
        return path

    def test_round_trip_is_byte_exact(self, valid_ckpt):
        doc = load_checkpoint(valid_ckpt, expect_optimizer="adam")
        assert doc["iteration"] == 3
        x = doc["state"]["x"]
        assert x.dtype == np.float64
        assert np.array_equal(x, np.arange(4.0))
        assert doc["state"]["history"] == [-0.5, -0.8, -1.0]

    def test_truncated_raises_structured_error(self, valid_ckpt):
        text = valid_ckpt.read_text()
        valid_ckpt.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(valid_ckpt)
        assert err.value.reason == "truncated"
        assert err.value.path == str(valid_ckpt)

    def test_corrupted_payload_fails_checksum(self, valid_ckpt):
        doc = json.loads(valid_ckpt.read_text())
        blob = doc["payload"]["x"]["__ndarray__"]
        doc["payload"]["x"]["__ndarray__"] = \
            ("A" if blob[0] != "A" else "B") + blob[1:]
        valid_ckpt.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(valid_ckpt)
        assert err.value.reason == "checksum"

    def test_unknown_schema_rejected(self, valid_ckpt):
        doc = json.loads(valid_ckpt.read_text())
        doc["schema"] = "repro.ckpt/99"
        valid_ckpt.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(valid_ckpt)
        assert err.value.reason == "schema"

    def test_missing_field_rejected(self, valid_ckpt):
        doc = json.loads(valid_ckpt.read_text())
        del doc["checksum"]
        valid_ckpt.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(valid_ckpt)
        assert err.value.reason == "truncated"

    def test_optimizer_mismatch_rejected(self, valid_ckpt):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(valid_ckpt, expect_optimizer="spsa")
        assert err.value.reason == "mismatch"

    def test_missing_file_reason(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(tmp_path / "nope.ckpt")
        assert err.value.reason == "missing"

    def test_vqe_resume_surfaces_damage_never_restarts(self, h2_problem,
                                                       valid_ckpt):
        """A damaged checkpoint propagates out of VQE.run, structured."""
        ham, ansatz = h2_problem
        text = valid_ckpt.read_text()
        valid_ckpt.write_text(text[:-40])
        vqe = _vqe(ham, ansatz, optimizer="adam", backend="statevector",
                   checkpoint_path=str(valid_ckpt), resume=True)
        with pytest.raises(CheckpointError):
            vqe.run()

    def test_service_job_reports_checkpoint_error(self, valid_ckpt):
        """Through the service: a damaged resume job errors, structured."""
        from repro.serve import JobService, JobSpec

        valid_ckpt.write_text(valid_ckpt.read_text()[:-40])
        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(
                kind="vqe", molecule="h2", simulator="statevector",
                optimizer="adam", max_iterations=5,
                checkpoint_path=str(valid_ckpt), resume=True))
            service.wait([job_id], timeout=120)
            record = service.record(job_id)
        assert record.status == "error"
        assert record.error_type == "CheckpointError"


class TestWriterAndValidation:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "atomic.ckpt"
        save_checkpoint(path, optimizer="adam", iteration=1,
                        state={"iteration": 1, "x": np.ones(3)})
        assert not (tmp_path / "atomic.ckpt.tmp").exists()
        assert json.loads(path.read_text())["schema"] == CKPT_SCHEMA

    def test_unserializable_state_rejected(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(tmp_path / "bad.ckpt", optimizer="adam",
                            iteration=1, state={"f": lambda: None})
        assert err.value.reason == "schema"

    def test_checkpoint_needs_iteration_optimizer(self, h2_problem,
                                                  tmp_path):
        ham, ansatz = h2_problem
        with pytest.raises(ValidationError, match="cannot checkpoint"):
            VQE(ham, ansatz, simulator="statevector", optimizer="cobyla",
                checkpoint_path=str(tmp_path / "x.ckpt"))

    def test_resume_requires_checkpoint_path(self, h2_problem):
        ham, ansatz = h2_problem
        with pytest.raises(ValidationError, match="checkpoint_path"):
            VQE(ham, ansatz, simulator="statevector", optimizer="adam",
                resume=True)


class TestCheckpointFlightDump:
    def test_rejected_load_carries_flight_dump(self, tmp_path):
        from repro.obs.flight import validate_flight

        with pytest.raises(CheckpointError) as err:
            load_checkpoint(tmp_path / "never_written.ckpt")
        dump = err.value.flight
        validate_flight(dump)
        # the ring recorded its own rejection before the attach
        assert any(ev["kind"] == "checkpoint"
                   and ev["name"] == "load_rejected"
                   and ev["data"]["reason"] == "missing"
                   for ev in dump["events"])

    def test_save_and_load_leave_flight_breadcrumbs(self, tmp_path):
        from repro.obs.flight import FLIGHT

        FLIGHT.reset()
        path = tmp_path / "bc.ckpt"
        save_checkpoint(path, optimizer="adam", iteration=1,
                        state={"iteration": 1})
        load_checkpoint(path)
        names = [(ev["kind"], ev["name"])
                 for ev in FLIGHT.snapshot()["events"]]
        assert ("checkpoint", "save") in names
        assert ("checkpoint", "load") in names
