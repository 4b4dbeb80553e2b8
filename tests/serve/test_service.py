"""Unit tests for the job service and its request vocabulary."""

from __future__ import annotations

import pytest

from repro.common.errors import ReproError, ValidationError
from repro.serve import JobService, JobSpec
from repro.serve.jobs import NON_RESULT_FIELDS


class TestJobSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown job kind"):
            JobSpec(kind="teleport")

    def test_rejects_unknown_optimizer(self):
        """At submit, not when the job runs; "spsa" is retired."""
        for name in ("bogus", "spsa"):
            with pytest.raises(ValidationError, match="unknown optimizer"):
                JobSpec(kind="vqe", optimizer=name)

    @pytest.mark.parametrize("field,name", [
        ("simulator", "quantum"),
        ("solver", "vqe-quantum"),
        # names are exact: "MPS" would be a second spec key for "mps"
        ("simulator", "MPS")])
    def test_rejects_unknown_backend(self, field, name):
        """At submit, listing the known names, not when the job runs."""
        prefix = "vqe-" if field == "solver" else ""
        kind = "dmet" if field == "solver" else "vqe"
        with pytest.raises(ValidationError,
                           match=rf"unknown backend '{name}'; known: "
                                 rf"{prefix}density_matrix, {prefix}fast, "
                                 rf"{prefix}mps, {prefix}statevector"):
            JobSpec(kind=kind, **{field: name})

    @pytest.mark.parametrize("molecule", ["benzene", "ring:x"])
    def test_rejects_unknown_molecule(self, molecule):
        """At submit, with the spec vocabulary, not when the job runs."""
        with pytest.raises(ValidationError, match="unknown molecule spec"):
            JobSpec(kind="energy", molecule=molecule, method="hf")

    @pytest.mark.parametrize("bond", [0.0, -1.0, float("inf")])
    def test_rejects_a_bond_that_is_no_length(self, bond):
        """bond=0.0 used to build the default molecule under its own key."""
        with pytest.raises(ValidationError, match="finite length > 0"):
            JobSpec(kind="energy", molecule="h2", bond=bond)

    def test_rejects_a_bond_on_water(self):
        with pytest.raises(ValidationError, match="takes no bond override"):
            JobSpec(kind="energy", molecule="h2o", bond=1.0)

    @pytest.mark.parametrize("molecule", ["ring:3", "chain:5"])
    def test_rejects_an_odd_electron_count(self, molecule):
        """At submit, naming the count, not when RHF runs."""
        count = molecule.partition(":")[2]
        with pytest.raises(ValidationError, match=f"has {count} electrons"):
            JobSpec(kind="energy", molecule=molecule, method="hf")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_a_budget_below_one(self, budget):
        """At submit: an adam job at budget 0 used to end, when it ran, as
        "list index out of range"."""
        payload = {"kind": "vqe", "molecule": "h2", "optimizer": "adam",
                   "max_iterations": budget}
        with pytest.raises(ValidationError, match="max_iterations"):
            JobSpec.from_dict(payload)

    def test_rejects_unknown_energy_method(self):
        with pytest.raises(ValidationError, match="unknown energy method"):
            JobSpec(kind="energy", method="vqe")

    def test_from_dict_rejects_unknown_fields(self):
        for entry, field in (
                ({"kind": "energy", "molcule": "h2"}, "molcule"),
                # retired with the level-2 dispatch: workers are not physics
                ({"kind": "vqe", "parallel": "thread"}, "parallel"),
                ({"kind": "vqe", "n_workers": 2}, "n_workers"),
                # retired with the MPO <H> arm: one measurement path
                ({"kind": "vqe", "measurement": "sweep"}, "measurement"),
                # retired with SPSA: every optimizer is deterministic
                ({"kind": "vqe", "seed": 3}, "seed"),
                # retired with checkpoint/resume: no served job resumes
                ({"kind": "vqe", "checkpoint_every": 5}, "checkpoint_every"),
                ({"kind": "vqe", "optimizer": "adam",
                  "checkpoint_path": "run.ckpt"}, "checkpoint_path"),
                ({"kind": "vqe", "optimizer": "adam", "resume": True},
                 "resume")):
            with pytest.raises(
                    ValidationError,
                    match=rf"unknown job spec field\(s\) \['{field}'\]"):
                JobSpec.from_dict(entry)

    def test_dict_round_trip(self):
        spec = JobSpec(kind="vqe", molecule="lih", simulator="mps",
                       tag="t1")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_spec_key_ignores_the_tag(self):
        base = JobSpec(kind="vqe", molecule="h2")
        relabeled = JobSpec(kind="vqe", molecule="h2", tag="other")
        assert base.spec_key() == relabeled.spec_key()
        assert NON_RESULT_FIELDS == ("tag",)

    def test_spec_key_separates_physics(self):
        base = JobSpec(kind="vqe", molecule="h2")
        for change in ({"molecule": "lih"}, {"simulator": "mps"},
                       {"max_iterations": 7}, {"basis": "STO-3G".lower()},
                       {"kind": "energy"}):
            if change == {"basis": "sto-3g"}:
                continue  # same value, not a perturbation
            other = JobSpec(**{**base.to_dict(), **change})
            if other != base:
                assert other.spec_key() != base.spec_key()

    def test_batch_key_groups_backend_compatible_work(self):
        a = JobSpec(kind="vqe", molecule="h2", simulator="mps",
                    optimizer="cobyla")
        b = JobSpec(kind="vqe", molecule="h2", simulator="mps",
                    optimizer="adam", grad="adjoint")
        c = JobSpec(kind="vqe", molecule="h2", simulator="statevector")
        assert a.batch_key() == b.batch_key()
        assert a.batch_key() != c.batch_key()


class TestServiceLifecycle:
    def test_submit_status_result(self):
        with JobService(observe=False) as service:
            job_id = service.submit({"kind": "energy", "molecule": "h2",
                                     "method": "hf"})
            assert job_id == "job-0001"
            result = service.result(job_id, timeout=60)
            assert service.status(job_id) == "done"
            assert result["energy"] == pytest.approx(-1.1166843870840548)

    def test_failed_job_raises_on_result(self):
        with JobService(observe=False) as service:
            # grad with a gradient-free optimizer fails inside the job
            job_id = service.submit(JobSpec(
                kind="vqe", molecule="h2", simulator="statevector",
                optimizer="cobyla", grad="adjoint"))
            with pytest.raises(ReproError, match="ValidationError"):
                service.result(job_id, timeout=60)
            record = service.record(job_id)
            assert record.status == "error"
            assert record.error_type == "ValidationError"
            assert "gradient-free" in record.error

    def test_dmet_job_forwards_the_vqe_options(self):
        """``optimizer`` / ``max_iterations`` / ``tolerance`` reach the
        fragment solver: they were dropped, so a starved job returned the
        4,000-iteration energy (under its own result-cache key)."""
        from repro.chem.geometry import molecule_from_spec
        from repro.q2chem import Q2Chemistry

        full = JobSpec(kind="dmet", molecule="h2", solver="vqe-statevector",
                       atoms_per_group=1)
        starved = JobSpec(**{**full.to_dict(), "max_iterations": 3})
        with JobService(observe=False) as service:
            ids = [service.submit(spec) for spec in (starved, full)]
            short, long = (service.result(i, timeout=120)["energy"]
                           for i in ids)
        assert short != long
        direct = Q2Chemistry.from_molecule(
            molecule_from_spec("h2")).dmet_energy(
                solver="vqe-statevector", atoms_per_group=1,
                vqe_optimizer=starved.optimizer, vqe_max_iterations=3,
                vqe_tolerance=starved.tolerance)
        assert short == direct.energy

    def test_failed_job_does_not_poison_the_service(self):
        with JobService(observe=False) as service:
            # a valid spec that fails when run: COBYLA needs more
            # evaluations than H2's UCCSD has parameters plus two.  It
            # shares the good job's batch, which runs the energy first.
            bad = service.submit(JobSpec(kind="vqe", molecule="h2",
                                         optimizer="cobyla",
                                         max_iterations=2))
            good = service.submit(JobSpec(kind="energy", molecule="h2"))
            assert service.result(good, timeout=60)["energy"] < -1.0
            service.wait([bad], timeout=60)
            assert service.status(bad) == "error"

    def test_unknown_job_id(self):
        with JobService(observe=False) as service:
            with pytest.raises(ValidationError, match="unknown job id"):
                service.status("job-9999")

    def test_resume_request_is_rejected_at_submit(self):
        """Checkpoint/resume is retired: a request naming it fails at
        submit with a structured error, and no job is queued."""
        request = {"kind": "vqe", "molecule": "h2",
                   "simulator": "statevector", "optimizer": "adam",
                   "max_iterations": 5, "checkpoint_path": "run.ckpt",
                   "resume": True}
        with JobService(observe=False) as service:
            with pytest.raises(
                    ValidationError,
                    match=r"unknown job spec field\(s\) "
                          r"\['checkpoint_path', 'resume'\]"):
                service.submit(request)
            assert service.stats()["jobs"]["submitted"] == 0

    def test_submit_after_close_rejected(self):
        service = JobService(observe=False)
        service.close()
        with pytest.raises(ValidationError, match="closed"):
            service.submit(JobSpec(kind="energy", molecule="h2"))

    def test_close_is_idempotent_and_drains(self):
        service = JobService(observe=False)
        job_id = service.submit(JobSpec(kind="energy", molecule="h2"))
        service.close()
        service.close()
        assert service.status(job_id) == "done"

    def test_submit_rejects_wrong_type(self):
        with JobService(observe=False) as service:
            with pytest.raises(ValidationError, match="JobSpec or dict"):
                service.submit(["kind", "energy"])

    @pytest.mark.parametrize("field,value", [
        ("molecule", 7), ("max_iterations", "ten"), ("bond", "far"),
        # "resume" is no longer a field: rejected as unknown, by name
        ("simulator", 7), ("max_bond_dimension", 1.5), ("resume", "yes"),
        ("max_iterations", True), ("tolerance", None)])
    def test_mistyped_payload_is_rejected_at_submit(self, field, value):
        """``molecule=7`` used to be queued, raise ``AttributeError`` in
        the scheduler's ``batch_key()`` - outside the per-job isolation -
        and leave that job and every later one ``queued`` forever."""
        with JobService(observe=False) as service:
            with pytest.raises(ValidationError, match=repr(field)):
                service.submit({"kind": "energy", field: value})
            good = service.submit({"kind": "energy", "molecule": "h2"})
            assert service.result(good, timeout=60)["energy"] < -1.0
            assert service.status(good) == "done"

    def test_well_typed_payloads_still_pass(self):
        # the serve_mix request shapes, and an int where a float is declared
        for entry in ({"kind": "energy", "molecule": "h2", "bond": 1.5},
                      {"kind": "dmet", "molecule": "chain:4"},
                      {"kind": "energy", "molecule": "h2", "bond": 1},
                      {"kind": "vqe", "tolerance": 1, "max_iterations": 3,
                       "max_bond_dimension": None}):
            assert JobSpec.from_dict(entry).to_dict().items() \
                >= entry.items()

    def test_result_timeout(self):
        # close() drains queued work, so keep the job seconds-scale:
        # LiH FCI takes long enough that a 0.1 ms wait always expires
        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(
                kind="energy", molecule="lih", method="fci"))
            with pytest.raises(TimeoutError):
                service.result(job_id, timeout=1e-4)


class TestSchedulerSemantics:
    def test_batches_group_compatible_jobs(self):
        specs = [
            JobSpec(kind="energy", molecule="h2", method="hf"),
            JobSpec(kind="energy", molecule="lih", method="hf"),
            JobSpec(kind="energy", molecule="h2", method="fci"),
        ]
        with JobService(observe=False) as service:
            job_ids = [service.submit(spec) for spec in specs]
            service.wait(job_ids, timeout=120)
            records = [service.record(job_id) for job_id in job_ids]
        batches = {r.batch[1] for r in records}
        assert all(r.batch is not None for r in records)
        # two compatibility classes: (h2, sto-3g, ...) and (lih, sto-3g, ...)
        assert len(batches) == 2
        h2_batches = {r.batch[0] for r in records
                      if r.spec.molecule == "h2"}
        assert len(h2_batches) == 1  # both h2 jobs rode one batch

    def test_stats_shape(self):
        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(kind="energy", molecule="h2"))
            service.wait([job_id], timeout=60)
            stats = service.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["jobs"]["submitted"] == 1
        assert stats["batches"] >= 1
        assert stats["busy_s"] > 0
        assert stats["throughput_jobs_per_s"] > 0
        assert stats["cache"]["max_bytes"] > 0

    def test_results_are_isolated_copies(self):
        """Mutating a returned result cannot poison the cache."""
        with JobService(observe=False) as service:
            spec = JobSpec(kind="energy", molecule="h2", method="hf")
            first = service.result(service.submit(spec), timeout=60)
            first["energy"] = 123.0
            second = service.result(service.submit(spec), timeout=60)
        assert second["energy"] != 123.0

    def test_cache_budget_is_respected(self):
        tiny = 16 << 10  # too small for a prepared system: evict/refuse
        with JobService(observe=False, max_cache_bytes=tiny) as service:
            ids = [service.submit(JobSpec(kind="energy", molecule="h2",
                                          method="hf")),
                   service.submit(JobSpec(kind="energy", molecule="lih",
                                          method="hf"))]
            service.wait(ids, timeout=120)
            stats = service.stats()
            results = [service.record(i).result for i in ids]
        assert stats["cache"]["bytes"] <= tiny
        assert all(r is not None for r in results)

    def test_close_restores_previous_store(self):
        """Nested services: closing the inner one hands the process back
        to the outer one's store, closing the outer one to the default."""
        from repro.common import cache
        from repro.operators.pauli import PauliTerm, QubitOperator
        from repro.simulators.pauli_kernels import compile_observable

        op = QubitOperator.from_term(PauliTerm.from_label("ZX"), 0.5)
        default = cache.current()
        with JobService(observe=False) as outer:
            with JobService(observe=False) as inner:
                assert cache.current() is inner.cache
            assert cache.current() is outer.cache
            compile_observable(op, 2)
            compile_observable(op, 2)
            tally = outer.stats()["cache"]["namespaces"]["pauli.observable"]
            assert tally == {"hits": 1, "misses": 1, "evictions": 0}
            assert "pauli.observable" not in \
                inner.stats()["cache"]["namespaces"]
        assert cache.current() is default


class TestFailureFlightDumps:
    def test_failed_job_record_carries_flight_dump(self):
        from repro.obs.flight import validate_flight

        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(
                kind="vqe", molecule="h2", simulator="statevector",
                optimizer="cobyla", grad="adjoint"))
            service.wait(timeout=60)
            record = service.record(job_id)
        assert record.status == "error"
        validate_flight(record.flight)
        names = [(ev["kind"], ev["name"]) for ev in record.flight["events"]]
        assert ("serve", "job_start") in names
        assert ("serve", "job_error") in names

    def test_result_reraise_carries_the_dump(self):
        from repro.obs.flight import validate_flight

        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(
                kind="vqe", molecule="h2", simulator="statevector",
                optimizer="cobyla", grad="adjoint"))
            try:
                service.result(job_id, timeout=60)
            except ReproError as exc:
                validate_flight(exc.flight)
            else:
                raise AssertionError("expected the job failure to re-raise")

    def test_failed_job_summary_exposes_the_dump(self):
        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(kind="vqe", molecule="h2",
                                            optimizer="cobyla",
                                            max_iterations=2))
            service.wait(timeout=60)
            summary = service.record(job_id).summary()
        assert summary["status"] == "error"
        assert summary["flight"]["schema"] == "repro.obs.flight/1"

    def test_successful_job_has_no_dump(self):
        with JobService(observe=False) as service:
            job_id = service.submit(JobSpec(kind="energy", molecule="h2"))
            service.result(job_id, timeout=60)
            record = service.record(job_id)
        assert record.flight is None
        assert "flight" not in record.summary()

    def test_failed_job_still_writes_valid_metrics(self):
        """--metrics-out must stay a valid document when the request
        fails mid-batch."""
        import json

        from repro.obs.export import validate_document

        with JobService(observe=True) as service:
            job_id = service.submit(JobSpec(
                kind="vqe", molecule="h2", simulator="statevector",
                optimizer="cobyla", grad="adjoint"))
            service.wait(timeout=60)
            record = service.record(job_id)
        assert record.status == "error"
        assert record.metrics is not None
        validate_document(json.loads(json.dumps(record.metrics)))


class TestServeSpans:
    def test_job_span_lands_in_the_request_receipt(self):
        with JobService(observe=True, trace=True) as service:
            job_id = service.submit(JobSpec(kind="energy", molecule="h2"))
            service.result(job_id, timeout=60)
            record = service.record(job_id)
        names = [s["name"] for s in record.metrics.get("spans", [])]
        assert "serve.job" in names

    def test_batch_span_recorded_under_global_tracing(self):
        """serve.batch wraps a whole compatibility batch, so it lives
        outside the per-job collect scopes - a session-wide trace sees
        it (one bar per scheduler drain)."""
        from repro import obs
        from repro.obs.trace import TRACER

        with obs.collect(trace=True):
            with JobService(observe=False) as service:
                job_id = service.submit(JobSpec(kind="energy",
                                                molecule="h2"))
                service.result(job_id, timeout=60)
            names = [s["name"] for s in TRACER.snapshot()]
        assert "serve.batch" in names
        assert "serve.job" in names
