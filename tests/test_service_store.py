"""Job store lifecycle: records, transitions, idempotent submission."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.service import (
    JobRecord,
    JobResult,
    JobStore,
    ProtectionJob,
    SqliteJobStore,
    migrate_store,
    store_from_spec,
)


def _job(seed: int = 1) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=5, seed=seed)


def _result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=job.generations,
        best_score=1.0,
        best_information_loss=1.0,
        best_disclosure_risk=1.0,
        final_scores=(1.0, 2.0),
        mean_improvement_percent=5.0,
        fresh_evaluations=10,
        memo_hits=1,
        persistent_hits=0,
        wall_seconds=0.1,
    )


class TestJobStore:
    def test_layout_created(self, tmp_path):
        store = JobStore(tmp_path / "state")
        assert store.jobs_dir.is_dir()
        assert store.checkpoints_dir.is_dir()
        assert store.cache_path.parent.is_dir()

    def test_submit_and_get(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        assert record.status == "queued"
        loaded = store.get(record.job_id)
        assert loaded.job == record.job
        assert loaded.submitted_at == pytest.approx(record.submitted_at)

    def test_lifecycle_transitions(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        store.mark_running(record)
        assert store.get(record.job_id).status == "running"
        store.mark_completed(record, _result(record.job))
        loaded = store.get(record.job_id)
        assert loaded.status == "completed"
        assert loaded.result is not None
        assert loaded.result.final_scores == (1.0, 2.0)

    def test_failed_records_error(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        store.mark_failed(record, "worker exploded")
        assert store.get(record.job_id).error == "worker exploded"

    def test_resubmit_completed_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        store.mark_completed(record, _result(record.job))
        again = store.submit(_job())
        assert again.status == "completed"
        assert again.result is not None

    def test_resubmit_running_returns_existing(self, tmp_path):
        # Regression: resubmitting a running job used to reset it to
        # queued, clobbering started_at and orphaning the live worker.
        store = JobStore(tmp_path)
        record = store.submit(_job())
        store.mark_running(record)
        started_at = store.get(record.job_id).started_at
        again = store.submit(_job())
        assert again.status == "running"
        assert again.started_at == pytest.approx(started_at)
        assert store.get(record.job_id).status == "running"

    def test_resubmit_queued_returns_existing(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        again = store.submit(_job())
        assert again.status == "queued"
        assert again.submitted_at == pytest.approx(record.submitted_at)

    def test_resubmit_failed_requeues(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(_job())
        store.mark_failed(record, "boom")
        again = store.submit(_job())
        assert again.status == "queued" and again.error == ""

    def test_records_sorted_by_submission(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(_job(1))
        second = store.submit(_job(2))
        # Force distinct, ordered timestamps regardless of clock resolution.
        first.submitted_at, second.submitted_at = 100.0, 200.0
        store.save(first)
        store.save(second)
        assert [r.job_id for r in store.records()] == [first.job_id, second.job_id]

    def test_get_unknown_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ServiceError, match="unknown job"):
            store.get("nope")
        assert store.get("nope", missing_ok=True) is None

    def test_bad_status_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(job=_job(), status="exploded")
        with pytest.raises(ServiceError):
            store.save(record)

    def test_record_dict_roundtrip(self, tmp_path):
        record = JobRecord(job=_job(), status="queued", submitted_at=1.0,
                           extras={"checkpoint_every": 5})
        back = JobRecord.from_dict(record.to_dict())
        assert back.job == record.job
        assert back.extras == {"checkpoint_every": 5}


def _jobs(n: int) -> list[ProtectionJob]:
    return [ProtectionJob(dataset="flare", generations=2, seed=seed)
            for seed in range(n)]


class TestStoreFromSpec:
    # ``shard:`` was a valid scheme until the sharded store was removed.
    @pytest.mark.parametrize("spec", ["sqllite:jobs.db", "shard:sqlite:a.db"])
    def test_unknown_scheme_rejected_with_grammar(self, spec, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            store_from_spec(spec)
        message = str(excinfo.value)
        assert repr(spec.split(":", 1)[0] + ":") in message
        for grammar in ("file:DIR", "sqlite:PATH", "http(s)://"):
            assert grammar in message
        assert list(tmp_path.iterdir()) == []

    def test_existing_directory_with_colon_still_opens(self, tmp_path):
        # A user who really has a directory named like a scheme typo can
        # still open it: existence wins over the typo heuristic.
        weird = tmp_path / "odd:dir"
        weird.mkdir()
        store = store_from_spec(str(weird))
        assert isinstance(store, JobStore)

    def test_bare_paths_and_file_prefix_still_work(self, tmp_path):
        assert isinstance(store_from_spec(str(tmp_path / "plain")), JobStore)
        assert isinstance(store_from_spec(f"file:{tmp_path}/pref"), JobStore)

    def test_empty_spec_opens_the_default_file_store(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
        assert store_from_spec("").root == tmp_path / "home"
        assert store_from_spec("", state_dir=tmp_path / "s").root == tmp_path / "s"


class TestStreamingMigrate:
    def test_migrate_emits_progress_chunks(self, tmp_path):
        registry = obs.enable()
        stream = io.StringIO()
        obs.configure_events(stream)
        try:
            source = SqliteJobStore(tmp_path / "src.sqlite")
            for job in _jobs(7):
                source.submit(job)
            target = JobStore(tmp_path / "dst")
            counts = migrate_store(source, target, chunk_size=3)
            assert counts == {"records": 7, "checkpoints": 0, "traces": 0,
                              "migrants": 0}
            progress = [json.loads(line) for line in
                        stream.getvalue().splitlines()
                        if json.loads(line)["event"] == "migrate_progress"]
            assert [p["records"] for p in progress] == [3, 6, 7]
            assert progress[-1].get("done") is True
        finally:
            obs.disable()
            obs.configure_events(None)
            registry.reset()

    def test_iter_records_streams_everything(self, tmp_path):
        for store in (SqliteJobStore(tmp_path / "db.sqlite"),
                      JobStore(tmp_path / "dir")):
            for job in _jobs(5):
                store.submit(job)
            streamed = sorted(r.job_id for r in store.iter_records())
            assert streamed == sorted(r.job_id for r in store.records())
