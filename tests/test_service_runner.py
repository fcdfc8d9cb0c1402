"""JobRunner acceptance tests: backend equivalence and warm-cache reuse.

The ISSUE's bar: a two-replicate experiment run through ``JobRunner``
with the process backend produces byte-identical scores to the serial
path, and re-running it with a warm cache performs zero fresh metric
evaluations.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service import JobRunner, ProtectionJob

JOB = ProtectionJob(dataset="adult", score="max", generations=4, seed=11)
SEEDS = (11, 12)


@pytest.fixture(scope="module")
def service_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    return {
        "serial_cache": str(root / "serial.sqlite"),
        "process_cache": str(root / "process.sqlite"),
        "checkpoints": str(root / "checkpoints"),
    }


@pytest.fixture(scope="module")
def serial_results(service_dirs):
    runner = JobRunner(
        backend="serial",
        cache_path=service_dirs["serial_cache"],
        checkpoint_dir=service_dirs["checkpoints"],
        checkpoint_every=2,
    )
    return runner.run_replicates(JOB, SEEDS)


@pytest.fixture(scope="module")
def process_results(service_dirs):
    runner = JobRunner(
        backend="process", max_workers=2, cache_path=service_dirs["process_cache"]
    )
    return runner.run_replicates(JOB, SEEDS)


class TestBackendEquivalence:
    def test_two_replicates_run(self, serial_results):
        assert [r.seed for r in serial_results] == list(SEEDS)
        assert all(r.generations == JOB.generations for r in serial_results)

    def test_process_scores_byte_identical_to_serial(self, serial_results, process_results):
        for serial, process in zip(serial_results, process_results):
            assert process.final_scores == serial.final_scores
            assert process.best_score == serial.best_score
            assert process.best_information_loss == serial.best_information_loss
            assert process.best_disclosure_risk == serial.best_disclosure_risk

    def test_warm_cache_does_zero_fresh_evaluations(self, service_dirs, process_results):
        runner = JobRunner(
            backend="process", max_workers=2, cache_path=service_dirs["process_cache"]
        )
        warm = runner.run_replicates(JOB, SEEDS)
        for cold, rerun in zip(process_results, warm):
            assert rerun.fresh_evaluations == 0
            assert rerun.persistent_hits > 0
            assert rerun.final_scores == cold.final_scores

    def test_replicates_share_the_cache(self, serial_results):
        # The second replicate scores the same initial population, so the
        # shared persistent cache absorbs most of its evaluation work.
        first, second = serial_results
        assert second.persistent_hits > 0
        assert second.fresh_evaluations < first.fresh_evaluations

    def test_resume_from_final_checkpoint_reproduces_result(self, service_dirs, serial_results):
        runner = JobRunner(
            backend="serial",
            cache_path=service_dirs["serial_cache"],
            checkpoint_dir=service_dirs["checkpoints"],
            checkpoint_every=2,
        )
        (resumed,) = runner.run([JOB], resume=True)
        assert resumed.final_scores == serial_results[0].final_scores

    def test_resume_without_checkpoint_dir_rejected(self):
        runner = JobRunner(backend="serial")
        with pytest.raises(ServiceError):
            runner.run([JOB], resume=True)


class TestFanOutShapes:
    def test_run_replicates_needs_seeds(self):
        with pytest.raises(ServiceError):
            JobRunner().run_replicates(JOB, [])

    def test_empty_job_list(self):
        assert JobRunner().run([]) == []

    def test_grid_covers_product(self):
        runner = JobRunner()
        jobs = runner.grid(["adult", "flare"], scores=["max", "mean"], seeds=[1, 2],
                           generations=5)
        assert len(jobs) == 8
        assert {(j.dataset, j.score, j.seed) for j in jobs} == {
            (d, s, seed) for d in ("adult", "flare") for s in ("max", "mean") for seed in (1, 2)
        }
        assert all(j.generations == 5 for j in jobs)

    def test_invalid_checkpoint_cadence(self):
        with pytest.raises(ServiceError):
            JobRunner(checkpoint_every=-2)


class TestSettledExecution:
    def test_one_failure_does_not_poison_siblings(self, tmp_path):
        good = ProtectionJob(dataset="adult", generations=2, seed=51)
        bad = ProtectionJob(dataset="not-a-dataset", generations=2, seed=51)
        runner = JobRunner(backend="serial", cache_path=str(tmp_path / "cache.sqlite"))
        outcomes = runner.run_settled([good, bad, good.with_seed(52)])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].result is not None and outcomes[0].result.generations == 2
        assert "not-a-dataset" in outcomes[1].error
        assert outcomes[2].result is not None

    def test_run_raises_where_settled_reports(self):
        bad = ProtectionJob(dataset="not-a-dataset", generations=2, seed=1)
        with pytest.raises(Exception, match="not-a-dataset"):
            JobRunner(backend="serial").run([bad])

    def test_settled_empty(self):
        assert JobRunner().run_settled([]) == []
