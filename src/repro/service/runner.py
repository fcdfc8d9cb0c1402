"""The job runner: queue of protection jobs, fanned out over a backend.

:class:`JobRunner` is the execution heart of the service layer.  It takes
:class:`~repro.service.job.ProtectionJob` values and runs them through a
pluggable :mod:`execution backend <repro.service.backends>` — serially,
on a thread pool, or on a process pool — while threading the shared
persistent evaluation cache and per-job checkpoint files through every
worker.  Two fan-out shapes cover the workloads the experiments need:

* :meth:`JobRunner.run` / :meth:`JobRunner.run_replicates` — multi-seed
  experiment replicates;
* :meth:`JobRunner.run_grid` — method-comparison grids over datasets,
  score functions and seeds.

Because the GA is deterministic per seed and cache hits return exactly
the stored computation, every backend produces byte-identical scores for
the same job list.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.datasets.registry import load_dataset
from repro.exceptions import ServiceError
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.obs import timeline_from_history, trace
from repro.service.backends import ExecutionBackend, create_backend
from repro.service.cache import EvaluationCache
from repro.service.checkpoint import CheckpointManager
from repro.service.islands import IslandParked, register_store, store_spec_of
from repro.service.job import JobResult, ProtectionJob

# -- worker functions (module-level so the process backend can pickle them) --


def _job_result(
    job: ProtectionJob, outcome: ExperimentResult, wall_seconds: float, checkpoint_path: str
) -> JobResult:
    best = outcome.result.best
    initial_mean, final_mean, percent = outcome.history.improvement("mean")
    evaluator = outcome.evaluator
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=len(outcome.history),
        best_score=float(best.score),
        best_information_loss=float(best.information_loss),
        best_disclosure_risk=float(best.disclosure_risk),
        final_scores=tuple(float(ind.score) for ind in outcome.result.population),
        mean_improvement_percent=float(percent),
        fresh_evaluations=evaluator.evaluations,
        memo_hits=evaluator.cache_hits,
        persistent_hits=evaluator.persistent_hits,
        wall_seconds=wall_seconds,
        checkpoint_path=checkpoint_path,
        extras={
            "evaluator_stats": evaluator.stats(),
            # The per-generation trace rides with the result through any
            # store backend; ``repro status --job ID`` renders it.
            "timeline": timeline_from_history(outcome.history.records),
        },
    )


def _execute_job(payload: dict) -> JobResult:
    """Run one job end to end inside the current worker.

    ``payload`` is a plain dict (picklable for the process backend):
    the job's own dict plus cache / checkpoint / resume directives.
    """
    job = ProtectionJob.from_dict(payload["job"])
    if job.islands >= 2:
        # Island-group jobs have their own executor: they need the job
        # store (migrant buffers, durable segment checkpoints) and can
        # yield mid-run (IslandParked) — neither fits the plain path.
        from repro.service.islands import execute_island_job

        return execute_island_job(payload)
    config = job.to_config()
    cache_path = payload.get("cache_path") or ""
    cache_max_entries = payload.get("cache_max_entries") or None
    checkpoint_path = payload.get("checkpoint_path") or ""
    checkpoint_every = int(payload.get("checkpoint_every") or 0)
    resume = bool(payload.get("resume"))

    manager = (
        CheckpointManager(checkpoint_path, fingerprint=job.fingerprint())
        if checkpoint_path
        else None
    )
    resume_from = None
    if resume:
        if manager is None:
            raise ServiceError("cannot resume without a checkpoint path")
        resume_from = manager.load(load_dataset(job.dataset))

    cache = (
        EvaluationCache(cache_path, max_entries=cache_max_entries)
        if cache_path
        else None
    )
    # Arriving trace context re-enables span recording here: a fresh
    # process-pool worker starts with tracing off, but the submit side
    # already opted this job in.
    scope = None
    trace_ctx = payload.get("trace")
    if isinstance(trace_ctx, dict) and trace_ctx.get("id"):
        scope = trace.activate(str(trace_ctx["id"]), str(trace_ctx.get("root") or ""))
    start = time.perf_counter()
    try:
        with trace.span(
            "repro.run", dataset=job.dataset, seed=job.seed, resume=resume or None
        ):
            outcome = run_experiment(
                config,
                evaluation_cache=cache,
                checkpoint_every=checkpoint_every if manager is not None else 0,
                on_checkpoint=manager.save if manager is not None else None,
                resume_from=resume_from,
            )
    except BaseException:
        if scope is not None:
            # Spans from the failed attempt stay recoverable through
            # trace.take_stray_spans() in the settled wrapper.
            trace.deactivate(scope)
        raise
    finally:
        if cache is not None:
            cache.close()
    result = _job_result(job, outcome, time.perf_counter() - start, checkpoint_path)
    if scope is not None:
        result.extras["trace_spans"] = trace.deactivate(scope)
    return result


def _execute_job_settled(payload: dict) -> dict:
    """Like :func:`_execute_job`, but capture failure instead of raising.

    Returns a plain dict (``result`` xor ``error``) so one bad job cannot
    poison a whole fan-out: siblings keep their results and the caller
    records each job's true outcome.  Trace spans ride back as their own
    key — present in the failure case too, so the spans of a dying run
    still reach the durable trace (failed jobs always flush).

    A parked island job (see :mod:`repro.service.islands`) is a third
    outcome — neither result nor error: the ``parked`` key carries the
    yield details so the worker requeues the record instead of marking
    it failed.
    """
    try:
        result = _execute_job(payload)
        spans = result.extras.pop("trace_spans", [])
        return {"result": result.to_dict(), "error": "", "trace_spans": spans}
    except IslandParked as parked:
        return {
            "result": None,
            "error": "",
            "parked": parked.to_dict(),
            "trace_spans": trace.take_stray_spans(),
        }
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return {
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "trace_spans": trace.take_stray_spans(),
        }


@dataclass(frozen=True)
class JobOutcome:
    """Settled outcome of one job: a result, an error, or a park.

    ``trace_spans`` carries the run-side spans (run / generations /
    evaluation batches) back to whoever flushes the job's durable trace
    — populated only for jobs that arrived with trace context.

    ``parked`` (island jobs only) means the job yielded its claim at an
    exchange boundary — checkpointed, not failed; the worker requeues
    it (see :func:`repro.service.islands.park_record`).
    """

    job_id: str
    result: JobResult | None = None
    error: str = ""
    trace_spans: tuple = ()
    parked: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the job produced a result."""
        return self.result is not None


# -- the runner -------------------------------------------------------------


class JobRunner:
    """Runs protection jobs over an execution backend with shared caching.

    Parameters
    ----------
    backend:
        Backend name (``serial`` / ``thread`` / ``process``) or a
        pre-built :class:`~repro.service.backends.ExecutionBackend`.
    max_workers:
        Pool-size cap for the pooled backends.
    cache_path:
        Location of the shared persistent evaluation cache; ``None``
        disables persistent caching (the in-process memo cache of each
        evaluator still applies).
    cache_max_entries:
        LRU bound applied by every worker-opened cache handle; ``None``
        keeps the cache unbounded.  Eviction never changes scores — an
        evicted entry is recomputed, raising only ``fresh_evaluations``.
    checkpoint_dir:
        When set (together with a positive ``checkpoint_every``), every
        job writes periodic checkpoints to
        ``<checkpoint_dir>/<job_id>.json`` and can be resumed.
    checkpoint_every:
        Generations between checkpoint writes; 0 disables.
    store:
        The job store island-group jobs exchange migrants and durable
        segment checkpoints through.  In-process backends reach the
        exact live object (weak registry); the process backend falls
        back to reopening from the store's spec.  Plain jobs never
        touch it; island jobs without it fail with a clear error.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
        cache_path: str | None = None,
        cache_max_entries: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        store: object | None = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ServiceError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if cache_max_entries is not None and cache_max_entries < 1:
            raise ServiceError(
                f"cache_max_entries must be >= 1, got {cache_max_entries}"
            )
        self.backend = create_backend(backend, max_workers)
        self.cache_path = str(cache_path) if cache_path else ""
        self.cache_max_entries = cache_max_entries
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else ""
        self.checkpoint_every = checkpoint_every
        self.store = store
        self._store_ref = register_store(store) if store is not None else ""
        self._store_spec, self._store_token = (
            store_spec_of(store) if store is not None else ("", "")
        )

    # -- payload plumbing ---------------------------------------------------

    def checkpoint_path(self, job: ProtectionJob) -> str:
        """Where this runner checkpoints ``job`` ('' when disabled)."""
        if not self.checkpoint_dir:
            return ""
        from pathlib import Path

        return str(Path(self.checkpoint_dir) / f"{job.job_id}.json")

    def _payload(
        self, job: ProtectionJob, resume: bool, trace_ctx: dict | None = None
    ) -> dict:
        return {
            "job": job.to_dict(),
            "cache_path": self.cache_path,
            "cache_max_entries": self.cache_max_entries,
            "checkpoint_path": self.checkpoint_path(job),
            "checkpoint_every": self.checkpoint_every,
            "resume": resume,
            # Trace context crosses the (possibly process) backend
            # boundary inside the payload; None for untraced jobs.
            "trace": trace_ctx,
            # The job store, for island-group jobs: a live-object token
            # for in-process backends plus a reopenable spec fallback.
            "store_ref": self._store_ref,
            "store_spec": self._store_spec,
            "store_token": self._store_token,
        }

    # -- fan-out entry points ----------------------------------------------

    def run(
        self,
        jobs: Sequence[ProtectionJob],
        resume: bool = False,
        traces: Sequence[dict | None] | None = None,
    ) -> list[JobResult]:
        """Execute ``jobs`` over the backend; results in submission order.

        With ``resume=True`` every job must have an on-disk checkpoint
        (see ``checkpoint_dir``), and execution continues from it instead
        of re-scoring an initial population.  ``traces`` (one trace
        context or None per job, from the record's ``extras["trace"]``)
        makes the run record spans; they come back in each result's
        ``extras["trace_spans"]`` for the caller to pop and flush.
        """
        if not jobs:
            return []
        if traces is None:
            traces = [None] * len(jobs)
        payloads = [
            self._payload(job, resume, ctx) for job, ctx in zip(jobs, traces)
        ]
        return self.backend.map(_execute_job, payloads)

    def run_settled(
        self,
        jobs: Sequence[ProtectionJob],
        resume: bool = False,
        traces: Sequence[dict | None] | None = None,
    ) -> list[JobOutcome]:
        """Execute ``jobs``, settling each one's outcome individually.

        Unlike :meth:`run`, a failing job does not abort the fan-out:
        every job returns either its result or its error, in submission
        order.  This is what the CLI uses so completed replicates are
        never discarded because a sibling failed.
        """
        if not jobs:
            return []
        if traces is None:
            traces = [None] * len(jobs)
        payloads = [
            self._payload(job, resume, ctx) for job, ctx in zip(jobs, traces)
        ]
        settled = self.backend.map(_execute_job_settled, payloads)
        return [
            JobOutcome(
                job_id=job.job_id,
                result=JobResult.from_dict(out["result"]) if out["result"] else None,
                error=out["error"],
                trace_spans=tuple(out.get("trace_spans") or ()),
                parked=out.get("parked"),
            )
            for job, out in zip(jobs, settled)
        ]

    def run_replicates(self, job: ProtectionJob, seeds: Sequence[int]) -> list[JobResult]:
        """Fan one job out across run seeds (experiment replicates)."""
        if not seeds:
            raise ServiceError("run_replicates needs at least one seed")
        return self.run([job.with_seed(int(seed)) for seed in seeds])

    def grid(
        self,
        datasets: Sequence[str],
        scores: Sequence[str] = ("max",),
        seeds: Sequence[int] = (42,),
        **params: object,
    ) -> list[ProtectionJob]:
        """The method-comparison grid: datasets x score functions x seeds."""
        return [
            ProtectionJob(dataset=dataset, score=score, seed=int(seed), **params)  # type: ignore[arg-type]
            for dataset in datasets
            for score in scores
            for seed in seeds
        ]

    def run_grid(
        self,
        datasets: Sequence[str],
        scores: Sequence[str] = ("max",),
        seeds: Sequence[int] = (42,),
        **params: object,
    ) -> list[JobResult]:
        """Build and execute a comparison grid in one call."""
        return self.run(self.grid(datasets, scores, seeds, **params))

    def __repr__(self) -> str:
        return (
            f"JobRunner(backend={self.backend.name!r}, cache={self.cache_path!r}, "
            f"checkpoint_every={self.checkpoint_every})"
        )
