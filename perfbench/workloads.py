"""The benchmark's three workloads; one workload phase per process.

Run as ``python perfbench/workloads.py '<json config>'`` by
``perfbench/run.py`` (with ``src`` on ``PYTHONPATH``).  The config names
the workload, the workload seed, the time budget, the size (``full`` or
the ``toy`` size the tests use), the phase (``setup`` or ``measure``),
whether to trace, and the temporary state directory.  The last line of
standard output is one JSON object with the phase's figures.

Every input is derived from the workload seed: the population seed of
the paper's §3 initial populations and the GA seeds.  The datasets are
the repository's deterministic synthetic stand-ins for the paper's four.
Each workload is a closed loop in one process: the next unit of work
starts when the previous one has finished.

Every timed step is followed by a :class:`HostSpeed` sample, and the
figures use the step's duration scaled to a nominal host speed, because
the CPU speed of a shared host drifts by tens of percent over tens of
seconds.  The durations as measured are reported alongside.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter

SIZES = {
    "full": {
        "ga_generations": 200,
        "batch_datasets": ("housing", "german", "flare", "adult"),
        "job_generations": 50,
        "job_checkpoint_every": 25,
        "check_sample": 3,
    },
    "toy": {
        "ga_generations": 3,
        "batch_datasets": ("adult",),
        "job_generations": 2,
        "job_checkpoint_every": 2,
        "check_sample": 1,
    },
}


def derived_seed(seed: int, stream: int, index: int) -> int:
    """Distinct, reproducible seed for unit ``index`` of stream ``stream``."""
    return seed * 1_000_003 + stream * 10_007 + index


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


class HostSpeed:
    """Speed of the host right now, sampled with a fixed calibration kernel.

    The kernel mixes what the program spends its time on — small-array
    numpy calls and interpreter work — and uses nothing from ``repro``,
    so a change to the program cannot move it.  :meth:`sample` runs it
    for about ``SHARE`` of the step just timed and returns the step's
    duration on a host where one kernel call takes ``REFERENCE_S``,
    using the mean speed of the samples just before and just after the
    step.  This tracks the drift of a shared host's CPU speed, which is
    tens of percent over tens of seconds.
    """

    SHARE = 0.05
    REFERENCE_S = 0.001

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._bits = rng.random((8, 3))
        self._start = rng.random((6, 3))
        self.calls = 0
        self.seconds = 0.0
        self._last_speed: float | None = None

    def _kernel(self) -> int:
        values = self._start
        for _ in range(40):
            mixed = np.einsum("pk,bk->bp", self._bits, np.log(values + 1e-9))
            values = np.clip(np.exp(-np.abs(mixed[:, :3])), 1e-9, 1.0)
        total = 0
        for i in range(6000):
            total += i * i % 7
        return total

    def sample(self, busy_s: float, min_calls: int = 1) -> float:
        """Nominal-host duration of a step that took ``busy_s`` here."""
        calls = max(min_calls, round(self.SHARE * busy_s / self.REFERENCE_S))
        start = clock()
        for _ in range(calls):
            self._kernel()
        elapsed = clock() - start
        self.seconds += elapsed
        self.calls += calls
        speed = calls * self.REFERENCE_S / elapsed
        before = speed if self._last_speed is None else self._last_speed
        self._last_speed = speed
        return busy_s * (before + speed) / 2

    def factor(self) -> float:
        """Mean nominal over measured kernel time (below 1 when slow)."""
        return self.calls * self.REFERENCE_S / self.seconds


class Workload:
    """Set-up, repeated units of work, output checks and figures.

    ``loop_s`` is the nominal-host time of the measured units and
    ``loop_raw_s`` the same time as measured.
    """

    name = ""
    #: Units a time-budgeted loop runs even when the budget is spent.
    min_units = 1

    def __init__(self, seed: int, size: dict, state_dir: Path, seconds: int) -> None:
        self.seed = seed
        self.size = size
        self.state_dir = state_dir
        self.seconds = seconds
        self.loop_s = 0.0
        self.loop_raw_s = 0.0
        self.host = HostSpeed()

    def timed(self, busy_s: float) -> float:
        """Account one timed step; returns its nominal-host duration."""
        nominal = self.host.sample(busy_s)
        self.loop_s += nominal
        self.loop_raw_s += busy_s
        return nominal

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, index: int) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, int, list[str]]:
        """(work attempted, work failed, problem descriptions)."""
        raise NotImplementedError

    def metrics(self) -> tuple[dict, dict]:
        """(workload-specific end-to-end values, notes for the report)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class GaLoop(Workload):
    """Paper Algorithm 1 on Flare: repeated seeded 200-generation runs.

    Set-up builds and scores the §3 initial population (104 protections
    of Flare's 3 protected attributes).  Each unit is one
    ``EvolutionaryProtector.run`` from that population under its own GA
    seed, with a fresh evaluator, so each generation scores the 1–2
    offspring the paper's steady-state loop produces.
    """

    name = "ga_loop"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.generations = self.size["ga_generations"]
        self.latencies: list[float] = []
        self.run_times: list[float] = []
        self.fresh = 0
        self.fresh_s = 0.0
        self.runs: list[dict] = []

    def setup(self) -> None:
        from repro.core.engine import EvolutionaryProtector
        from repro.datasets.registry import load_dataset, protected_attributes
        from repro.experiments.population_builder import build_initial_population
        from repro.metrics.evaluation import ProtectionEvaluator

        self.original = load_dataset("flare")
        self.attributes = protected_attributes("flare")
        protections = build_initial_population(
            self.original, dataset_name="flare", seed=derived_seed(self.seed, 0, 0))
        evaluator = ProtectionEvaluator(self.original, self.attributes)
        self.initial = EvolutionaryProtector(evaluator).evaluate_initial(protections)

    def unit(self, index: int) -> None:
        from repro.core.engine import EvolutionaryProtector
        from repro.metrics.evaluation import ProtectionEvaluator

        evaluator = ProtectionEvaluator(self.original, self.attributes)
        engine = EvolutionaryProtector(evaluator, seed=derived_seed(self.seed, 1, index))
        first = len(self.latencies)
        raw_before = self.loop_raw_s
        last = [0.0]

        def on_generation(_record) -> None:
            self.latencies.append(self.timed(clock() - last[0]))
            last[0] = clock()

        last[0] = clock()
        result = engine.run(self.initial, stopping=self.generations,
                            on_generation=on_generation)
        self.run_times.append(sum(self.latencies[first:]))
        self.fresh += evaluator.evaluations
        # The evaluator's own fitness time, scaled like the run around it.
        self.fresh_s += evaluator.fresh_seconds * (
            self.run_times[-1] / (self.loop_raw_s - raw_before))
        self.runs.append({
            "min_scores": [r.min_score for r in result.history.records],
            "best": result.best,
        })

    def check(self) -> tuple[int, int, list[str]]:
        """Best never worsens; a fresh scalar evaluation matches bit for bit."""
        from repro.linkage.compressed import clear_pair_memo
        from repro.metrics.evaluation import ProtectionEvaluator

        attempted = failed = 0
        problems = []
        for index, run in enumerate(self.runs):
            mins = run["min_scores"]
            attempted += len(mins)
            clear_pair_memo()
            fresh = ProtectionEvaluator(self.original, self.attributes).evaluate(
                run["best"].dataset)
            worsened = any(b > a for a, b in zip(mins, mins[1:]))
            if worsened or fresh != run["best"].evaluation or mins[-1] != run["best"].score:
                failed += len(mins)
                problems.append(f"ga run {index}: best worsened={worsened}, "
                                f"rescored {fresh.score!r} vs {run['best'].score!r}")
        return attempted, failed, problems

    def metrics(self) -> tuple[dict, dict]:
        generations = len(self.latencies)
        values = {
            "work_per_s": generations / self.loop_s,
            "result_p50_ms": 1000 * statistics.median(self.run_times),
            "scored_per_s": self.fresh / self.fresh_s,
            "best_score": self.runs[0]["best"].score,
        }
        notes = {
            "runs": len(self.runs),
            "generations": generations,
            "generation_p50_ms": 1000 * statistics.median(self.latencies),
            "generation_p95_ms": 1000 * percentile(self.latencies, 0.95),
            "fresh_candidates": self.fresh,
        }
        return values, notes


class BatchScore(Workload):
    """Paper §3 initial populations for all four datasets, scored fresh.

    Each unit is one round, and a round is the result: for every
    dataset, build the population with ``build_initial_population``
    under the round's population seed, then score it with one
    ``evaluate_many`` on a new evaluator after clearing the linkage pair
    memo, so every candidate is fresh (86–110 candidates per batch).
    """

    name = "batch_score"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.datasets = self.size["batch_datasets"]
        self.sample = self.size["check_sample"]
        self.round_times: list[float] = []
        self.build_s = 0.0
        self.score_s = 0.0
        self.built = 0
        self.fresh = 0
        self.fresh_s = 0.0
        self.best = float("inf")
        self.samples: list[tuple] = []

    def setup(self) -> None:
        from repro.datasets.registry import load_dataset, protected_attributes

        self.originals = {name: (load_dataset(name), protected_attributes(name))
                          for name in self.datasets}

    def unit(self, index: int) -> None:
        from repro.experiments.population_builder import build_initial_population
        from repro.linkage.compressed import clear_pair_memo
        from repro.metrics.evaluation import ProtectionEvaluator

        round_start = self.loop_s
        for position, name in enumerate(self.datasets):
            original, attributes = self.originals[name]
            start = clock()
            population = build_initial_population(
                original, dataset_name=name, seed=derived_seed(self.seed, 2, index))
            build_s = self.timed(clock() - start)
            clear_pair_memo()
            evaluator = ProtectionEvaluator(original, attributes)
            start = clock()
            scores = evaluator.evaluate_many(population)
            score_raw_s = clock() - start
            score_s = self.timed(score_raw_s)
            self.build_s += build_s
            self.score_s += score_s
            self.built += len(population)
            self.fresh += evaluator.evaluations
            self.fresh_s += evaluator.fresh_seconds * score_s / score_raw_s
            if index == 0:
                self.best = min(self.best, min(s.score for s in scores))
                rng = np.random.default_rng(derived_seed(self.seed, 3, position))
                for pick in rng.choice(len(population), self.sample, replace=False):
                    self.samples.append((name, population[pick], scores[pick]))
        self.round_times.append(self.loop_s - round_start)

    def check(self) -> tuple[int, int, list[str]]:
        """``compute_many(batch)[i] == compute(batch[i])`` for every measure."""
        from repro.linkage.compressed import clear_pair_memo
        from repro.metrics.evaluation import ProtectionEvaluator

        failed = 0
        problems = []
        for name, candidate, score in self.samples:
            original, attributes = self.originals[name]
            evaluator = ProtectionEvaluator(original, attributes)
            batch_values = {**score.il_components, **score.dr_components}
            bad = []
            for measure in evaluator.il_measures + evaluator.dr_measures:
                clear_pair_memo()
                if measure.compute(candidate) != batch_values[measure.measure_name]:
                    bad.append(measure.measure_name)
            if bad:
                failed += 1
                problems.append(f"{name} {candidate.name}: scalar != batch for {bad}")
        return self.built, failed, problems

    def metrics(self) -> tuple[dict, dict]:
        values = {
            "work_per_s": self.built / self.loop_s,
            "result_p50_ms": 1000 * statistics.median(self.round_times),
            "scored_per_s": self.fresh / self.fresh_s,
            "best_score": self.best,
        }
        notes = {
            "rounds": len(self.round_times),
            "candidates": self.built,
            "protect_candidates_per_s": self.built / self.build_s,
            "batch_candidates_per_s": self.fresh / self.score_s,
        }
        return values, notes


class JobDrain(Workload):
    """Flare replicate jobs drained from a fresh SQLite job store.

    Set-up creates the store and its evaluation cache and submits the
    jobs: distinct GA seeds, one shared population seed, 50 generations,
    a checkpoint every 25.  Each unit is one job run by a single
    in-process ``Worker(capacity=1, backend="serial")``, whose persistent
    cache the first job fills with the initial population's scores and
    every later job reads back.
    """

    name = "job_drain"
    min_units = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.generations = self.size["job_generations"]
        self.checkpoint_every = self.size["job_checkpoint_every"]
        self.latencies: list[float] = []
        self.fresh_s = 0.0
        self.outcomes: list = []

    def setup(self) -> None:
        from repro.service.cache import EvaluationCache
        from repro.service.job import ProtectionJob
        from repro.service.sqlstore import SqliteJobStore
        from repro.service.worker import Worker

        self.store = SqliteJobStore(self.state_dir / "jobs.sqlite")
        EvaluationCache(self.store.cache_path).close()
        self.jobs = [
            ProtectionJob(dataset="flare", generations=self.generations,
                          seed=derived_seed(self.seed, 4, index),
                          population_seed=derived_seed(self.seed, 0, 0))
            # More jobs than the time budget can drain (>= 0.5 s a job).
            for index in range(2 * self.seconds + 2)
        ]
        for job in self.jobs:
            self.store.submit(job, extras={"checkpoint_every": self.checkpoint_every})
        self.worker = Worker(self.store, capacity=1, backend="serial")

    def unit(self, index: int) -> None:
        start = clock()
        outcomes = self.worker.run_once(max_jobs=1)
        raw_s = clock() - start
        self.latencies.append(self.timed(raw_s))
        self.outcomes.extend(outcomes)
        for outcome in outcomes:
            if outcome.ok:
                stats = outcome.result.extras["evaluator_stats"]
                self.fresh_s += stats["fresh_seconds"] * self.latencies[-1] / raw_s

    def check(self) -> tuple[int, int, list[str]]:
        """Each drained job completed exactly once, the rest are still
        queued and unclaimed, and the first job's ``final_scores`` equal
        an inline ``run_experiment`` of the same config."""
        from repro.experiments.runner import run_experiment

        problems = []
        ran = [outcome.job_id for outcome in self.outcomes]
        bad = {job_id for job_id in ran if ran.count(job_id) != 1}
        bad |= {o.job_id for o in self.outcomes if not o.ok}
        if len(ran) != len(self.latencies):
            problems.append(f"{len(self.latencies)} drain steps ran {len(ran)} jobs")
        for job in self.jobs:
            want = "completed" if job.job_id in ran else "queued"
            if self.store.get(job.job_id).status != want:
                bad.add(job.job_id)
        if self.store.claimed_job_ids():
            problems.append(f"claims left behind: {self.store.claimed_job_ids()}")
        first = self.store.get(ran[0])
        inline = run_experiment(first.job.to_config())
        inline_scores = tuple(float(ind.score) for ind in inline.result.population)
        if first.result is None or tuple(first.result.final_scores) != inline_scores:
            bad.add(first.job_id)
            problems.append(f"{first.job_id}: final_scores differ from an inline run")
        problems += [f"job {job_id} did not complete exactly once" for job_id in sorted(bad)]
        return max(len(ran), len(self.latencies)), len(bad), problems

    def metrics(self) -> tuple[dict, dict]:
        results = [o.result for o in self.outcomes if o.ok]
        stats = [r.extras["evaluator_stats"] for r in results]
        fresh = sum(s["evaluations"] for s in stats)
        values = {
            "work_per_s": len(self.latencies) / self.loop_s,
            "result_p50_ms": 1000 * statistics.median(self.latencies),
            "scored_per_s": fresh / self.fresh_s,
            "best_score": results[0].best_score,
        }
        notes = {
            "jobs": len(self.latencies),
            "queued_at_start": len(self.jobs),
            "persistent_hits": sum(s["persistent_hits"] for s in stats),
            "fresh_candidates": fresh,
        }
        return values, notes

    def close(self) -> None:
        self.store.close()


WORKLOADS = {cls.name: cls for cls in (GaLoop, BatchScore, JobDrain)}


def run_phase(config: dict) -> dict:
    """Run one phase of one workload in this process; returns its figures."""
    workload = WORKLOADS[config["workload"]](
        int(config["seed"]), SIZES[config["size"]], Path(config["state_dir"]),
        int(config["seconds"]))
    tracer = undo = None
    if config.get("traced"):
        from layers import Tracer, install

        tracer = Tracer(f"{config['workload']}-seed{config['seed']}")
        undo = install(tracer)
        # Its own span, so calibration inside a GA callback is not
        # counted as the engine's self time.
        sample = workload.host.sample
        workload.host.sample = lambda *args, **kwargs: tracer.call(
            "bench.host_speed", sample, args, kwargs)

    start = clock()
    workload.setup()
    setup_raw_s = clock() - start
    # Also the "before" sample of the first measured step.
    out: dict = {"setup_s": workload.host.sample(setup_raw_s, min_calls=50),
                 "setup_raw_s": setup_raw_s}
    if config["phase"] == "setup":
        workload.close()
        return out

    units = int(config.get("units") or 0)
    deadline = clock() + float(config["seconds"])
    done = 0
    while True:
        workload.unit(done)
        done += 1
        if units:
            if done >= units:
                break
        elif done >= workload.min_units and clock() >= deadline:
            break
    out.update(units=done, loop_s=workload.loop_s, loop_raw_s=workload.loop_raw_s,
               host_factor=workload.host.factor())
    if tracer is not None:
        from layers import layer_metrics, top_self_times

        undo()
        tracer.write(Path(config["trace_path"]))
        out["layers"] = layer_metrics(tracer)
        out["top_self"] = top_self_times(tracer)
        out["spans"] = len(tracer.spans)
    # Peak memory of the measured work, before the checks add their own.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = workload.check()
    out.update(attempted=attempted, failed=failed, problems=problems)
    out["values"], out["notes"] = workload.metrics()
    workload.close()
    return out


if __name__ == "__main__":
    print(json.dumps(run_phase(json.loads(sys.argv[1]))))
