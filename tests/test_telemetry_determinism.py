"""Determinism regression: telemetry never changes a seeded run.

The registry and event log are pure observers, so the same seeded GA
run and the same worker-drained job must be bit-identical with
telemetry fully on and fully off.
"""

from __future__ import annotations

import pytest

from repro.core import EvolutionaryProtector
from repro.metrics import ProtectionEvaluator
from repro.service.job import ProtectionJob

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]
GENERATIONS = 12
SEED = 17


@pytest.fixture(scope="module")
def population(request):
    adult = request.getfixturevalue("small_adult")
    from repro.methods import Pram, RankSwapping

    protections = [
        Pram(theta=t).protect(adult, ATTRS, seed=i) for i, t in enumerate((0.1, 0.3, 0.5))
    ]
    protections += [RankSwapping(p=p).protect(adult, ATTRS, seed=p) for p in (2, 6)]
    return adult, protections


def run_seeded(adult, protections):
    evaluator = ProtectionEvaluator(adult, ATTRS)
    engine = EvolutionaryProtector(evaluator, seed=SEED)
    return engine.run(protections, stopping=GENERATIONS)


def run_signature(result):
    """Everything observable about a run except wall-clock timing."""
    history = [
        (r.generation, r.operator, r.max_score, r.mean_score, r.min_score,
         r.evaluations, r.accepted)
        for r in result.history.records
    ]
    population = [
        (ind.dataset.fingerprint(), ind.score, ind.information_loss,
         ind.disclosure_risk)
        for ind in result.population
    ]
    return history, population


class TestTelemetryDeterminism:
    """Telemetry is a pure observer: it never moves a seeded run.

    The registry and event log only read clocks and bump numbers — no
    RNG draws, no fingerprint inputs — so the same seeded run must be
    bit-identical with telemetry fully on (registry recording, events
    streaming) and fully off.  This is the contract that lets operators
    flip ``--log-json`` on a production fleet without invalidating
    reproducibility claims.
    """

    def run_pair(self, run):
        """``run("quiet")`` with telemetry off, ``run("loud")`` fully on."""
        import io

        from repro import obs

        obs.disable()
        obs.get_registry().reset()
        obs.configure_events(None)
        try:
            quiet = run("quiet")
            obs.enable()
            obs.configure_events(io.StringIO(), command="test")
            loud = run("loud")
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.configure_events(None)
        return quiet, loud

    def test_engine_run_bit_identical_with_telemetry(self, population):
        adult, protections = population
        quiet, loud = self.run_pair(
            lambda _: run_signature(run_seeded(adult, protections))
        )
        assert quiet == loud

    def test_worker_run_bit_identical_with_telemetry(self, tmp_path):
        from repro.obs import instrument_store
        from repro.service import JobStore, Worker

        def run_job(state):
            store = instrument_store(JobStore(tmp_path / state))
            store.submit(ProtectionJob(dataset="flare", generations=4, seed=9))
            (outcome,) = Worker(store, worker_id=f"w-{state}").run_once()
            result = outcome.result
            return (result.final_scores, result.best_score,
                    result.extras["timeline"]["best"],
                    result.extras["timeline"]["evaluations"])

        quiet, loud = self.run_pair(run_job)
        assert quiet == loud
