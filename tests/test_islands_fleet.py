"""Fleet-level island tests: determinism across workers and stores.

The island driver's headline contract: for a fixed seed, the search
result is bit-identical no matter how many workers drive the group,
which store backend carries the migrant blobs, or which worker dies
mid-exchange.  Every test here compares against one reference run
(a single worker on a plain file store) — not against pinned numbers —
so the assertions survive engine retuning while still catching any
scheduling- or backend-dependent drift.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.service import JobStore, ProtectionJob, Worker, plan_island_jobs

#: Tiny but real: full Flare through the actual engine, one exchange
#: round (generation 1 of 2; the final generation never exchanges).
BASE = ProtectionJob(dataset="flare", generations=2, seed=11)
PLAN = dict(migrate_every=1, migrants=1, topology="ring")


def _submit_group(store, islands: int = 2, base: ProtectionJob = BASE):
    jobs = plan_island_jobs(base, islands, **PLAN)
    for job in jobs:
        store.submit(job)
    return jobs


def _snapshot(store, jobs) -> dict:
    """Every member's full result surface, keyed by island index."""
    snapshot = {}
    for job in jobs:
        record = store.get(job.job_id)
        assert record.status == "completed", (
            f"{record.job_id} finished {record.status}: {record.error}"
        )
        island = record.result.extras["island"]
        snapshot[job.island_index] = {
            "best": record.result.best_score,
            "il": record.result.best_information_loss,
            "dr": record.result.best_disclosure_risk,
            "population": island.get("population"),
            "front": island.get("front"),
            "degraded": island.get("degraded", island.get("degraded_members")),
        }
    return snapshot


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The group's canonical outcome: one worker, one file store."""
    store = JobStore(tmp_path_factory.mktemp("island-reference"))
    jobs = _submit_group(store)
    Worker(store, worker_id="reference-worker").run_once()
    return _snapshot(store, jobs)


def _drive_with_threads(store, n_workers: int) -> None:
    """Run ``n_workers`` concurrent Workers until the queue drains."""
    def drive(index: int) -> None:
        Worker(store, worker_id=f"fleet-w{index}").run(
            poll_seconds=0.05, idle_exit=5,
        )

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(n_workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "island fleet worker wedged"


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_bit_identical_across_worker_counts(tmp_path, reference, n_workers):
    store = JobStore(tmp_path / "store")
    jobs = _submit_group(store)
    _drive_with_threads(store, n_workers)
    assert _snapshot(store, jobs) == reference


def test_bit_identical_across_store_backends(store_harness, reference):
    jobs = _submit_group(store_harness.store)
    Worker(store_harness.store, worker_id="backend-worker").run_once()
    assert _snapshot(store_harness.store, jobs) == reference


def test_drain_returns_when_a_peer_is_held_elsewhere(tmp_path, reference):
    # Island 1 is claimed by a worker that never runs it, so island 0
    # and the merge job re-park at the same boundary on every claim
    # while island 1 stays queued.  The drain must claim around them,
    # finish the unrelated job, and return instead of spinning.
    store = JobStore(tmp_path / "store")
    jobs = _submit_group(store)
    other = store.submit(ProtectionJob(dataset="flare", generations=1, seed=3))
    assert store.claim(jobs[1].job_id, owner="elsewhere")
    drained = []
    thread = threading.Thread(
        target=lambda: drained.extend(
            Worker(store, worker_id="one-slot").run_once()),
        daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "drain spun on a stalled island"
    assert store.get(other.job_id).status == "completed"
    parked = {o.job_id for o in drained if o.parked is not None}
    assert {jobs[0].job_id, jobs[2].job_id} <= parked
    assert store.release(jobs[1].job_id, owner="elsewhere")
    Worker(store, worker_id="one-slot").run_once()
    assert _snapshot(store, jobs) == reference


def test_worker_death_mid_exchange_recovers(tmp_path, reference):
    store = JobStore(tmp_path / "store")
    jobs = _submit_group(store)

    # Island 0 runs to its exchange, publishes round 1, finds island 1
    # unpublished, and parks — its pre-injection checkpoint is durable.
    first = Worker(store, worker_id="first-worker", stale_after=3600.0)
    outcome = first.process(store.get(jobs[0].job_id))
    assert outcome is not None and outcome.parked is not None
    assert outcome.parked["round"] == 1

    # A second worker claims island 1 and dies mid-run: claim held,
    # status running, heartbeat silent.
    victim = jobs[1].job_id
    assert store.claim(victim, owner="doomed-worker")
    store.mark_running(store.get(victim))
    then = time.time() - 7200
    claim_path = store.claim_path(victim)
    info = json.loads(claim_path.read_text(encoding="utf-8"))
    info["claimed_at"] = then
    info["last_seen"] = then
    claim_path.write_text(json.dumps(info), encoding="utf-8")

    # A healthy worker's normal poll requeues the stale claim and runs
    # the whole group to completion — same bits as the calm fleet.
    rescuer = Worker(store, worker_id="rescue-worker", stale_after=60.0)
    rescuer.run_once()
    assert _snapshot(store, jobs) == reference


def test_degraded_solo_when_peer_fails(tmp_path):
    """A failed sender flips its receivers to sticky solo continuation."""
    store = JobStore(tmp_path / "store")
    jobs = _submit_group(store)

    # Island 1 dies outright before ever publishing.
    victim = store.get(jobs[1].job_id)
    assert store.claim(victim.job_id, owner="crash-worker")
    store.mark_running(victim)
    store.mark_failed(victim, "simulated crash")
    store.release(victim.job_id)

    worker = Worker(store, worker_id="solo-worker")
    worker.run_once()

    survivor = store.get(jobs[0].job_id)
    assert survivor.status == "completed"
    island = survivor.result.extras["island"]
    assert island["degraded"] is True
    assert island["injected"] == 0  # nothing ever arrived

    # The merge job cannot consolidate a group with a dead member: it
    # fails loudly instead of publishing a half-group front.
    merge = store.get(jobs[-1].job_id)
    assert merge.status == "failed"
    assert jobs[1].job_id in merge.error


def test_wait_timeout_degrades_but_merge_survives(tmp_path, monkeypatch):
    """A silent (not failed) peer degrades the waiter after the timeout;
    once the peer does finish, the merge consolidates the full group and
    reports who ran solo."""
    monkeypatch.setenv("REPRO_ISLAND_WAIT_TIMEOUT", "0.01")
    monkeypatch.setenv("REPRO_ISLAND_GRACE", "0.0")
    store = JobStore(tmp_path / "store")
    jobs = _submit_group(store)

    worker = Worker(store, worker_id="impatient-worker")
    # First visit: island 0 publishes round 1, finds island 1 silent,
    # parks (the timeout clock starts at the first unfulfilled wait).
    outcome = worker.process(store.get(jobs[0].job_id))
    assert outcome is not None and outcome.parked is not None
    time.sleep(0.05)
    # Second visit: still silent, past the timeout — degrade and run
    # the rest of the search solo.
    outcome = worker.process(store.get(jobs[0].job_id))
    assert outcome is not None and outcome.parked is None
    survivor = store.get(jobs[0].job_id)
    assert survivor.status == "completed"
    assert survivor.result.extras["island"]["degraded"] is True

    # The slow peer and the merge still finish; the merged front names
    # the degraded member rather than hiding it.
    worker.run_once()
    merge = store.get(jobs[-1].job_id)
    assert merge.status == "completed"
    info = merge.result.extras["island"]
    assert info["degraded_members"] == [0]
    assert info["front"]


@pytest.mark.stress
def test_island_churn_battery(tmp_path):
    """N workers + violent claim churn still converge to the reference.

    ``recover_stale_claims(0.0)`` treats *every* held claim as dead, so
    running it on a timer while three workers drive a four-island group
    forces mid-run requeues, duplicate executions, and parked records
    yanked back to queued — the island exchange protocol (first-write-
    wins rounds, pre-injection checkpoints, pure injection plans) must
    absorb all of it without changing a single score.
    """
    base = ProtectionJob(dataset="flare", generations=3, seed=23)

    calm_store = JobStore(tmp_path / "calm")
    calm_jobs = _submit_group(calm_store, islands=4, base=base)
    Worker(calm_store, worker_id="calm-worker").run_once()
    expected = _snapshot(calm_store, calm_jobs)

    store = JobStore(tmp_path / "churn")
    jobs = _submit_group(store, islands=4, base=base)
    stop_churn = threading.Event()

    def churn() -> None:
        while not stop_churn.is_set():
            store.recover_stale_claims(0.0)
            time.sleep(0.25)

    churner = threading.Thread(target=churn, daemon=True)
    churner.start()
    try:
        _drive_with_threads(store, 3)
    finally:
        stop_churn.set()
        churner.join(timeout=10)

    # A requeue that landed after the fleet drained leaves a queued
    # record behind; one calm pass settles it (idempotently) before
    # the comparison.
    Worker(store, worker_id="settle-worker").run_once()
    assert _snapshot(store, jobs) == expected
