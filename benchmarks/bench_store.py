"""Job-store microbenchmark — file directory vs sqlite database at 1k jobs.

The tentpole claim of the sqlite backend is that the hot fleet
operations stop scaling with the size of the job table: a queue poll,
a capacity batch claim and a stale-claim recovery pass are indexed
queries instead of full directory scans.  This bench measures exactly
those paths on both backends over the same 1000-job workload:

* ``submit``      — 1000 idempotent submissions into an empty store;
* ``poll``        — 20 ``queued()`` polls over the full table (the
                    steady-state worker tick);
* ``claim+drain`` — ``claim_batch(limit=25)`` pulls until the queue is
                    empty (40 batch claims);
* ``recover``     — one ``recover_stale_claims`` pass that requeues all
                    1000 claimed jobs (the crashed-fleet repair).

The assertion pins the headline: the sqlite store's claim+recover path
must beat the file store's.  Absolute numbers go to the bench log for
the PR record.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_result

from repro.service import JobStore, ProtectionJob, SqliteJobStore

#: Override with REPRO_BENCH_STORE_JOBS (CI smoke runs use a toy size).
N_JOBS = int(os.environ.get("REPRO_BENCH_STORE_JOBS", "1000"))
POLLS = 20
BATCH = 25


def _jobs(n: int = N_JOBS) -> list[ProtectionJob]:
    return [ProtectionJob(dataset="adult", generations=1, seed=seed)
            for seed in range(n)]


def _bench_backend(store, jobs) -> dict[str, float]:
    timings: dict[str, float] = {}

    start = time.perf_counter()
    for job in jobs:
        store.submit(job)
    timings["submit"] = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(POLLS):
        queue = store.queued()
    timings["poll"] = time.perf_counter() - start
    assert len(queue) == len(jobs)

    start = time.perf_counter()
    claimed = 0
    while True:
        won = store.claim_batch(owner="bench-worker", limit=BATCH)
        if not won:
            break
        claimed += len(won)
    timings["claim+drain"] = time.perf_counter() - start
    assert claimed == len(jobs)

    # Every claim is freshly made, so max_age_seconds=0 makes the whole
    # fleet look silent: one recovery pass requeues all 1000 jobs.
    start = time.perf_counter()
    recovered = store.recover_stale_claims(max_age_seconds=0.0)
    timings["recover"] = time.perf_counter() - start
    assert len(recovered) == len(jobs)

    return timings


def test_bench_store_sqlite_beats_file_scan(tmp_path):
    jobs = _jobs()
    file_times = _bench_backend(JobStore(tmp_path / "file-store"), jobs)
    sqlite_times = _bench_backend(
        SqliteJobStore(tmp_path / "sql-store" / "jobs.sqlite"), jobs
    )

    rows = [
        f"{'operation':<14} {'file':>10} {'sqlite':>10} {'speedup':>9}",
    ]
    for op in ("submit", "poll", "claim+drain", "recover"):
        ratio = file_times[op] / sqlite_times[op] if sqlite_times[op] else float("inf")
        rows.append(f"{op:<14} {file_times[op]:>9.3f}s {sqlite_times[op]:>9.3f}s "
                    f"{ratio:>8.1f}x")
        record_result("store", f"file-{op}", file_times[op])
        record_result("store", f"sqlite-{op}", sqlite_times[op],
                      ratio=min(ratio, 1e9))
    emit(
        f"store microbenchmark — {N_JOBS} jobs, {POLLS} polls, "
        f"claim batches of {BATCH}",
        "\n".join(rows),
    )

    # The headline: the indexed claim+recover path must beat the
    # full-scan path.  (Submit is not asserted — a transactional
    # database write may legitimately cost more than one file rename.)
    file_hot = file_times["claim+drain"] + file_times["recover"]
    sqlite_hot = sqlite_times["claim+drain"] + sqlite_times["recover"]
    assert sqlite_hot < file_hot, (
        f"sqlite claim+recover ({sqlite_hot:.3f}s) should beat "
        f"the file store's full scans ({file_hot:.3f}s)"
    )

