"""Transactional SQLite-backed job store: one database, indexed queues.

The file-backed :class:`~repro.service.store.JobStore` scales with the
filesystem: every queue poll reads record files and every claim is its
own ``O_CREAT | O_EXCL`` marker.  That is perfect for a handful of
workers on one directory, but a heavy fleet turns both into hot spots —
the ROADMAP's "horizontal store scale-out" item.  This module keeps the
*contract* (the :data:`~repro.service.store.STORE_PROTOCOL` surface,
enforced by ``tests/test_store_contract.py``) and swaps the substrate:

- jobs, claims and checkpoint blobs live in indexed tables of a single
  SQLite database in WAL mode, so ``queued()``, ``claim_batch()``,
  ``recover_stale_claims()`` and ``repro status`` are indexed queries
  instead of full directory scans;
- :meth:`SqliteJobStore.claim` is one ``BEGIN IMMEDIATE`` transaction
  that checks and inserts the claim row atomically — safe under N
  concurrent workers in any number of processes, and a claimer killed
  between transaction start and commit rolls back cleanly (the job
  stays queued, never stranded half-claimed);
- :meth:`SqliteJobStore.claim_batch` claims a whole capacity batch in
  one transaction, so a worker's queue pull is a single indexed query
  however long the job table grows.

Checkpoint blobs get the same durability treatment the network store
gives them: the ``checkpoints`` table owns the fleet's copy, while the
runner keeps writing plain files under ``checkpoints_dir`` (no engine
layer changes).  Winning a claim copies the table blob into the local
file (resume from the fleet's latest state); every successful heartbeat
or owner release syncs a changed file back into the table — so the
database file is the one artifact an operator backs up or migrates.

WAL caveat: SQLite's WAL mode requires shared memory between writers,
which network filesystems (NFS, SMB) do not reliably provide.  Put the
database on a local disk and front it with ``repro serve --backend
sqlite`` when workers live on other machines; use the file store when
you genuinely want shared-filesystem coordination.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import ServiceError, WorkerError
from repro.service.job import JobResult, ProtectionJob
from repro.service.sqlitedb import connect_wal
from repro.service.store import (
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    STATUSES,
    JobRecord,
    _atomic_write_text,
    default_state_dir,
)

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    status TEXT NOT NULL,
    submitted_at REAL NOT NULL DEFAULT 0,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status, submitted_at);
CREATE TABLE IF NOT EXISTS claims (
    job_id TEXT PRIMARY KEY,
    owner TEXT,
    pid INTEGER,
    claimed_at REAL,
    last_seen REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS claims_by_last_seen ON claims (last_seen);
CREATE TABLE IF NOT EXISTS checkpoints (
    job_id TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    updated_at REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _is_json_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except json.JSONDecodeError:
        return False


def default_db_path() -> Path:
    """The default database location: ``jobs.sqlite`` in the state dir."""
    return default_state_dir() / "jobs.sqlite"


class SqliteJobStore:
    """The :data:`~repro.service.store.STORE_PROTOCOL` on one SQLite file.

    ``path`` is the database file; its parent directory becomes the
    store root, holding the ``checkpoints/`` spool the runner writes to
    and the ``cache/`` directory for the shared evaluation cache —
    the same worker-facing locations every store exposes, so
    :class:`~repro.service.worker.Worker`, the runner and the CLI run
    unchanged.  A single connection serves all threads (handler threads
    of a fronting :class:`~repro.service.netstore.JobStoreServer`
    included), serialized by a lock; cross-process safety comes from
    SQLite's own locking — every mutation runs inside ``BEGIN
    IMMEDIATE``, so concurrent claimers in different worker processes
    are decided by the database, atomically, with crash rollback.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.root = self.path.parent
        self.checkpoints_dir = self.root / "checkpoints"
        self.cache_dir = self.root / "cache"
        for directory in (self.checkpoints_dir, self.cache_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # mtime of each checkpoint file as last synced with the table,
        # so heartbeats only pay a write when the file actually changed.
        self._synced_mtimes: dict[str, float] = {}
        self._lock = threading.Lock()
        # isolation_level=None: autocommit, with explicit BEGIN
        # IMMEDIATE transactions where multi-statement atomicity (and
        # cross-process exclusion) is the point.
        self._conn = connect_wal(self.path, isolation_level=None)
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )

    # -- locations -----------------------------------------------------------

    @property
    def spec(self) -> str:
        """The :func:`~repro.service.store.store_from_spec` spec."""
        return f"sqlite:{self.path}"

    @property
    def cache_path(self) -> Path:
        """The shared persistent evaluation cache file."""
        return self.cache_dir / "evaluations.sqlite"

    def checkpoint_path(self, job_id: str) -> Path:
        """The runner-facing checkpoint file (local mirror of the table)."""
        return self.checkpoints_dir / f"{job_id}.json"

    # -- transactions --------------------------------------------------------

    @contextmanager
    def _tx(self):
        """One ``BEGIN IMMEDIATE`` transaction; rollback on any error.

        IMMEDIATE takes the database write lock up front, so the
        read-check-write sequences inside (claim, submit, recovery) are
        atomic against writers in *other processes*, not just other
        threads.  A process killed inside the block leaves no partial
        state: SQLite rolls the transaction back on next open.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def _save_locked(self, record: JobRecord) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO jobs (job_id, status, submitted_at, payload) "
            "VALUES (?, ?, ?, ?)",
            (record.job_id, record.status, record.submitted_at,
             json.dumps(record.to_dict())),
        )

    def _get_locked(self, job_id: str) -> JobRecord | None:
        row = self._conn.execute(
            "SELECT payload FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return JobRecord.from_dict(json.loads(row[0])) if row else None

    def _requeue_locked(self, record: JobRecord) -> JobRecord:
        record.status = QUEUED
        record.started_at = None
        record.finished_at = None
        record.result = None
        record.error = ""
        self._save_locked(record)
        return record

    # -- record lifecycle ----------------------------------------------------

    def submit(self, job: ProtectionJob, extras: dict | None = None) -> JobRecord:
        """Register a job as queued (idempotent); see :meth:`JobStore.submit`.

        One transaction covers the existence check and the write, so
        two workers submitting the same job concurrently cannot both
        replace a failed record or interleave their writes.
        """
        with self._lock, self._tx():
            existing = self._get_locked(job.job_id)
            if existing is not None and existing.status != FAILED:
                return existing
            if existing is not None:
                # A worker that crashed between mark_failed and release
                # can leave a claim behind; drop it with the resubmit.
                self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                   (job.job_id,))
            record = JobRecord(job=job, status=QUEUED, submitted_at=time.time(),
                               extras=dict(extras or {}))
            self._save_locked(record)
            return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record``."""
        if record.status not in STATUSES:
            raise ServiceError(f"unknown job status {record.status!r}")
        with self._lock, self._tx():
            self._save_locked(record)

    def get(self, job_id: str, missing_ok: bool = False) -> JobRecord | None:
        """Load one record; raises :class:`ServiceError` unless ``missing_ok``."""
        with self._lock:
            record = self._get_locked(job_id)
        if record is None and not missing_ok:
            raise ServiceError(f"unknown job {job_id!r} (no record in {self.path})")
        return record

    def records(self) -> list[JobRecord]:
        """Every stored record, oldest submission first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM jobs ORDER BY submitted_at, job_id"
            ).fetchall()
        return [JobRecord.from_dict(json.loads(row[0])) for row in rows]

    def iter_records(self, batch_size: int = 256):
        """Yield records one at a time, in job-id order.

        The streaming sibling of :meth:`records` (not in
        :data:`STORE_PROTOCOL`; ``migrate_store`` feature-detects it).
        Pages through the table ``batch_size`` rows per query, keyed on
        the primary key rather than a long-lived cursor, so concurrent
        writers never block behind a reader holding the connection.
        """
        last = ""
        while True:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT job_id, payload FROM jobs WHERE job_id > ? "
                    "ORDER BY job_id LIMIT ?",
                    (last, batch_size),
                ).fetchall()
            if not rows:
                return
            for job_id, payload in rows:
                yield JobRecord.from_dict(json.loads(payload))
            last = rows[-1][0]

    def queued(self) -> list[JobRecord]:
        """Queued records only, oldest first — one indexed query."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM jobs WHERE status = ? "
                "ORDER BY submitted_at, job_id",
                (QUEUED,),
            ).fetchall()
        return [JobRecord.from_dict(json.loads(row[0])) for row in rows]

    def mark_running(self, record: JobRecord) -> None:
        """Transition to ``running`` and persist."""
        record.status = RUNNING
        record.started_at = time.time()
        self.save(record)

    def mark_completed(self, record: JobRecord, result: JobResult) -> None:
        """Transition to ``completed`` with its result and persist."""
        record.status = COMPLETED
        record.finished_at = time.time()
        record.result = result
        record.error = ""
        self.save(record)

    def mark_failed(self, record: JobRecord, error: str) -> None:
        """Transition to ``failed`` — unless the job completed meanwhile.

        Same stale-failure protection as the file store, but the check
        and the write share one transaction, so a completion landing
        between them is impossible rather than merely unlikely.
        """
        with self._lock, self._tx():
            current = self._get_locked(record.job_id)
            if current is not None and current.status == COMPLETED:
                record.status = current.status
                record.finished_at = current.finished_at
                record.result = current.result
                record.error = current.error
                return
            record.status = FAILED
            record.finished_at = time.time()
            record.error = error
            self._save_locked(record)

    def requeue(self, record: JobRecord) -> JobRecord:
        """Put a ``running`` or ``failed`` record back on the queue.

        Transactional version of :meth:`JobStore.requeue`: the
        completed-record guard, the queued rewrite and the claim drop
        commit together or not at all.
        """
        with self._lock, self._tx():
            current = self._get_locked(record.job_id) or record
            if COMPLETED in (record.status, current.status):
                raise WorkerError(
                    f"refusing to requeue completed job {record.job_id!r}"
                )
            self._requeue_locked(current)
            self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                               (record.job_id,))
            return current

    # -- worker claims -------------------------------------------------------

    def claim(self, job_id: str, owner: str = "") -> bool:
        """Atomically claim ``job_id`` for ``owner``.

        The check-and-insert is one ``BEGIN IMMEDIATE`` transaction:
        exactly one of N concurrent claimers — threads or processes —
        inserts the row, and a claimer that dies mid-transaction rolls
        back to "unclaimed", never to a half-claim.  Same-owner
        re-claims are idempotent for named owners, exactly like the
        file store (retried network claims); anonymous claims stay
        strictly exclusive.  Winning pulls the fleet's checkpoint blob
        into the local file spool so a resumed job continues from the
        latest saved state.
        """
        now = time.time()
        with self._lock, self._tx():
            row = self._conn.execute(
                "SELECT owner FROM claims WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is not None:
                won = bool(owner) and row[0] == owner
            else:
                self._conn.execute(
                    "INSERT INTO claims (job_id, owner, pid, claimed_at, last_seen) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (job_id, owner, os.getpid(), now, now),
                )
                won = True
        if won:
            self._pull_checkpoint(job_id)
        return won

    def claim_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """Claim up to ``limit`` queued, unclaimed records in one transaction.

        One indexed query selects the oldest claimable records and the
        claim rows land in the same transaction — there is no window
        for another worker to slip in between "saw it queued" and
        "claimed it", so no re-read/release dance is needed.
        """
        now = time.time()
        query = (
            "SELECT job_id, payload FROM jobs WHERE status = ? "
            "AND job_id NOT IN (SELECT job_id FROM claims) "
            "ORDER BY submitted_at, job_id"
        )
        params: list[object] = [QUEUED]
        if limit:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock, self._tx():
            rows = self._conn.execute(query, params).fetchall()
            for job_id, _ in rows:
                self._conn.execute(
                    "INSERT INTO claims (job_id, owner, pid, claimed_at, last_seen) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (job_id, owner, os.getpid(), now, now),
                )
        records = [JobRecord.from_dict(json.loads(payload)) for _, payload in rows]
        for record in records:
            self._pull_checkpoint(record.job_id)
        return records

    def release(self, job_id: str, owner: str | None = None) -> bool:
        """Drop ``job_id``'s claim; owner-checked when ``owner`` is given.

        An owner releasing its own claim first syncs its final
        checkpoint file into the table — the last chance before another
        worker may take the job over.  A torn claim (owner unreadable)
        never matches an owner check, mirroring the file store.
        """
        if owner is not None:
            self._push_checkpoint_if_changed(job_id, owner=owner)
        with self._lock, self._tx():
            if owner is None:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE job_id = ?", (job_id,)
                )
            else:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE job_id = ? "
                    "AND owner IS NOT NULL AND owner = ?",
                    (job_id, owner),
                )
            return cursor.rowcount > 0

    def heartbeat(self, job_id: str, owner: str = "") -> bool:
        """Refresh claim liveness; piggybacks checkpoint table sync.

        One UPDATE carries the whole owner-check contract: a torn claim
        (NULL owner) refuses every beat, an anonymous claim accepts any
        beater, and a named claim accepts its owner (or an ownerless
        beat).  A beat that lands also syncs a changed checkpoint file
        into the table, so the database trails a live worker's progress
        by at most one heartbeat interval.
        """
        with self._lock, self._tx():
            cursor = self._conn.execute(
                "UPDATE claims SET last_seen = ? WHERE job_id = ? "
                "AND owner IS NOT NULL AND (? = '' OR owner = '' OR owner = ?)",
                (time.time(), job_id, owner, owner),
            )
            alive = cursor.rowcount > 0
        if alive:
            self._push_checkpoint_if_changed(job_id, owner=owner or None)
        return alive

    def claim_info(self, job_id: str) -> dict | None:
        """The claim payload (owner, pid, claimed_at, last_seen), or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT owner, pid, claimed_at, last_seen FROM claims "
                "WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        if row[0] is None:
            # Torn claim: held, metadata unreadable — like the file store.
            return {}
        return {"owner": row[0], "pid": row[1], "claimed_at": row[2],
                "last_seen": row[3]}

    def claimed_job_ids(self) -> list[str]:
        """Every job id currently claimed by some worker."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id FROM claims ORDER BY job_id"
            ).fetchall()
        return [row[0] for row in rows]

    def claims(self) -> dict[str, dict]:
        """Every live claim's payload keyed by job id, in one query.

        Payloads gain ``age_seconds`` against this store's clock,
        exactly like the file store's bulk view.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, owner, pid, claimed_at, last_seen FROM claims "
                "ORDER BY job_id"
            ).fetchall()
        payloads: dict[str, dict] = {}
        for job_id, owner, pid, claimed_at, last_seen in rows:
            if owner is None:
                payloads[job_id] = {}
                continue
            info: dict = {"owner": owner, "pid": pid, "claimed_at": claimed_at,
                          "last_seen": last_seen}
            seen = float(last_seen or claimed_at or 0.0)
            if seen:
                info["age_seconds"] = max(0.0, now - seen)
            payloads[job_id] = info
        return payloads

    def recover_stale_claims(self, max_age_seconds: float = 3600.0) -> list[str]:
        """Release claims whose worker is evidently gone — one transaction.

        Indexed queries find the three recoverable shapes (claims on
        finished or missing jobs, silent claims on unfinished jobs,
        records stranded ``running`` with no claim); the requeues and
        claim drops commit atomically, so a crashed recovery pass
        changes nothing.  A claim refreshed by a heartbeat after this
        transaction began cannot be stolen: IMMEDIATE transactions
        serialize against the beat's own write transaction.
        """
        recovered: list[str] = []
        now = time.time()
        with self._lock, self._tx():
            rows = self._conn.execute(
                "SELECT c.job_id, c.claimed_at, c.last_seen, j.status "
                "FROM claims c LEFT JOIN jobs j USING (job_id) "
                "ORDER BY c.job_id"
            ).fetchall()
            for job_id, claimed_at, last_seen, status in rows:
                if status is None or status in (COMPLETED, FAILED):
                    self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                       (job_id,))
                    recovered.append(job_id)
                    continue
                seen = float(last_seen or claimed_at or 0.0)
                if now - seen > max_age_seconds:
                    current = self._get_locked(job_id)
                    if current is not None and current.status not in (
                        COMPLETED, FAILED
                    ):
                        self._requeue_locked(current)
                    self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                       (job_id,))
                    recovered.append(job_id)
            stranded = self._conn.execute(
                "SELECT job_id, payload FROM jobs WHERE status = ? "
                "AND job_id NOT IN (SELECT job_id FROM claims) "
                "ORDER BY submitted_at, job_id",
                (RUNNING,),
            ).fetchall()
            for job_id, payload in stranded:
                if job_id in recovered:
                    continue
                self._requeue_locked(JobRecord.from_dict(json.loads(payload)))
                recovered.append(job_id)
        return recovered

    # -- checkpoints ---------------------------------------------------------

    def get_checkpoint(self, job_id: str) -> dict | None:
        """The durable checkpoint blob — table first, file fallback.

        The table is the fleet's copy; the file fallback covers jobs
        checkpointed by a purely local runner before any claim/release
        cycle synced them in.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM checkpoints WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is not None:
            try:
                payload = json.loads(row[0])
            except json.JSONDecodeError:
                payload = None
            if isinstance(payload, dict):
                return payload
        try:
            payload = json.loads(
                self.checkpoint_path(job_id).read_text(encoding="utf-8")
            )
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_checkpoint(self, job_id: str, payload: dict,
                       owner: str | None = None) -> None:
        """Store a checkpoint blob in the table (claim-gated with ``owner``)
        and mirror it to the runner-facing file."""
        if not isinstance(payload, dict):
            raise ServiceError("checkpoint payload must be a JSON object")
        text = json.dumps(payload)
        with self._lock, self._tx():
            if owner is not None:
                row = self._conn.execute(
                    "SELECT owner FROM claims WHERE job_id = ?", (job_id,)
                ).fetchone()
                if row is None or row[0] != owner:
                    raise WorkerError(
                        f"checkpoint upload rejected: {job_id!r} is not "
                        f"claimed by {owner!r}"
                    )
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (job_id, payload, updated_at) "
                "VALUES (?, ?, ?)",
                (job_id, text, time.time()),
            )
        path = self.checkpoint_path(job_id)
        _atomic_write_text(path, text)
        self._synced_mtimes[job_id] = path.stat().st_mtime

    def _pull_checkpoint(self, job_id: str) -> None:
        """Table blob -> local file, so the runner resumes fleet state.

        The row's text is written as stored: it is parsed only to check
        that it is a JSON object.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM checkpoints WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None or not _is_json_object(row[0]):
            return
        path = self.checkpoint_path(job_id)
        _atomic_write_text(path, row[0])
        self._synced_mtimes[job_id] = path.stat().st_mtime

    def _push_checkpoint_if_changed(self, job_id: str,
                                    owner: str | None = None) -> None:
        """Local file -> table, only when the file changed since last sync.

        Table-only on purpose: the file is the runner's working copy and
        must not be rewritten here — an atomic-rename race could replace
        a checkpoint the runner wrote *after* this read with the older
        payload.  The owner gate refuses silently (the new owner's
        state wins), like the remote client's upload does.  The file's
        text is stored as read, once it parses as a JSON object.
        """
        path = self.checkpoint_path(job_id)
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            return
        if self._synced_mtimes.get(job_id) == mtime:
            return
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return  # gone; the next beat will retry
        if not _is_json_object(text):
            return  # torn mid-write or not an object; the next beat retries
        with self._lock, self._tx():
            if owner is not None:
                row = self._conn.execute(
                    "SELECT owner FROM claims WHERE job_id = ?", (job_id,)
                ).fetchone()
                if row is None or row[0] != owner:
                    return
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (job_id, payload, updated_at) "
                "VALUES (?, ?, ?)",
                (job_id, text, time.time()),
            )
        self._synced_mtimes[job_id] = mtime

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the database handle (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SqliteJobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SqliteJobStore({str(self.path)!r})"
