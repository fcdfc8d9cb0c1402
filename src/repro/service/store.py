"""On-disk job store: the service's durable state directory.

The store owns one directory (default ``$REPRO_HOME`` or ``~/.repro``)
with a fixed layout::

    <root>/jobs/<job_id>.json        one JobRecord per submitted job
    <root>/claims/<job_id>.claim     worker ownership markers (O_EXCL)
    <root>/checkpoints/<job_id>.json periodic engine checkpoints
    <root>/cache/evaluations.sqlite  the shared persistent evaluation cache

Records move through ``queued -> running -> completed | failed``; a
record stuck in ``running`` with a checkpoint on disk is exactly the
interrupted-job case ``repro resume`` repairs.  Everything is plain JSON
so operators can inspect and repair state with standard tools.

Claim files are how concurrent workers partition the queue without a
coordinator: a worker owns ``job_id`` exactly while
``<root>/claims/<job_id>.claim`` exists and was created by it.  Creation
uses ``O_CREAT | O_EXCL``, which is atomic on POSIX filesystems (and on
NFS since v3), so two workers sharing one state directory can never both
claim the same job.  A live worker refreshes its claims' ``last_seen``
field via :meth:`JobStore.heartbeat`; a claim whose worker has gone
silent (crash, kill -9, network partition) is recovered by
:meth:`JobStore.recover_stale_claims` once ``last_seen`` is older than
the staleness bound.

The method surface below — :data:`STORE_PROTOCOL` — is the store
contract: any other implementation (the network-backed
:class:`~repro.service.netstore.RemoteJobStore`) must expose exactly
these operations with the same semantics, enforced by the parametrized
conformance suite in ``tests/test_store_contract.py``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from repro.exceptions import ServiceError, WorkerError
from repro.service.job import JobResult, ProtectionJob

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
STATUSES = (QUEUED, RUNNING, COMPLETED, FAILED)

#: Blob-id suffix of an island's durable migrant buffer on the
#: checkpoint path (``<job_id>.migrants``).
MIGRANTS_BLOB_SUFFIX = ".migrants"

#: The job-store contract: every store implementation (file-backed or
#: networked) exposes exactly these operations, and the conformance
#: suite asserts their shared semantics against each implementation.
STORE_PROTOCOL = (
    "submit",
    "save",
    "get",
    "records",
    "queued",
    "mark_running",
    "mark_completed",
    "mark_failed",
    "requeue",
    "claim",
    "claim_batch",
    "release",
    "heartbeat",
    "claim_info",
    "claims",
    "claimed_job_ids",
    "recover_stale_claims",
    "get_checkpoint",
    "put_checkpoint",
)


def default_state_dir() -> Path:
    """The service state directory: ``$REPRO_HOME`` or ``~/.repro``."""
    env = os.environ.get("REPRO_HOME", "")
    return Path(env) if env else Path.home() / ".repro"


def _atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    """Run ``write(handle)`` on a uniquely-named temp file, then rename it
    over ``path``.

    The temp name must be unique per writer: the network server saves
    records from concurrent handler threads, and a shared ``.tmp`` path
    would let two writers interleave into one file before the rename
    installs it.  (Readers glob ``*.json``, which never matches the
    ``.tmp`` suffix.)
    """
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _atomic_write_json(path: Path, payload: dict, indent: int | None = None) -> None:
    """Atomically write ``payload`` as JSON, streamed to the file."""
    _atomic_write(path, lambda handle: json.dump(payload, handle, indent=indent))


def _atomic_write_text(path: Path, text: str) -> None:
    """Atomically write ``text`` as it is."""
    _atomic_write(path, lambda handle: handle.write(text))


@dataclass
class JobRecord:
    """One job's lifecycle: specification, status, timestamps, outcome."""

    job: ProtectionJob
    status: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    result: JobResult | None = None
    error: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        """The job's content-derived identifier."""
        return self.job.job_id

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "job": self.job.to_dict(),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        result = payload.get("result")
        return cls(
            job=ProtectionJob.from_dict(payload["job"]),
            status=payload.get("status", QUEUED),
            submitted_at=payload.get("submitted_at", 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            result=JobResult.from_dict(result) if result else None,
            error=payload.get("error", ""),
            extras=payload.get("extras", {}),
        )


class JobStore:
    """Directory-backed persistence for job records, checkpoints, cache."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_state_dir()
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.checkpoints_dir = self.root / "checkpoints"
        self.cache_dir = self.root / "cache"
        for directory in (self.jobs_dir, self.claims_dir, self.checkpoints_dir,
                          self.cache_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # Status index: job_id -> (mtime_ns, size, status, submitted_at),
        # validated by stat on every use, so queue polls and stale
        # recovery re-parse only records that actually changed since the
        # last tick instead of re-reading the whole job table.
        self._index: dict[str, tuple[int, int, str, float]] = {}
        # Claim index: job_id -> (mtime_ns, size, payload), same scheme —
        # claims() serves monitoring from one directory scan, re-reading
        # only claim files whose stat changed (each heartbeat rewrite
        # bumps mtime, so a beat is never served stale).
        self._claims_index: dict[str, tuple[int, int, dict]] = {}

    @property
    def spec(self) -> str:
        """The :func:`store_from_spec` spec that reopens this store."""
        return f"file:{self.root}"

    # -- locations ----------------------------------------------------------

    @property
    def cache_path(self) -> Path:
        """The shared persistent evaluation cache file."""
        return self.cache_dir / "evaluations.sqlite"

    def record_path(self, job_id: str) -> Path:
        """Where ``job_id``'s record lives."""
        return self.jobs_dir / f"{job_id}.json"

    def claim_path(self, job_id: str) -> Path:
        """Where ``job_id``'s worker claim marker lives."""
        return self.claims_dir / f"{job_id}.claim"

    def checkpoint_path(self, job_id: str) -> Path:
        """Where ``job_id``'s engine checkpoint lives."""
        return self.checkpoints_dir / f"{job_id}.json"

    # -- record lifecycle ---------------------------------------------------

    def submit(self, job: ProtectionJob, extras: dict | None = None) -> JobRecord:
        """Register a job as queued (idempotent).

        Resubmission never clobbers live state: a ``completed`` record is
        returned untouched, and so are ``queued`` and ``running`` ones —
        resetting a running job to queued would orphan the worker that
        owns it and lose ``started_at``.  Only a ``failed`` record is
        replaced by a fresh queued submission.

        ``extras`` (e.g. the checkpoint cadence) ride in the initial
        queued write itself: adding them with a second save would open a
        window where a polling worker claims the record without them.
        Resubmission keeps the existing record's extras.
        """
        existing = self.get(job.job_id, missing_ok=True)
        if existing is not None and existing.status != FAILED:
            return existing
        if existing is not None:
            # A worker that crashed between mark_failed and release can
            # leave a claim behind; drop it, or the fresh queued record
            # would be unclaimable until the claim ages out.
            self.release(job.job_id)
        record = JobRecord(job=job, status=QUEUED, submitted_at=time.time(),
                           extras=dict(extras or {}))
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record``."""
        if record.status not in STATUSES:
            raise ServiceError(f"unknown job status {record.status!r}")
        path = self.record_path(record.job_id)
        _atomic_write_json(path, record.to_dict(), indent=2)

    def get(self, job_id: str, missing_ok: bool = False) -> JobRecord | None:
        """Load one record; raises :class:`ServiceError` unless ``missing_ok``."""
        path = self.record_path(job_id)
        if not path.exists():
            if missing_ok:
                return None
            raise ServiceError(f"unknown job {job_id!r} (no record in {self.jobs_dir})")
        return JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def records(self) -> list[JobRecord]:
        """Every stored record, oldest submission first."""
        loaded = [
            JobRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted(self.jobs_dir.glob("*.json"))
        ]
        return sorted(loaded, key=lambda r: r.submitted_at)

    def iter_records(self):
        """Yield records one at a time, in record-file name order.

        The streaming sibling of :meth:`records` (not part of
        :data:`STORE_PROTOCOL` — callers feature-detect it): a
        migration over a large table holds one record in memory, not
        the whole store.  Ordered by job id, not submission time —
        global time-ordering would force materializing everything,
        which is the point of not using :meth:`records`.
        """
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # torn mid-write; a migration snapshot skips it
            if isinstance(payload, dict):
                yield JobRecord.from_dict(payload)

    def _status_index(self) -> dict[str, tuple[str, float]]:
        """``job_id -> (status, submitted_at)`` without a full table read.

        Every record file is stat'ed (cheap) but only files whose
        mtime/size changed since the last call are re-parsed, so a
        polling worker's steady-state tick costs one stat per job, not
        one JSON parse per job.  A file that vanishes or tears mid-read
        (a save racing this scan) is simply skipped — records are
        written by atomic rename, so the next tick sees its final
        state.  A fresh store instance seeds the index with one full
        scan, which is exactly the old behaviour.
        """
        fresh: dict[str, tuple[int, int, str, float]] = {}
        for path in sorted(self.jobs_dir.glob("*.json")):
            job_id = path.stem
            try:
                stat = path.stat()
            except OSError:
                continue
            cached = self._index.get(job_id)
            if (cached is not None and cached[0] == stat.st_mtime_ns
                    and cached[1] == stat.st_size):
                fresh[job_id] = cached
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict):
                continue
            fresh[job_id] = (stat.st_mtime_ns, stat.st_size,
                             payload.get("status", QUEUED),
                             float(payload.get("submitted_at") or 0.0))
        self._index = fresh
        return {job_id: (entry[2], entry[3]) for job_id, entry in fresh.items()}

    def queued(self) -> list[JobRecord]:
        """Queued records only, oldest submission first (the work queue).

        Uses the status index to load only the records it will return:
        a poll over a mostly-finished job table no longer re-reads every
        completed record.  Each candidate is re-read (and re-checked)
        through :meth:`get`, so a record that left the queue between
        the index scan and the load is filtered out, never returned
        stale.
        """
        index = self._status_index()
        candidates = sorted(
            (submitted_at, job_id)
            for job_id, (status, submitted_at) in index.items()
            if status == QUEUED
        )
        records = []
        for _, job_id in candidates:
            record = self.get(job_id, missing_ok=True)
            if record is not None and record.status == QUEUED:
                records.append(record)
        return records

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
        """Transition to ``failed`` with the error text and persist.

        Checked against the on-disk record first: a worker whose claim
        was stale-recovered mid-run may report its failure after the
        takeover worker already completed the job, and a finished result
        must never be clobbered by a stale failure.  In that case the
        caller's record is refreshed to the completed truth instead.
        """
        current = self.get(record.job_id, missing_ok=True)
        if current is not None and current.status == COMPLETED:
            record.status = current.status
            record.finished_at = current.finished_at
            record.result = current.result
            record.error = current.error
            return
        record.status = FAILED
        record.finished_at = time.time()
        record.error = error
        self.save(record)

    def requeue(self, record: JobRecord) -> JobRecord:
        """Put a ``running`` or ``failed`` record back on the queue.

        Clears the previous attempt's timestamps, result and error, and
        releases any claim so another worker can pick the job up.
        Requeueing a ``completed`` record would discard a finished
        result and raises :class:`WorkerError` instead — checked against
        the on-disk record, not just the caller's snapshot, so a job
        that completed since the caller last looked is protected too.
        """
        current = self.get(record.job_id, missing_ok=True) or record
        if COMPLETED in (record.status, current.status):
            raise WorkerError(f"refusing to requeue completed job {record.job_id!r}")
        current.status = QUEUED
        current.started_at = None
        current.finished_at = None
        current.result = None
        current.error = ""
        self.save(current)
        self.release(current.job_id)
        return current

    # -- worker claims ------------------------------------------------------

    def claim(self, job_id: str, owner: str = "") -> bool:
        """Atomically claim ``job_id`` for ``owner``.

        Returns ``True`` when this call created the claim file (the
        caller now owns the job), ``False`` when another worker already
        holds it.  ``O_CREAT | O_EXCL`` makes the create-or-fail decision
        a single atomic filesystem operation.  The claim starts with
        ``last_seen == claimed_at``; the owner keeps it alive with
        :meth:`heartbeat`.

        For a named ``owner`` the claim is idempotent: re-claiming a job
        that owner already holds returns ``True``.  Worker identities
        are unique (host-pid by default), so this can only say "yes, you
        still own it" — it exists for retried network claims, where the
        first attempt's response was lost after the claim file landed.
        Anonymous claims (empty owner) stay strictly exclusive.
        """
        now = time.time()
        payload = {"owner": owner, "pid": os.getpid(), "claimed_at": now,
                   "last_seen": now}
        try:
            fd = os.open(self.claim_path(job_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if owner:
                info = self.claim_info(job_id)
                if info is not None and info.get("owner") == owner:
                    return True
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return True

    def claim_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """Win claims over up to ``limit`` queued records for ``owner``.

        The one-call form of the worker claim loop: walk the queue
        oldest-first, claim each record, re-read inside the claim (a
        record that stopped being queued in the meantime is released
        again, not returned), and stop after ``limit`` wins when
        positive.  On any error every claim already held is released
        best-effort before the error propagates.  Database-backed
        stores implement this as one transaction; here it is the same
        claim-file protocol the single-job path uses.

        Only *new* wins are returned: a job this owner already holds is
        skipped, not re-won — ``claim()``'s per-owner idempotency would
        otherwise hand a polling worker its own running jobs back on
        every batch pull, forever.
        """
        mine: list[JobRecord] = []
        held: list[str] = []
        try:
            for record in self.queued():
                if limit and len(mine) >= limit:
                    break
                if self.claim_info(record.job_id) is not None:
                    continue  # held by someone — possibly by this owner
                if not self.claim(record.job_id, owner=owner):
                    continue
                held.append(record.job_id)
                current = self.get(record.job_id, missing_ok=True)
                if current is None or current.status != QUEUED:
                    self.release(record.job_id, owner=owner)
                    held.pop()
                    continue
                mine.append(current)
        except BaseException:
            for job_id in held:
                try:
                    self.release(job_id, owner=owner)
                except Exception:  # noqa: BLE001 - stale recovery backstops
                    pass
            raise
        return mine

    def release(self, job_id: str, owner: str | None = None) -> bool:
        """Drop ``job_id``'s claim (no-op when none exists).

        With ``owner`` given, the claim is only dropped on an exact,
        readable owner match — a worker releasing in its ``finally``
        must not unlink a claim that was recovered from it and
        re-granted to someone else in the meantime, and a claim whose
        owner cannot be read right now (torn mid-heartbeat by its true
        holder) is left alone rather than guessed at.  The check and the
        unlink are two filesystem operations, so an adversarial
        interleaving (release + re-claim between them) can still slip
        through; heartbeat-based recovery is the backstop for that
        window.  Without ``owner`` the release is unconditional (the
        recovery/requeue paths).  Returns whether a claim was removed.
        """
        if owner is not None:
            info = self.claim_info(job_id)
            if info is None:
                return False
            if info.get("owner") != owner:
                return False
        try:
            self.claim_path(job_id).unlink()
        except FileNotFoundError:
            return False
        return True

    def heartbeat(self, job_id: str, owner: str = "") -> bool:
        """Refresh ``job_id``'s claim liveness for ``owner``.

        Updates the claim's ``last_seen`` timestamp so
        :meth:`recover_stale_claims` knows the owning worker is still
        alive — a long job only has to beat more often than the
        staleness bound, however long it runs.  With ``owner`` given the
        beat only lands when that owner holds the claim.  Returns
        whether the claim was refreshed; ``False`` means the claim is
        gone (or owned by someone else) and the caller should assume it
        lost the job.

        The read and the rewrite go through one file descriptor, opened
        without ``O_CREAT``: a beat racing a release must not resurrect
        the claim file it lost, and a beat racing a release *plus a
        re-claim by another worker* must not overwrite the new owner's
        claim — the re-claim is a fresh inode, so a straggler's write
        lands on the old, already-unlinked one and changes nothing
        anybody can see.
        """
        try:
            fd = os.open(self.claim_path(job_id), os.O_RDWR)
        except FileNotFoundError:
            return False
        with os.fdopen(fd, "r+", encoding="utf-8") as handle:
            try:
                info = json.load(handle)
            except json.JSONDecodeError:
                # Mid-write by the true owner; their beat already counts.
                return False
            if not isinstance(info, dict):
                return False
            if owner and info.get("owner", "") not in ("", owner):
                return False
            info["last_seen"] = time.time()
            handle.seek(0)
            handle.truncate()
            json.dump(info, handle)
        return True

    def claim_info(self, job_id: str) -> dict | None:
        """The claim payload (owner, pid, claimed_at), or ``None``."""
        path = self.claim_path(job_id)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            # Claim created but not yet written (or torn by a crash):
            # treat it as held with unknown metadata.
            return {}

    def claimed_job_ids(self) -> list[str]:
        """Every job id currently claimed by some worker."""
        return sorted(path.stem for path in self.claims_dir.glob("*.claim"))

    def claims(self) -> dict[str, dict]:
        """Every live claim's payload keyed by job id, in one bulk read.

        What monitoring wants (``repro status`` shows each claim's owner
        and heartbeat age): one operation — and, for the network store,
        one round trip — instead of a ``claim_info`` per claimed job.
        A claim released between the listing and its read is skipped.

        Served from a single directory scan backed by the stat-validated
        claim index: every claim file is stat'ed (cheap), but only files
        whose mtime/size changed since the last call are re-parsed —
        a monitoring poll over a large fleet costs one ``scandir`` plus
        one parse per *changed* claim, not one read per claim.

        Each payload gains an ``age_seconds`` field — seconds since the
        claim's last heartbeat, computed against *this store's* clock.
        Remote monitors must prefer it over doing their own arithmetic
        on ``last_seen``: their clock and the workers' need not agree.
        """
        now = time.time()
        suffix = ".claim"
        entries = []
        with os.scandir(self.claims_dir) as scan:
            for entry in scan:
                if entry.name.endswith(suffix):
                    entries.append(entry)
        fresh: dict[str, tuple[int, int, dict]] = {}
        payloads: dict[str, dict] = {}
        for entry in sorted(entries, key=lambda e: e.name):
            job_id = entry.name[: -len(suffix)]
            try:
                stat = entry.stat()
            except OSError:
                continue  # released between the scan and the stat
            cached = self._claims_index.get(job_id)
            if (cached is not None and cached[0] == stat.st_mtime_ns
                    and cached[1] == stat.st_size):
                info = cached[2]
            else:
                info = self.claim_info(job_id)
                if info is None:
                    continue
            fresh[job_id] = (stat.st_mtime_ns, stat.st_size, info)
            payload = dict(info)
            last_seen = float(payload.get("last_seen") or payload.get("claimed_at") or 0.0)
            if last_seen:
                payload["age_seconds"] = max(0.0, now - last_seen)
            payloads[job_id] = payload
        self._claims_index = fresh
        return payloads

    def recover_stale_claims(self, max_age_seconds: float = 3600.0) -> list[str]:
        """Release claims whose worker is evidently gone.

        Two cases are recovered: a claim for a job that already finished
        (``completed``/``failed`` — the worker crashed between marking
        and releasing) is simply dropped, and a claim whose worker has
        not heartbeated for ``max_age_seconds`` (by ``last_seen``,
        falling back to ``claimed_at`` and finally the claim file's
        mtime for claims written by pre-heartbeat workers) on an
        unfinished job is dropped *and* the record is requeued so
        another worker can take over.  Returns the recovered job ids.
        """
        recovered = []
        now = time.time()
        for job_id in self.claimed_job_ids():
            record = self.get(job_id, missing_ok=True)
            if record is None or record.status in (COMPLETED, FAILED):
                self.release(job_id)
                recovered.append(job_id)
                continue
            info = self.claim_info(job_id) or {}
            last_seen = float(info.get("last_seen") or info.get("claimed_at") or 0.0)
            if not last_seen:
                try:
                    last_seen = self.claim_path(job_id).stat().st_mtime
                except FileNotFoundError:
                    continue
            if now - last_seen > max_age_seconds:
                # Re-read just before acting: the job may have finished
                # between the listing above and now, and a finished
                # record only needs its claim dropped, never a requeue.
                current = self.get(job_id, missing_ok=True)
                if current is None or current.status in (COMPLETED, FAILED):
                    self.release(job_id)
                else:
                    try:
                        self.requeue(current)
                    except WorkerError:
                        # Completed in the window since the re-read;
                        # requeue protected the result, drop the claim.
                        self.release(job_id)
                recovered.append(job_id)
        # A record can also strand in `running` with *no* claim — the
        # worker died between releasing and marking, or its final mark
        # failed after the claims were already dropped.  The claim scan
        # above can't see those (there is no claim), and they are in no
        # queue, so requeue them here.  Running-with-no-claim is never a
        # legitimate state: marks happen strictly inside the claim.
        # The status index keeps this scan from re-reading every record.
        index = self._status_index()
        running = sorted(
            (submitted_at, job_id)
            for job_id, (status, submitted_at) in index.items()
            if status == RUNNING
        )
        for _, job_id in running:
            if job_id in recovered:
                continue
            # Re-read right before acting, and re-check the claim: a
            # worker may have claimed or finished it since the listing.
            current = self.get(job_id, missing_ok=True)
            if (
                current is not None
                and current.status == RUNNING
                and self.claim_info(job_id) is None
            ):
                try:
                    self.requeue(current)
                except WorkerError:
                    continue  # finished in the window; nothing to recover
                recovered.append(job_id)
        return recovered

    # -- checkpoints ---------------------------------------------------------

    def get_checkpoint(self, job_id: str) -> dict | None:
        """The stored engine checkpoint for ``job_id``, or ``None``."""
        try:
            payload = json.loads(
                self.checkpoint_path(job_id).read_text(encoding="utf-8")
            )
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_checkpoint(self, job_id: str, payload: dict,
                       owner: str | None = None) -> None:
        """Durably store ``job_id``'s checkpoint.

        With ``owner`` given the write is claim-gated: a worker whose
        claim was recovered and re-granted must not overwrite the new
        owner's fresher state.  Exact match only — a torn claim
        (unreadable mid-heartbeat) refuses rather than guesses, like
        release and heartbeat do.
        """
        if not isinstance(payload, dict):
            raise ServiceError("checkpoint payload must be a JSON object")
        if owner is not None:
            info = self.claim_info(job_id)
            if info is None or info.get("owner") != owner:
                raise WorkerError(
                    f"checkpoint upload rejected: {job_id!r} is not "
                    f"claimed by {owner!r}"
                )
        _atomic_write_json(self.checkpoint_path(job_id), payload)

    def __repr__(self) -> str:
        return f"JobStore({str(self.root)!r})"


def migrants_blob_id(job_id: str) -> str:
    """The checkpoint-path blob id holding ``job_id``'s migrant buffer."""
    return f"{job_id}{MIGRANTS_BLOB_SUFFIX}"


def store_from_spec(spec: str = "", *, token: str = "",
                    state_dir: str | Path | None = None):
    """Open a job store from its selection spec — the one factory the
    CLI, workers and tests share instead of ad-hoc backend branching.

    Spec grammar (the selection contract, recorded in the ROADMAP):

    - ``""`` — the default file store (``state_dir``, else
      ``$REPRO_HOME`` or ``~/.repro``);
    - ``file:DIR`` or a bare directory path — a file store on ``DIR``;
    - ``sqlite:PATH`` — a :class:`~repro.service.sqlstore.SqliteJobStore`
      on the database file ``PATH`` (empty path: ``jobs.sqlite`` under
      the default state directory);
    - ``http://...`` / ``https://...`` — a
      :class:`~repro.service.netstore.RemoteJobStore` client of a
      ``repro serve`` endpoint, authenticated with ``token`` and
      spooling under ``state_dir``;

    Local paths are ``~``-expanded here: a spec like ``file:~/.repro``
    reaches this factory verbatim (shells do not tilde-expand after the
    colon), and silently creating a literal ``./~`` directory instead
    of opening the home-dir store would make a migration look
    successful while copying nothing.

    An unrecognized ``scheme:`` prefix (say, a typo like
    ``sqllite:jobs.db``) is an error, not a file store on a directory
    literally named that — a fleet quietly writing into
    ``./sqllite:jobs.db`` looks healthy while sharing state with
    no one.

    Every returned store exposes the full :data:`STORE_PROTOCOL`.
    """
    spec = (spec or "").strip()
    if spec.startswith(("http://", "https://")):
        from repro.service.netstore import RemoteJobStore

        return RemoteJobStore(spec, token=token,
                              spool=state_dir if state_dir else None)
    if spec.startswith("sqlite:"):
        from repro.service.sqlstore import SqliteJobStore

        path = spec[len("sqlite:"):]
        return SqliteJobStore(Path(path).expanduser() if path else None)
    if spec.startswith("file:"):
        spec = spec[len("file:"):]
    elif _looks_like_unknown_scheme(spec):
        scheme = spec.split(":", 1)[0]
        raise ServiceError(
            f"unrecognized store scheme {scheme + ':'!r} in spec {spec!r} "
            "— valid specs: \"\" (default file store), file:DIR or a bare "
            "directory path, sqlite:PATH, and http(s)://HOST:PORT"
        )
    if not spec:
        return JobStore(state_dir) if state_dir else JobStore()
    return JobStore(Path(spec).expanduser())


def _looks_like_unknown_scheme(spec: str) -> bool:
    """Whether a non-``file:`` spec reads as ``scheme:rest`` rather than
    a path.  Alphabetic tokens of length >= 2 only, so Windows drive
    letters (``C:\\jobs``) and paths with colons deeper in (``a/b:c``)
    still open as file stores; an existing path always wins — the user
    demonstrably means that directory."""
    head, sep, _ = spec.partition(":")
    if not sep or not head.isalpha() or len(head) < 2:
        return False
    return not Path(spec).expanduser().exists()


def migrate_store(source, target, *, chunk_size: int = 100) -> dict[str, int]:
    """Copy every job record and checkpoint from ``source`` to ``target``.

    Works across any two :data:`STORE_PROTOCOL` stores (this is the
    ``repro migrate`` export/import pair: file directory -> sqlite
    database and back).  Records keep their status, timestamps and
    results byte-for-byte; checkpoints ride along keyed by job id.  Live
    claims are deliberately *not* carried: migrate a quiesced fleet — a
    record mid-``running`` at snapshot time arrives with no claim and is
    requeued by the first ``recover_stale_claims`` pass on the target,
    which is exactly the crashed-worker repair path.

    The copy streams: a source exposing ``iter_records()`` (the file
    and sqlite stores do) is traversed one record at a time, so a
    million-job table never materializes in memory; other sources fall
    back to ``records()``.  Every ``chunk_size`` records a
    ``migrate_progress`` event is emitted — ``repro migrate
    --log-json`` on a large store shows a heartbeat, not an hour of
    silence.  Returns counts of what was copied.

    Durable trace blobs (``<job_id>.trace``, see
    :mod:`repro.obs.trace`) and island migrant buffers
    (:func:`migrants_blob_id`) ride the same checkpoint path, so a
    migrated job keeps its waterfall and a migrated island group keeps
    its exchange history too.
    """
    from repro.obs import emit_event
    from repro.obs.trace import trace_blob_id

    if chunk_size < 1:
        raise ServiceError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = getattr(source, "iter_records", None)
    stream = iterator() if callable(iterator) else source.records()
    copied = 0
    checkpoints = 0
    traces = 0
    migrants = 0
    for record in stream:
        target.save(record)
        copied += 1
        payload = source.get_checkpoint(record.job_id)
        if payload is not None:
            target.put_checkpoint(record.job_id, payload)
            checkpoints += 1
        blob = source.get_checkpoint(trace_blob_id(record.job_id))
        if blob is not None:
            target.put_checkpoint(trace_blob_id(record.job_id), blob)
            traces += 1
        buffer = source.get_checkpoint(migrants_blob_id(record.job_id))
        if buffer is not None:
            target.put_checkpoint(migrants_blob_id(record.job_id), buffer)
            migrants += 1
        if copied % chunk_size == 0:
            emit_event("migrate_progress", records=copied,
                       checkpoints=checkpoints, traces=traces,
                       migrants=migrants)
    emit_event("migrate_progress", records=copied, checkpoints=checkpoints,
               traces=traces, migrants=migrants, done=True)
    return {"records": copied, "checkpoints": checkpoints, "traces": traces,
            "migrants": migrants}
