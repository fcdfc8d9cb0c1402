"""Shared fixtures: datasets, plus the two-backend job-store harness."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_adult, load_flare
from repro.service import JobStore


@dataclass
class StoreHarness:
    """One store under test plus the backing store its state lands in.

    ``store`` is what the test exercises (a file or sqlite store
    directly, or a ``RemoteJobStore`` speaking to a live in-process
    server over HTTP); ``backing`` is the underlying local store —
    file-backed :class:`JobStore` or ``SqliteJobStore`` — so tests can
    simulate conditions no healthy client would produce, like a claim
    whose worker died ``seconds`` ago or one torn mid-heartbeat.
    """

    store: object
    backing: object

    @staticmethod
    def _is_file_store(store: object) -> bool:
        return isinstance(store, JobStore)

    def age_claim(self, job_id: str, seconds: float) -> None:
        """Backdate a claim as if its worker went silent ``seconds`` ago."""
        then = time.time() - seconds
        backing = self.backing
        if self._is_file_store(backing):
            path = backing.claim_path(job_id)
            info = json.loads(path.read_text(encoding="utf-8"))
            info["claimed_at"] = then
            info["last_seen"] = then
            path.write_text(json.dumps(info), encoding="utf-8")
            return
        with backing._lock:
            backing._conn.execute(
                "UPDATE claims SET claimed_at = ?, last_seen = ? WHERE job_id = ?",
                (then, then, job_id),
            )

    def tear_claim(self, job_id: str) -> None:
        """Install a held claim whose metadata cannot be read.

        The file store's torn shape is an empty claim file (its true
        holder is between truncate and write); the sqlite store's is a
        claim row with a NULL owner.  Both mean "held, by whom
        unknown", and the owner-gated operations must refuse to guess.
        """
        backing = self.backing
        if self._is_file_store(backing):
            backing.claim_path(job_id).write_text("", encoding="utf-8")
            return
        with backing._lock:
            backing._conn.execute(
                "INSERT OR REPLACE INTO claims "
                "(job_id, owner, pid, claimed_at, last_seen) "
                "VALUES (?, NULL, NULL, ?, ?)",
                (job_id, time.time(), time.time()),
            )


class TwinHandles:
    """Two handles over one backing, taking store calls in turn.

    Every method lookup goes to the other handle than the last one, so
    a write through one handle is read back through a second — as when
    several worker processes each open their own store on one state
    directory, database or server.  A handle that served a read from
    state cached in the process, not the backing, fails the contract.
    """

    def __init__(self, first: object, second: object) -> None:
        self._handles = (first, second)
        self._turn = 0

    def __getattr__(self, name: str):
        handle = self._handles[self._turn]
        self._turn ^= 1
        return getattr(handle, name)


@pytest.fixture(params=["file", "remote", "sqlite", "sqlite-remote",
                        "file-twin", "sqlite-twin", "remote-twin"])
def store_harness(request, tmp_path) -> StoreHarness:
    """The store contract fixture: every test using it runs once per
    backend — the file-backed ``JobStore``, the ``SqliteJobStore``, a
    ``RemoteJobStore`` over a live ``JobStoreServer`` fronting each of
    the two, and :class:`TwinHandles` over two file stores, two sqlite
    stores and two remote clients of one server."""
    if request.param.startswith("sqlite"):
        from repro.service import SqliteJobStore

        def open_local():
            return SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
    else:
        def open_local():
            return JobStore(tmp_path / "state")
    backing = open_local()
    if request.param in ("file", "sqlite"):
        yield StoreHarness(store=backing, backing=backing)
        return
    if request.param in ("file-twin", "sqlite-twin"):
        yield StoreHarness(store=TwinHandles(backing, open_local()), backing=backing)
        return
    from repro.service import JobStoreServer, RemoteJobStore

    server = JobStoreServer(backing, token="contract-token")
    server.start()
    try:
        def open_client(spool: str):
            return RemoteJobStore(
                server.url,
                token="contract-token",
                spool=tmp_path / spool,
                retries=1,
                backoff=0.05,
            )

        client = open_client("spool")
        if request.param == "remote-twin":
            client = TwinHandles(client, open_client("spool-b"))
        yield StoreHarness(store=client, backing=backing)
    finally:
        server.stop()


@pytest.fixture(scope="session")
def tiny_schema() -> DatasetSchema:
    """Three attributes: nominal COLOR(3), ordinal SIZE(4), nominal SHAPE(2)."""
    return DatasetSchema(
        [
            CategoricalDomain("COLOR", ["red", "green", "blue"]),
            CategoricalDomain("SIZE", ["S", "M", "L", "XL"], ordinal=True),
            CategoricalDomain("SHAPE", ["round", "square"]),
        ]
    )


@pytest.fixture
def tiny_dataset(tiny_schema: DatasetSchema) -> CategoricalDataset:
    """12 records over the tiny schema, deterministic."""
    rng = np.random.default_rng(7)
    codes = np.column_stack(
        [
            rng.integers(0, 3, size=12),
            rng.integers(0, 4, size=12),
            rng.integers(0, 2, size=12),
        ]
    )
    return CategoricalDataset(codes, tiny_schema, name="tiny")


@pytest.fixture(scope="session")
def adult() -> CategoricalDataset:
    """The synthetic Adult dataset (1000 x 8)."""
    return load_adult()


@pytest.fixture(scope="session")
def flare() -> CategoricalDataset:
    """The synthetic Solar Flare dataset (1066 x 13)."""
    return load_flare()


@pytest.fixture(scope="session")
def small_adult(adult: CategoricalDataset) -> CategoricalDataset:
    """First 120 Adult records — fast enough for linkage-heavy tests."""
    return CategoricalDataset(adult.codes[:120], adult.schema, name="adult-small")
