"""Concurrent first opens of one fresh SQLite file never fail.

The evaluation cache and the SQLite job store switch their file to WAL
mode on open.  Many threads or processes opening the same fresh file at
once used to race on that switch and raise ``database is locked``.
"""

from __future__ import annotations

import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service.cache import EvaluationCache
from repro.service.sqlstore import SqliteJobStore

THREADS = 8
PROCESSES = 4


def _open_cache(path: Path) -> None:
    EvaluationCache(path).close()


def _open_store(path: Path) -> None:
    SqliteJobStore(path)


OPENERS = {"cache": _open_cache, "store": _open_store}


def _journal_mode(path: Path) -> str:
    conn = sqlite3.connect(path)
    try:
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
    finally:
        conn.close()
    return mode


def _race_threads(root: Path, opener, rounds: int) -> list[str]:
    """Open a fresh file from :data:`THREADS` threads at once, ``rounds`` times."""
    errors: list[str] = []
    for index in range(rounds):
        path = root / f"round-{index}.sqlite"
        barrier = threading.Barrier(THREADS)

        def open_once() -> None:
            barrier.wait(timeout=60)
            try:
                opener(path)
            except Exception as exc:  # noqa: BLE001 - the error is the finding
                errors.append(f"round {index}: {exc!r}")

        threads = [threading.Thread(target=open_once) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert _journal_mode(path) == "wal"
    return errors


@pytest.mark.parametrize("kind", sorted(OPENERS))
def test_threads_open_one_fresh_file(tmp_path, kind):
    assert _race_threads(tmp_path, OPENERS[kind], rounds=50) == []


@pytest.mark.stress
@pytest.mark.parametrize("kind", sorted(OPENERS))
def test_threads_open_one_fresh_file_stress(tmp_path, kind):
    assert _race_threads(tmp_path, OPENERS[kind], rounds=1000) == []


_PROCESS_SCRIPT = """\
import os, sys, time
sys.path.insert(0, sys.argv[1])
from repro.service.cache import EvaluationCache
from repro.service.sqlstore import SqliteJobStore
cache_path, store_path, go = sys.argv[2], sys.argv[3], sys.argv[4]
open(go + "." + sys.argv[5], "w").close()
while not os.path.exists(go):
    time.sleep(0.001)
EvaluationCache(cache_path).close()
SqliteJobStore(store_path)
"""


def test_processes_open_one_fresh_cache_and_store(tmp_path):
    src = str(Path(repro.__file__).parents[1])
    go = tmp_path / "go"
    cache_path = tmp_path / "cache.sqlite"
    store_path = tmp_path / "db" / "jobs.sqlite"
    store_path.parent.mkdir()
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PROCESS_SCRIPT, src, str(cache_path),
             str(store_path), str(go), str(index)],
            stderr=subprocess.PIPE, text=True,
        )
        for index in range(PROCESSES)
    ]
    # Release every process at once, after all have imported.
    deadline = time.monotonic() + 60
    while len(list(tmp_path.glob("go.*"))) < PROCESSES:
        assert time.monotonic() < deadline, "opener processes never started"
        time.sleep(0.01)
    go.touch()
    failures = []
    for proc in procs:
        _, stderr = proc.communicate(timeout=60)
        if proc.returncode:
            failures.append(stderr)
    assert failures == []
    assert _journal_mode(cache_path) == _journal_mode(store_path) == "wal"
