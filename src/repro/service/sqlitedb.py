"""Opening one SQLite file from many threads and processes at once.

Both SQLite-backed stores (the evaluation cache and the job store) run
in WAL mode, and switching a fresh file to WAL needs an exclusive lock.
When connections race for that lock, SQLite can fail the switch with
``database is locked`` at once, skipping the busy handler where waiting
could deadlock.  :func:`connect_wal` closes that race: the busy timeout
applies from the first statement, the switch is skipped when the file is
already in WAL, and a busy switch is retried a bounded number of times.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path

#: How long any statement waits on another connection's lock.
BUSY_TIMEOUT_SECONDS = 10.0

#: Attempts at the WAL switch before the busy error propagates.
WAL_SWITCH_ATTEMPTS = 20


def connect_wal(path: str | Path, isolation_level: str | None = "") -> sqlite3.Connection:
    """A connection to ``path`` with the file in WAL mode.

    ``isolation_level`` passes through to :func:`sqlite3.connect`.  The
    connection is shareable across threads (callers serialize it with
    their own lock) and waits up to :data:`BUSY_TIMEOUT_SECONDS` on
    other connections' locks.
    """
    # ``timeout`` installs the busy handler at connect time, so it
    # covers every statement below.
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_SECONDS,
                           check_same_thread=False, isolation_level=isolation_level)
    for attempt in range(WAL_SWITCH_ATTEMPTS):
        try:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
            if mode != "wal":
                conn.execute("PRAGMA journal_mode=WAL")
            break
        except sqlite3.OperationalError as exc:
            busy = (exc.sqlite_errorcode & 0xFF) in (sqlite3.SQLITE_BUSY,
                                                     sqlite3.SQLITE_LOCKED)
            if not busy or attempt == WAL_SWITCH_ATTEMPTS - 1:
                conn.close()
                raise
            time.sleep(0.01 * (attempt + 1))
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn
