"""Job-orchestration service: queueing, parallel execution, caching, resume.

The service layer turns the library's single-run building blocks into an
operable system: :class:`ProtectionJob` is the durable unit of work,
:class:`JobRunner` fans jobs out over serial / thread / process
backends, :class:`EvaluationCache` persists fitness evaluations across
runs and processes (optionally LRU-bounded via ``max_entries``),
:class:`CheckpointManager` makes long GA runs interrupt-safe,
:class:`JobStore` keeps job lifecycle state on disk for the ``repro
submit`` / ``status`` / ``resume`` CLI, and :class:`Worker` claims
queued jobs for detached execution (``repro submit --detach`` +
``repro worker``) — safe with any number of workers per state
directory.  :class:`JobStoreServer` serves a store over HTTP (``repro
serve``) and :class:`RemoteJobStore` is the client with the identical
:data:`STORE_PROTOCOL` surface (``--store-url``), extending the same
claim/heartbeat contract across machines.  :class:`SqliteJobStore`
keeps the whole store in one transactional SQLite database for heavy
fleets; :func:`store_from_spec` opens any backend from its spec string
(``file:DIR`` / ``sqlite:PATH`` / ``http://...``) and
:func:`migrate_store` moves state between them.
:func:`plan_island_jobs` splits one seeded search into an island-model
group — member jobs exchanging elite migrants through the store on a
fixed cadence plus a merge job consolidating the Pareto front
(``repro submit --islands P``) — that any fleet of the above drives
deterministically.
"""

from repro.service.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
)
from repro.service.cache import EvaluationCache, score_from_dict, score_to_dict
from repro.service.checkpoint import (
    CheckpointManager,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.service.islands import (
    TOPOLOGIES,
    IslandParked,
    drive_group,
    front_dominates_or_matches,
    island_group_id,
    island_topology,
    member_job_ids,
    plan_island_jobs,
)
from repro.service.job import JobResult, ProtectionJob
from repro.service.netstore import PROTOCOL_VERSION, JobStoreServer, RemoteJobStore
from repro.service.runner import JobOutcome, JobRunner
from repro.service.sqlstore import SqliteJobStore
from repro.service.store import (
    MIGRANTS_BLOB_SUFFIX,
    STORE_PROTOCOL,
    JobRecord,
    JobStore,
    default_state_dir,
    migrants_blob_id,
    migrate_store,
    store_from_spec,
)
from repro.service.worker import ClaimHeartbeat, Worker

__all__ = [
    "ProtectionJob",
    "JobResult",
    "JobRunner",
    "JobOutcome",
    "EvaluationCache",
    "score_to_dict",
    "score_from_dict",
    "CheckpointManager",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "JobStore",
    "JobRecord",
    "SqliteJobStore",
    "JobStoreServer",
    "RemoteJobStore",
    "store_from_spec",
    "migrate_store",
    "PROTOCOL_VERSION",
    "STORE_PROTOCOL",
    "Worker",
    "ClaimHeartbeat",
    "IslandParked",
    "MIGRANTS_BLOB_SUFFIX",
    "TOPOLOGIES",
    "plan_island_jobs",
    "island_topology",
    "island_group_id",
    "member_job_ids",
    "migrants_blob_id",
    "drive_group",
    "front_dominates_or_matches",
    "default_state_dir",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "create_backend",
]
