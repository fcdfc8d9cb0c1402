"""Island-model GA: the whole fleet accelerating a *single* search.

One serial GA loop per job means ten workers finish ten searches in the
time of one — but never make *one* search faster.  This module splits a
search into ``P`` cooperating :class:`~repro.service.job.ProtectionJob`
members (plus one final Pareto-merge job), each evolving its own
population on its own RNG stream and exchanging its top-``k`` elites
every ``M`` generations through the job store.

**Determinism is the design center.**  Three rules make a seeded island
run bit-identical regardless of worker count, claim interleaving, or
which island happens to run ahead:

1. *Disjoint streams*: island ``i`` draws from
   ``np.random.SeedSequence(seed).spawn(P)[i]`` — the spawn tree
   guarantees independence and reproducibility.
2. *Generation-stamped buffers*: migrants are published under their
   exchange round (``generation // M``), and an island entering round
   ``r`` consumes exactly the round-``r`` payloads of its topology
   neighbours — never "whatever is newest".
3. *Pure exchange*: publishing and injecting draw nothing from the run
   RNG; injection is a deterministic replacement plan (worst slots
   first, improvements only, senders in index order).

An island whose inbound migrants have not been published yet does not
spin inside its claim: it *parks* — persists a full engine checkpoint
(plus island state) on the store's checkpoint-blob path, requeues its
own record behind the rest of the queue, and releases the claim.  A
single worker therefore round-robins all ``P`` islands segment by
segment with no deadlock; a fleet runs them genuinely in parallel and
parks only when it outruns a peer.  Whether an injection happened live
or through a park/resume cycle is unobservable in the results: the
checkpoint is captured *before* injection, and re-injecting into the
restored checkpoint replays the identical plan.

If a peer dies (its record ``failed``) or stays silent past the wait
timeout, the island **degrades to solo continuation** — sticky, counted
in ``repro_island_degraded_total``, announced by an ``island_degraded``
event — rather than blocking the fleet forever.  It keeps *publishing*
so downstream islands are unaffected.

Migrant payloads ride the checkpoint-blob path as ``<job_id>.migrants``
(:func:`~repro.service.store.migrants_blob_id`), stored next to the
member's record and carried by ``repro migrate``.  **The payload format
and exchange cadence are a stability contract** (see ROADMAP):
``{"version", "group", "island", "topology", "rounds": {"<r>":
{"generation", "migrants": [...]}}}`` with individuals encoded exactly
like engine checkpoints.

Islands are pure clients of :data:`~repro.service.store.STORE_PROTOCOL`
— no store grew a new method for them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import weakref
from dataclasses import replace

import numpy as np

from repro.core.engine import EngineCheckpoint, EvolutionaryProtector
from repro.core.individual import Individual
from repro.core.pareto import non_dominated_sort
from repro.datasets.registry import load_dataset, protected_attributes
from repro.exceptions import ServiceError
from repro.experiments.population_builder import build_initial_population
from repro.experiments.runner import drop_best
from repro.metrics.evaluation import ProtectionEvaluator
from repro.metrics.score import score_function_by_name
from repro.obs import emit_event, get_registry, timeline_from_history, trace
from repro.service.cache import EvaluationCache
from repro.service.checkpoint import (
    FORMAT_VERSION,
    CodesMemo,
    _individual_from_dict,
    _individual_to_dict,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.service.job import JobResult, ProtectionJob
from repro.service.store import (
    COMPLETED,
    FAILED,
    QUEUED,
    JobRecord,
    migrants_blob_id,
    store_from_spec,
)

#: Wire version of the migrant payload (a stability contract — bump it
#: like a store wire-protocol change, never silently).
MIGRANTS_BLOB_VERSION = 1

#: The fixed, seeded migration topologies (inbound-neighbour maps).
TOPOLOGIES = ("ring", "star", "full")

#: Seconds an island waits (across park/resume cycles) for a silent
#: peer's migrants before degrading to solo continuation.
DEFAULT_WAIT_TIMEOUT = 600.0

#: Seconds an island polls in-claim for inbound migrants before
#: parking.  Small: with one worker the peers *cannot* publish while we
#: hold the only execution slot, so long grace is pure waste.
DEFAULT_GRACE = 0.25


def _wait_timeout() -> float:
    raw = os.environ.get("REPRO_ISLAND_WAIT_TIMEOUT", "")
    try:
        return float(raw) if raw else DEFAULT_WAIT_TIMEOUT
    except ValueError:
        return DEFAULT_WAIT_TIMEOUT


def _grace_seconds() -> float:
    raw = os.environ.get("REPRO_ISLAND_GRACE", "")
    try:
        return float(raw) if raw else DEFAULT_GRACE
    except ValueError:
        return DEFAULT_GRACE


class IslandParked(ServiceError):
    """An island job yielded its claim at an unfulfilled exchange round.

    Not a failure: the job's full engine state is durably checkpointed
    and its record is requeued (behind the rest of the queue, so
    sibling islands get the worker first).  The next claim resumes the
    segment — :meth:`to_dict` is what rides back through the settled
    runner outcome so the worker can requeue instead of marking failed.
    """

    def __init__(self, job_id: str, round_index: int, generation: int,
                 waiting_on: tuple[str, ...] = ()) -> None:
        self.job_id = job_id
        self.round_index = int(round_index)
        self.generation = int(generation)
        self.waiting_on = tuple(waiting_on)
        peers = ", ".join(self.waiting_on) or "peers"
        super().__init__(
            f"island job {job_id!r} parked at exchange round "
            f"{self.round_index} (generation {self.generation}) "
            f"waiting on {peers}"
        )

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "round": self.round_index,
            "generation": self.generation,
            "waiting_on": list(self.waiting_on),
        }


# -- identity, topology, planning -------------------------------------------


def island_group_id(job: ProtectionJob) -> str:
    """Stable group identity shared by every member of one island search.

    Every identity field except ``island_index`` participates, so all
    ``P`` members plus the merge job hash to one group and nothing else
    does.
    """
    payload = {
        key: value
        for key, value in job.to_dict().items()
        if key != "island_index"
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "ig-" + hashlib.sha256(blob).hexdigest()[:12]


def island_topology(name: str, islands: int) -> dict[int, tuple[int, ...]]:
    """The fixed inbound-neighbour map ``island -> senders`` for ``name``.

    - ``ring``: island ``i`` receives from ``(i - 1) % P``;
    - ``star``: island 0 (the hub) receives from every spoke, each spoke
      receives from the hub;
    - ``full``: everyone receives from everyone else.

    Every island *publishes* every round regardless of topology, so an
    unfulfilled inbound edge always resolves once the sender reaches
    the round — there is no topology with a starvation cycle.
    """
    if islands < 2:
        raise ServiceError(f"a topology needs islands >= 2, got {islands}")
    if name == "ring":
        return {i: ((i - 1) % islands,) for i in range(islands)}
    if name == "star":
        inbound: dict[int, tuple[int, ...]] = {0: tuple(range(1, islands))}
        for i in range(1, islands):
            inbound[i] = (0,)
        return inbound
    if name == "full":
        return {
            i: tuple(j for j in range(islands) if j != i)
            for i in range(islands)
        }
    raise ServiceError(
        f"unknown topology {name!r}; choose from {', '.join(TOPOLOGIES)}"
    )


def plan_island_jobs(
    base: ProtectionJob,
    islands: int,
    migrate_every: int = 25,
    migrants: int = 2,
    topology: str = "ring",
) -> list[ProtectionJob]:
    """The job group for one island search: ``P`` members + the merge.

    ``islands == 1`` returns ``[base]`` untouched — the serial engine,
    bit-identical to a plain submission (the equivalence the regression
    tests pin).  Member ``i`` carries ``island_index=i``; the merge job
    carries ``island_index == islands`` and consolidates the finished
    members into one Pareto front.
    """
    if islands < 1:
        raise ServiceError(f"islands must be >= 1, got {islands}")
    if islands == 1:
        return [base]
    if migrate_every < 1:
        raise ServiceError(f"migrate_every must be >= 1, got {migrate_every}")
    if migrants < 1:
        raise ServiceError(f"migrants must be >= 1, got {migrants}")
    island_topology(topology, islands)  # validates the name
    group = [
        replace(
            base,
            islands=islands,
            island_index=i,
            migrate_every=int(migrate_every),
            migrants=int(migrants),
            topology=topology,
        )
        for i in range(islands + 1)  # members 0..P-1, merge at P
    ]
    return group


def member_job_ids(job: ProtectionJob) -> list[str]:
    """The job ids of the ``P`` member islands of ``job``'s group."""
    return [replace(job, island_index=i).job_id for i in range(job.islands)]


# -- live-store registry ------------------------------------------------------

# Island executors need the *job store* (records + checkpoint blobs),
# which plain run payloads never carried.  In-process backends resolve
# the exact live store object through this weak registry, so a store
# built in-process (say, a test's store over tmp dirs) is shared rather
# than reopened from its spec.  Process backends and
# any registry miss fall back to reopening from the spec.
_LIVE_STORES: "weakref.WeakValueDictionary[str, object]" = (
    weakref.WeakValueDictionary()
)
_STORE_SEQ = iter(range(1, 1 << 62))


def register_store(store: object) -> str:
    """Register a live store; returns the token for ``resolve_store``."""
    token = f"st-{next(_STORE_SEQ)}-{id(store):x}"
    _LIVE_STORES[token] = store
    return token


def store_spec_of(store: object) -> tuple[str, str]:
    """Best-effort ``(spec, token)`` that reopens ``store`` elsewhere."""
    spec = getattr(store, "spec", "")
    if spec:
        return str(spec), ""
    base = getattr(store, "base_url", "")
    if base:
        return str(base), str(getattr(store, "token", "") or "")
    return "", ""


def resolve_store(payload: dict):
    """The job store an island payload points at.

    Prefers the live in-process object (``store_ref``), falls back to
    reopening from ``store_spec``.  Raising here rather than returning
    ``None`` turns a mis-wired submission into a clear failed job.
    """
    ref = str(payload.get("store_ref") or "")
    if ref:
        store = _LIVE_STORES.get(ref)
        if store is not None:
            return store
    spec = str(payload.get("store_spec") or "")
    if spec:
        return store_from_spec(spec, token=str(payload.get("store_token") or ""))
    raise ServiceError(
        "island job payload carries no usable job-store reference "
        "(store_ref dead and store_spec empty) — island jobs must run "
        "through a store-connected worker or runner"
    )


# -- migrant buffers ----------------------------------------------------------


def select_migrants(individuals: list[Individual], k: int) -> list[Individual]:
    """The ``k`` elites (lowest score first, stable on ties)."""
    if k <= 0 or not individuals:
        return []
    scores = np.array([float(ind.score) for ind in individuals])
    order = np.argsort(scores, kind="stable")
    return [individuals[int(i)] for i in order[: min(k, len(individuals))]]


def publish_migrants(
    store,
    job: ProtectionJob,
    round_index: int,
    generation: int,
    individuals: list[Individual],
) -> bool:
    """Merge this island's round-``round_index`` elites into its buffer.

    Read-modify-write like trace blobs — but an already-published round
    is kept, not overwritten: a re-claimed island recomputes the exact
    same elites (determinism), so first-write-wins is both safe and
    idempotent.  Returns whether this call added the round.
    """
    blob_id = migrants_blob_id(job.job_id)
    group = island_group_id(job)
    payload = store.get_checkpoint(blob_id)
    if (
        not isinstance(payload, dict)
        or payload.get("version") != MIGRANTS_BLOB_VERSION
        or payload.get("group") != group
    ):
        payload = {
            "version": MIGRANTS_BLOB_VERSION,
            "group": group,
            "island": job.island_index,
            "topology": job.topology,
            "rounds": {},
        }
    rounds = payload.setdefault("rounds", {})
    key = str(int(round_index))
    if key in rounds:
        return False
    elites = select_migrants(individuals, job.migrants)
    rounds[key] = {
        "generation": int(generation),
        "migrants": [_individual_to_dict(ind) for ind in elites],
    }
    store.put_checkpoint(blob_id, payload)
    return True


def read_round_migrants(
    store,
    sender_job_id: str,
    group: str,
    round_index: int,
    reference,
) -> list[Individual] | None:
    """The sender's round-``round_index`` migrants, or ``None`` if unpublished."""
    payload = store.get_checkpoint(migrants_blob_id(sender_job_id))
    if (
        not isinstance(payload, dict)
        or payload.get("version") != MIGRANTS_BLOB_VERSION
        or payload.get("group") != group
    ):
        return None
    entry = (payload.get("rounds") or {}).get(str(int(round_index)))
    if not isinstance(entry, dict):
        return None
    source = f"migrant blob {migrants_blob_id(sender_job_id)}"
    return [
        _individual_from_dict(item, reference, source)
        for item in entry.get("migrants", [])
    ]


def plan_injection(
    individuals: list[Individual], migrants: list[Individual]
) -> list[tuple[int, Individual]]:
    """Deterministic elite injection: ``(slot, replacement)`` pairs.

    Migrants (in their given order: senders ascending, elite rank
    ascending) each target the worst not-yet-replaced slot and land
    only when strictly better than it — slots are ordered worst-first,
    so a migrant the worst remaining slot beats would lose everywhere.
    Pure function of its inputs; never touches an RNG.
    """
    if not migrants:
        return []
    scores = np.array([float(ind.score) for ind in individuals])
    worst_first = [int(i) for i in np.argsort(scores, kind="stable")[::-1]]
    taken: set[int] = set()
    plan: list[tuple[int, Individual]] = []
    for migrant in migrants:
        slot = next((s for s in worst_first if s not in taken), None)
        if slot is None:
            break
        if float(migrant.score) < float(scores[slot]):
            plan.append((slot, replace(migrant, origin="migrant")))
            taken.add(slot)
    return plan


# -- the member executor ------------------------------------------------------


class _ParkSignal(Exception):
    """Internal: unwinds the engine loop out to the executor for a park."""

    def __init__(self, round_index: int, generation: int,
                 waiting_on: tuple[str, ...]) -> None:
        self.round_index = round_index
        self.generation = generation
        self.waiting_on = waiting_on
        super().__init__(f"park at round {round_index}")


def _state_payload(state: dict) -> dict:
    return {
        "pending_round": int(state.get("pending_round") or 0),
        "wait_since": float(state.get("wait_since") or 0.0),
        "degraded": bool(state.get("degraded")),
        "rounds": int(state.get("rounds") or 0),
        "injected": int(state.get("injected") or 0),
    }


def _fresh_state() -> dict:
    return {"pending_round": 0, "wait_since": 0.0, "degraded": False,
            "rounds": 0, "injected": 0}


def _gather_inbound(
    store, job: ProtectionJob, senders: list[tuple[int, str]],
    group: str, round_index: int, reference,
) -> tuple[list[Individual], list[str]]:
    """(migrants in sender order, sender job ids still unpublished)."""
    inbound: list[Individual] = []
    missing: list[str] = []
    for _, sender_id in senders:
        migrants = read_round_migrants(store, sender_id, group, round_index,
                                       reference)
        if migrants is None:
            missing.append(sender_id)
        else:
            inbound.extend(migrants)
    return inbound, missing


def _failed_senders(store, sender_ids: list[str]) -> list[str]:
    failed = []
    for sender_id in sender_ids:
        record = store.get(sender_id, missing_ok=True)
        if record is not None and record.status == FAILED:
            failed.append(sender_id)
    return failed


def _persist_island_checkpoint(
    store, job: ProtectionJob, checkpoint: EngineCheckpoint, state: dict,
    memo: CodesMemo,
) -> None:
    # The store serialises the payload, so the span has no ``bytes``.
    with trace.span("repro.checkpoint.save") as span:
        payload = checkpoint_to_dict(checkpoint, job.fingerprint(), memo)
        payload["island_state"] = _state_payload(state)
        store.put_checkpoint(job.job_id, payload)
        span.set(encoded=memo.encoded, reused=memo.reused)


def _degrade(job: ProtectionJob, state: dict, reason: str,
             waiting_on: list[str], round_index: int) -> None:
    """Sticky solo continuation: stop consuming, keep publishing."""
    state["degraded"] = True
    state["wait_since"] = 0.0
    state["pending_round"] = 0
    registry = get_registry()
    if registry.enabled:
        registry.inc("repro_island_degraded_total",
                     island=str(job.island_index))
        emit_event("island_degraded", job_id=job.job_id,
                   island=job.island_index, round=round_index,
                   reason=reason, waiting_on=list(waiting_on))


def _complete_exchange(
    job: ProtectionJob,
    state: dict,
    round_index: int,
    received: list[Individual],
    individuals: list[Individual],
    apply_replacement,
    waited_seconds: float,
) -> int:
    """Inject ``received`` via ``apply_replacement(slot, individual)``."""
    plan = plan_injection(individuals, received)
    for slot, individual in plan:
        apply_replacement(slot, individual)
    state["rounds"] += 1
    state["injected"] += len(plan)
    state["pending_round"] = 0
    state["wait_since"] = 0.0
    registry = get_registry()
    if registry.enabled:
        registry.inc("repro_island_migrations_total", len(plan),
                     island=str(job.island_index))
        registry.observe("repro_island_migrant_wait_seconds",
                         max(0.0, waited_seconds))
        emit_event("island_exchange", job_id=job.job_id,
                   island=job.island_index, round=round_index,
                   received=len(received), injected=len(plan),
                   wait_seconds=round(max(0.0, waited_seconds), 3))
    return len(plan)


def _execute_member_job(job: ProtectionJob, payload: dict) -> JobResult:
    store = resolve_store(payload)
    original = load_dataset(job.dataset)
    attributes = protected_attributes(job.dataset)
    group = island_group_id(job)
    fingerprint = job.fingerprint()
    inbound_map = island_topology(job.topology, job.islands)
    senders = [
        (s, replace(job, island_index=s).job_id)
        for s in sorted(inbound_map[job.island_index])
    ]
    sender_ids = [sender_id for _, sender_id in senders]

    cache_path = payload.get("cache_path") or ""
    cache = (
        EvaluationCache(cache_path,
                        max_entries=payload.get("cache_max_entries") or None)
        if cache_path
        else None
    )
    evaluator = ProtectionEvaluator(
        original,
        attributes,
        score_function=score_function_by_name(job.score),
        persistent_cache=cache,
    )
    # Rule 1: disjoint, reproducible per-island streams off the run seed.
    stream = np.random.SeedSequence(job.seed).spawn(job.islands)[job.island_index]
    engine = EvolutionaryProtector(
        evaluator,
        mutation_probability=job.mutation_probability,
        leader_fraction=job.leader_fraction,
        selection_strategy=job.selection_strategy,
        seed=np.random.default_rng(stream),
    )

    state = _fresh_state()
    grace = _grace_seconds()
    timeout = _wait_timeout()
    memo = CodesMemo()

    def exchange(population, generation, capture) -> None:
        # The engine fires on every migrate_every boundary; the final
        # generation has nothing downstream to inject into, so skip it.
        if generation >= job.generations:
            return
        round_index = generation // job.migrate_every
        with trace.span("repro.island.exchange", island=job.island_index,
                        round=round_index, generation=generation):
            members = list(population)
            publish_migrants(store, job, round_index, generation, members)
            if state["degraded"]:
                _persist_island_checkpoint(store, job, capture(), state, memo)
                return
            wait_started = time.monotonic()
            while True:
                received, missing = _gather_inbound(
                    store, job, senders, group, round_index, original)
                if not missing:
                    break
                if time.monotonic() - wait_started >= grace:
                    break
                time.sleep(min(0.05, grace))
            if missing:
                failed = _failed_senders(store, missing)
                if failed:
                    _degrade(job, state, "sender-failed", failed, round_index)
                    _persist_island_checkpoint(store, job, capture(), state, memo)
                    return
                wait_since = float(state.get("wait_since") or 0.0)
                if wait_since and time.time() - wait_since > timeout:
                    _degrade(job, state, "timeout", missing, round_index)
                    _persist_island_checkpoint(store, job, capture(), state, memo)
                    return
                if not wait_since:
                    state["wait_since"] = time.time()
                state["pending_round"] = round_index
                # Pre-injection checkpoint: resume re-runs this very
                # exchange against the same stamped buffers, so the
                # parked path replays the live path bit for bit.
                _persist_island_checkpoint(store, job, capture(), state, memo)
                raise _ParkSignal(round_index, generation, tuple(missing))
            wait_since = float(state.get("wait_since") or 0.0)
            waited = (time.time() - wait_since) if wait_since else (
                time.monotonic() - wait_started)
            _complete_exchange(job, state, round_index, received,
                               list(population), population.replace, waited)
            _persist_island_checkpoint(store, job, capture(), state, memo)

    start = time.perf_counter()
    try:
        blob = store.get_checkpoint(job.job_id)
        resumable = (
            isinstance(blob, dict)
            and blob.get("version") == FORMAT_VERSION
            and blob.get("fingerprint") == fingerprint
        )
        with trace.span("repro.run", dataset=job.dataset, seed=job.seed,
                        island=job.island_index, resume=resumable or None):
            if resumable:
                checkpoint = checkpoint_from_dict(
                    blob, original, expected_fingerprint=fingerprint,
                    source=f"checkpoint blob {job.job_id}")
                state.update(_state_payload(blob.get("island_state") or {}))
                pending = int(state.get("pending_round") or 0)
                if pending and not state["degraded"]:
                    checkpoint = _settle_pending_round(
                        store, job, state, checkpoint, senders, group,
                        original, grace, timeout, memo)
                outcome = engine.resume(
                    checkpoint,
                    stopping=job.generations,
                    migration_every=job.migrate_every,
                    on_migration=exchange,
                )
            else:
                protections = build_initial_population(
                    original, dataset_name=job.dataset,
                    seed=job.population_seed)
                individuals = engine.evaluate_initial(protections)
                kept, _ = drop_best(individuals, job.drop_best_fraction)
                outcome = engine.run(
                    kept,
                    stopping=job.generations,
                    migration_every=job.migrate_every,
                    on_migration=exchange,
                )
    except _ParkSignal as signal:
        raise IslandParked(job.job_id, signal.round_index, signal.generation,
                           signal.waiting_on) from None
    finally:
        if cache is not None:
            cache.close()

    best = outcome.best
    _, _, percent = outcome.history.improvement("mean")
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=len(outcome.history),
        best_score=float(best.score),
        best_information_loss=float(best.information_loss),
        best_disclosure_risk=float(best.disclosure_risk),
        final_scores=tuple(float(ind.score) for ind in outcome.population),
        mean_improvement_percent=float(percent),
        fresh_evaluations=evaluator.evaluations,
        memo_hits=evaluator.cache_hits,
        persistent_hits=evaluator.persistent_hits,
        wall_seconds=time.perf_counter() - start,
        extras={
            "evaluator_stats": evaluator.stats(),
            "timeline": timeline_from_history(outcome.history.records),
            "island": {
                "group": group,
                "role": "member",
                "index": job.island_index,
                "islands": job.islands,
                "topology": job.topology,
                "migrate_every": job.migrate_every,
                "migrants": job.migrants,
                "rounds": state["rounds"],
                "injected": state["injected"],
                "degraded": state["degraded"],
                # The final (IL, DR, score) cloud: what the merge job's
                # Pareto consolidation runs over.
                "population": [
                    [float(ind.information_loss),
                     float(ind.disclosure_risk),
                     float(ind.score)]
                    for ind in outcome.population
                ],
            },
        },
    )


def _settle_pending_round(
    store,
    job: ProtectionJob,
    state: dict,
    checkpoint: EngineCheckpoint,
    senders: list[tuple[int, str]],
    group: str,
    original,
    grace: float,
    timeout: float,
    memo: CodesMemo,
) -> EngineCheckpoint:
    """Finish the exchange a previous claim parked on, pre-resume.

    The checkpoint holds the pre-injection population at the exchange
    boundary.  If the round's inbound migrants are now published, the
    injection plan is recomputed (identical — pure function of stamped
    buffers) against the checkpoint and the run resumes as if it never
    parked.  Still unfulfilled: re-park, or degrade on failed/silent
    peers past the timeout.
    """
    round_index = int(state["pending_round"])
    generation = checkpoint.generation
    wait_started = time.monotonic()
    while True:
        received, missing = _gather_inbound(
            store, job, senders, group, round_index, original)
        if not missing:
            break
        if time.monotonic() - wait_started >= grace:
            break
        time.sleep(min(0.05, grace))
    if missing:
        failed = _failed_senders(store, missing)
        if failed:
            _degrade(job, state, "sender-failed", failed, round_index)
            _persist_island_checkpoint(store, job, checkpoint, state, memo)
            return checkpoint
        wait_since = float(state.get("wait_since") or 0.0)
        if wait_since and time.time() - wait_since > timeout:
            _degrade(job, state, "timeout", missing, round_index)
            _persist_island_checkpoint(store, job, checkpoint, state, memo)
            return checkpoint
        if not wait_since:
            state["wait_since"] = time.time()
            _persist_island_checkpoint(store, job, checkpoint, state, memo)
        raise _ParkSignal(round_index, generation, tuple(missing))
    individuals = list(checkpoint.individuals)
    wait_since = float(state.get("wait_since") or 0.0)
    waited = (time.time() - wait_since) if wait_since else (
        time.monotonic() - wait_started)

    def apply(slot: int, individual: Individual) -> None:
        individuals[slot] = individual

    _complete_exchange(job, state, round_index, received, list(individuals),
                       apply, waited)
    settled = EngineCheckpoint(
        generation=checkpoint.generation,
        initial=checkpoint.initial,
        individuals=individuals,
        records=checkpoint.records,
        rng_state=checkpoint.rng_state,
    )
    _persist_island_checkpoint(store, job, settled, state, memo)
    return settled


# -- the merge executor -------------------------------------------------------


def front_dominates_or_matches(
    candidate: list[tuple[float, float]],
    baseline: list[tuple[float, float]],
) -> bool:
    """Every baseline (IL, DR) point is matched or dominated by ``candidate``."""
    for il, dr in baseline:
        if not any(c_il <= il and c_dr <= dr for c_il, c_dr in candidate):
            return False
    return True


def _execute_merge_job(job: ProtectionJob, payload: dict) -> JobResult:
    store = resolve_store(payload)
    start = time.perf_counter()
    member_ids = member_job_ids(job)
    records: list[JobRecord] = []
    missing: list[str] = []
    failed: list[str] = []
    unfinished: list[str] = []
    for member_id in member_ids:
        record = store.get(member_id, missing_ok=True)
        if record is None:
            missing.append(member_id)
        elif record.status == FAILED:
            failed.append(record.job_id)
        elif record.status != COMPLETED or record.result is None:
            unfinished.append(record.job_id)
        else:
            records.append(record)
    if missing:
        raise ServiceError(
            f"island merge {job.job_id!r}: member jobs never submitted: "
            f"{missing} — submit the whole group (repro submit --islands)"
        )
    if failed:
        raise ServiceError(
            f"island merge {job.job_id!r}: member islands failed: {failed}"
        )
    if unfinished:
        # Not claimable work yet: park behind the members and try again
        # once more of them have finished ("generation" counts them, so
        # the worker's park signature still detects progress).
        raise IslandParked(job.job_id, 0, len(records), tuple(unfinished))

    results = [record.result for record in records]
    points: list[tuple[float, float]] = []
    degraded_members: list[int] = []
    for result in results:
        island = result.extras.get("island") or {}
        population = island.get("population") or []
        if population:
            points.extend(
                (float(entry[0]), float(entry[1])) for entry in population
            )
        else:
            points.append((float(result.best_information_loss),
                           float(result.best_disclosure_risk)))
        if island.get("degraded"):
            degraded_members.append(int(island.get("index", -1)))
    fronts = non_dominated_sort(np.array(points, dtype=np.float64))
    front = sorted({points[int(i)] for i in fronts[0]})

    best = min(results, key=lambda r: float(r.best_score))
    merged = JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=max(int(r.generations) for r in results),
        best_score=float(best.best_score),
        best_information_loss=float(best.best_information_loss),
        best_disclosure_risk=float(best.best_disclosure_risk),
        final_scores=tuple(float(r.best_score) for r in results),
        mean_improvement_percent=float(
            np.mean([float(r.mean_improvement_percent) for r in results])
        ),
        fresh_evaluations=sum(int(r.fresh_evaluations) for r in results),
        memo_hits=sum(int(r.memo_hits) for r in results),
        persistent_hits=sum(int(r.persistent_hits) for r in results),
        wall_seconds=time.perf_counter() - start,
        extras={
            "island": {
                "group": island_group_id(job),
                "role": "merge",
                "islands": job.islands,
                "topology": job.topology,
                "migrate_every": job.migrate_every,
                "migrants": job.migrants,
                "members": member_ids,
                "member_best": [float(r.best_score) for r in results],
                "degraded_members": degraded_members,
                "front": [[il, dr] for il, dr in front],
            },
        },
    )
    registry = get_registry()
    if registry.enabled:
        emit_event("island_merge", job_id=job.job_id,
                   group=island_group_id(job), members=len(results),
                   front_size=len(front),
                   best_score=float(best.best_score))
    return merged


# -- dispatch + park plumbing -------------------------------------------------


def execute_island_job(payload: dict) -> JobResult:
    """Run one island-group job (member or merge) from a runner payload.

    The island counterpart of the runner's ``_execute_job``: owns its
    own trace scope (spans ride back in ``extras["trace_spans"]``, or
    as stray spans when the job parks or fails) and raises
    :class:`IslandParked` for the yield path.
    """
    job = ProtectionJob.from_dict(payload["job"])
    if job.islands < 2:
        raise ServiceError(
            f"execute_island_job needs islands >= 2, got {job.islands}"
        )
    if not 0 <= job.island_index <= job.islands:
        raise ServiceError(
            f"island_index must be in [0, {job.islands}], "
            f"got {job.island_index}"
        )
    scope = None
    trace_ctx = payload.get("trace")
    if isinstance(trace_ctx, dict) and trace_ctx.get("id"):
        scope = trace.activate(str(trace_ctx["id"]),
                               str(trace_ctx.get("root") or ""))
    try:
        if job.island_index == job.islands:
            result = _execute_merge_job(job, payload)
        else:
            result = _execute_member_job(job, payload)
    except BaseException:
        if scope is not None:
            trace.deactivate(scope)
        raise
    if scope is not None:
        result.extras["trace_spans"] = trace.deactivate(scope)
    return result


def park_record(store, record: JobRecord, parked: dict) -> None:
    """Requeue a parked island record behind the rest of the queue.

    ``store.requeue`` re-reads disk and would discard the bookkeeping
    below, so the held record is mutated and saved directly — legal
    because the caller still owns the claim (released right after, in
    the worker's ``finally``).  Bumping ``submitted_at`` sends the
    record to the back of the oldest-first queue, so a lone worker
    round-robins the group's islands instead of re-claiming this one.
    """
    record.status = QUEUED
    record.started_at = None
    record.finished_at = None
    record.result = None
    record.error = ""
    record.submitted_at = time.time()
    record.extras["island_parked"] = {
        "round": int(parked.get("round") or 0),
        "generation": int(parked.get("generation") or 0),
        "waiting_on": list(parked.get("waiting_on") or ()),
        "at": record.submitted_at,
    }
    store.save(record)


def parked_signature(parked: dict) -> tuple[int, int]:
    """Progress key of a park: unchanged signature == no forward motion."""
    return (int(parked.get("round") or 0), int(parked.get("generation") or 0))


def drive_group(store, worker, job_ids: list[str],
                poll_seconds: float = 0.2) -> list[JobRecord]:
    """Run an island group to completion with an in-process worker.

    The inline (non-detached) ``repro submit --islands`` path: claim and
    run each group record in turn, treating parks as scheduling — a
    parked island goes back in the queue and its peers get the worker.
    Cooperates with external workers: records claimed or running
    elsewhere are simply awaited.  Sleeps only on full passes with no
    progress (every island parked at an unchanged exchange boundary and
    nothing finished), where the peers' publishes must arrive from
    outside this process.
    """
    signatures: dict[str, tuple[int, int]] = {}
    pending = set(job_ids)
    while pending:
        progress = False
        for job_id in job_ids:
            if job_id not in pending:
                continue
            record = store.get(job_id, missing_ok=True)
            if record is None:
                raise ServiceError(f"island group job {job_id!r} disappeared")
            if record.status in (COMPLETED, FAILED):
                pending.discard(job_id)
                progress = True
                continue
            if record.status != QUEUED:
                continue  # running under another worker; await it
            outcome = worker.process(record)
            if outcome is None:
                continue  # lost the claim race to an external worker
            if outcome.parked is None:
                pending.discard(job_id)
                progress = True
            else:
                signature = parked_signature(outcome.parked)
                if signatures.get(job_id) != signature:
                    progress = True
                signatures[job_id] = signature
        if pending and not progress:
            store.recover_stale_claims(worker.stale_after)
            time.sleep(poll_seconds)
    return [store.get(job_id) for job_id in job_ids]
