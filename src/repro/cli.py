"""Command-line interface.

Everything the library does is reachable from the shell::

    python -m repro datasets
    python -m repro generate --dataset adult --output adult.csv
    python -m repro protect --dataset adult --method pram --param theta=0.3 \
        --seed 7 --output protected.csv
    python -m repro evaluate --dataset adult --masked protected.csv --score max
    python -m repro evolve --dataset flare --score max --generations 300 \
        --seed 42 --output best.csv
    python -m repro experiment --id e2 --dataset flare --generations 300

All commands are deterministic given ``--seed``.  File formats are the
CSV dialect of :mod:`repro.data.io` (header row, labels validated
against the dataset's schema).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence

from repro.data.io import read_csv, write_csv
from repro.datasets.registry import PAPER_SPECS, load_dataset, protected_attributes
from repro.exceptions import ReproError
from repro.utils.tables import format_table


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    """Parse ``key=value`` method parameters, coercing numerics."""
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"bad --param {pair!r}; expected key=value")
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        params[key] = value
    return params


def _resolve_attributes(args: argparse.Namespace) -> tuple[str, ...]:
    if args.attributes:
        return tuple(a.strip() for a in args.attributes.split(",") if a.strip())
    return protected_attributes(args.dataset)


# -- subcommand implementations ------------------------------------------


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in PAPER_SPECS.items():
        rows.append(
            [
                name,
                spec.n_records,
                len(spec.attributes),
                ", ".join(spec.protected_attributes),
            ]
        )
    print(format_table(["dataset", "records", "attributes", "protected"], rows,
                       title="paper datasets (synthetic reconstructions)"))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    write_csv(dataset, args.output)
    print(f"wrote {dataset.n_records} x {dataset.n_attributes} file: {args.output}")
    return 0


def cmd_protect(args: argparse.Namespace) -> int:
    from repro.methods.base import registry

    original = load_dataset(args.dataset)
    attributes = _resolve_attributes(args)
    method = registry.create(args.method, **_parse_params(args.param))
    masked = method.protect(original, attributes, seed=args.seed)
    write_csv(masked, args.output)
    print(f"applied {method.describe()} to {', '.join(attributes)}")
    print(f"cells changed: {original.cells_changed(masked)}")
    print(f"wrote: {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.metrics.evaluation import ProtectionEvaluator
    from repro.metrics.score import score_function_by_name

    original = load_dataset(args.dataset)
    attributes = _resolve_attributes(args)
    masked = read_csv(args.masked, original.schema)
    evaluator = ProtectionEvaluator(
        original, attributes, score_function=score_function_by_name(args.score)
    )
    score = evaluator.evaluate(masked)
    rows = [["information loss", score.information_loss],
            ["disclosure risk", score.disclosure_risk],
            [f"score ({args.score})", score.score]]
    print(format_table(["measure", "value"], rows, title=f"evaluation of {args.masked}"))
    component_rows = [[name, value] for name, value in score.il_components.items()]
    component_rows += [[name, value] for name, value in score.dr_components.items()]
    print()
    print(format_table(["component", "value"], component_rows))
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    from repro.experiments.figures import dispersion_data
    from repro.experiments.reporting import render_dispersion, render_improvements, render_timing
    from repro.experiments.runner import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        dataset=args.dataset,
        score=args.score,
        generations=args.generations,
        seed=args.seed,
        drop_best_fraction=args.drop_best,
    )
    outcome = run_experiment(config)
    print(render_improvements(outcome.history, f"{args.dataset} / {args.score} score"))
    print()
    print(render_dispersion(dispersion_data(outcome.result),
                            "initial (o) vs final (x) population"))
    print()
    print(render_timing(outcome.history, "per-generation timing"))
    if args.output:
        best = outcome.result.best
        write_csv(best.dataset, args.output)
        print(f"\nwrote best protection ({best.evaluation}): {args.output}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    from repro.core.pareto import ParetoEvolutionaryProtector
    from repro.experiments.population_builder import build_initial_population
    from repro.metrics.evaluation import ProtectionEvaluator

    original = load_dataset(args.dataset)
    attributes = _resolve_attributes(args)
    evaluator = ProtectionEvaluator(original, attributes)
    engine = ParetoEvolutionaryProtector(evaluator, seed=args.seed)
    protections = build_initial_population(original, dataset_name=args.dataset, seed=0)
    result = engine.run(protections, generations=args.generations)
    rows = [[il, dr, max(il, dr)] for il, dr in result.front_objectives()]
    print(format_table(["IL", "DR", "max(IL,DR)"], rows,
                       title=f"Pareto front after {args.generations} generations "
                             f"({len(result.front)} of {len(result.population)} protections)"))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_experiment
    from repro.experiments.runner import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        dataset=args.dataset,
        score=args.score,
        generations=args.generations,
        seed=args.seed,
        drop_best_fraction=args.drop_best,
    )
    outcome = run_experiment(config)
    stem = f"{args.dataset}_{args.score}_g{args.generations}_s{args.seed}"
    paths = export_experiment(outcome.result, args.directory, stem)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        EXPERIMENT3_FRACTIONS,
        run_experiment1,
        run_experiment2,
        run_experiment3,
    )
    from repro.experiments.figures import dispersion_data
    from repro.experiments.reporting import render_dispersion, render_evolution, render_improvements

    if args.id == "e1":
        outcome = run_experiment1(args.dataset, generations=args.generations, seed=args.seed)
        label = f"E1 {args.dataset} (Eq. 1 mean score)"
    elif args.id == "e2":
        outcome = run_experiment2(args.dataset, generations=args.generations, seed=args.seed)
        label = f"E2 {args.dataset} (Eq. 2 max score)"
    else:
        fraction = args.drop_best if args.drop_best else min(EXPERIMENT3_FRACTIONS)
        outcome = run_experiment3(fraction, generations=args.generations, seed=args.seed)
        label = f"E3 flare without best {fraction:.0%}"
    print(render_dispersion(dispersion_data(outcome.result), f"{label}: dispersion"))
    print()
    print(render_evolution(outcome.history, f"{label}: score evolution"))
    print()
    print(render_improvements(outcome.history, f"{label}: improvements"))
    return 0


# -- service subcommands ----------------------------------------------------


# Claims held by inline submit/resume runs beat at this fixed cadence —
# comfortably inside any sane --stale-after, without knowing it.
_INLINE_HEARTBEAT_SECONDS = 15.0


def _store_token(args: argparse.Namespace) -> str:
    return getattr(args, "token", "") or os.environ.get("REPRO_TOKEN", "")


def _store_spec(args: argparse.Namespace) -> str:
    """The job-store spec this invocation selected (may be empty)."""
    return getattr(args, "store", "") or getattr(args, "store_url", "")


def _job_store(args: argparse.Namespace):
    from repro.obs import instrument_store
    from repro.service.store import store_from_spec

    store = store_from_spec(
        _store_spec(args),
        token=_store_token(args),
        state_dir=getattr(args, "state_dir", "") or None,
    )
    # Every CLI store goes through the timing proxy; it only records
    # when a service entry point has enabled telemetry.
    return instrument_store(store)


def _enable_telemetry(args: argparse.Namespace, command: str) -> None:
    """Opt this service entry point into telemetry.

    The registry is off for library users; the CLI's service commands
    are the boundary where recording becomes worthwhile.  ``--log-json``
    additionally streams structured JSONL events to stderr (leaving
    stdout to the human-facing tables), ``--log-json-file`` tees the
    same stream into a size-rotated JSONL file, and ``--trace-sample``
    turns on the span tracer at the given head-sampling rate.
    """
    import repro.obs as obs

    obs.enable()
    rate = float(getattr(args, "trace_sample", 0.0) or 0.0)
    if rate > 0.0:
        obs.enable_tracing(
            sample_rate=min(rate, 1.0),
            slow_op_seconds=float(
                getattr(args, "slow_op_seconds", 0.0)
                or obs.DEFAULT_SLOW_OP_SECONDS
            ),
        )
    streams: list = []
    if getattr(args, "log_json", False):
        streams.append(sys.stderr)
    log_file = getattr(args, "log_json_file", "")
    if log_file:
        max_mb = float(getattr(args, "log_json_max_mb", 64.0) or 64.0)
        streams.append(obs.RotatingFileStream(
            log_file, max_bytes=max(1, int(max_mb * 1024 * 1024))
        ))
    if streams:
        stream = streams[0] if len(streams) == 1 else obs.TeeStream(*streams)
        obs.configure_events(stream, command=command)


def _parse_seeds(args: argparse.Namespace) -> list[int]:
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ReproError(f"bad --seeds {args.seeds!r}; expected comma-separated ints")
        unique = list(dict.fromkeys(seeds))
        if len(unique) != len(seeds):
            dropped = len(seeds) - len(unique)
            print(f"note: dropped {dropped} duplicate seed(s) from --seeds; "
                  f"running {','.join(str(s) for s in unique)}")
        return unique
    return [args.seed]


def _evaluator_stats(record) -> dict:
    """The finished job's evaluator snapshot (empty for unfinished jobs)."""
    if record.result is None:
        return {}
    stats = record.result.extras.get("evaluator_stats")
    return stats if isinstance(stats, dict) else {}


def _result_row(record) -> list[object]:
    result = record.result
    stats = _evaluator_stats(record)
    return [
        record.job_id,
        record.job.dataset,
        record.job.score,
        record.job.generations,
        record.status,
        f"{result.best_score:.4f}" if result else "-",
        result.fresh_evaluations if result else "-",
        result.persistent_hits if result else "-",
        stats.get("batch_dedup", "-") if result else "-",
        f"{result.wall_seconds:.1f}s" if result else "-",
    ]


_STATUS_HEADER = ["job", "dataset", "score", "gens", "status", "best", "fresh",
                  "cached", "dedup", "wall"]


def _record_payload(record, claims: dict[str, dict]) -> dict:
    """One job's machine-readable status (the ``--json`` row).

    Built from the same structs the telemetry layer uses — the
    evaluator's :meth:`~repro.metrics.evaluation.ProtectionEvaluator.stats`
    snapshot and the timeline summary — so scripts read fields instead
    of scraping table columns.
    """
    from repro.obs import timeline_summary

    payload: dict[str, object] = {
        "job_id": record.job_id,
        "dataset": record.job.dataset,
        "score": record.job.score,
        "generations": record.job.generations,
        "seed": record.job.seed,
        "status": record.status,
        "submitted_at": record.submitted_at,
        "started_at": record.started_at,
        "finished_at": record.finished_at,
        "error": record.error,
    }
    trace_info = record.extras.get("trace")
    if isinstance(trace_info, dict) and trace_info.get("id"):
        # Logs, metrics and traces join on this one key.
        payload["trace_id"] = str(trace_info["id"])
    if record.job.islands >= 2:
        from repro.service.islands import island_group_id

        payload["island"] = {
            "group": island_group_id(record.job),
            "index": record.job.island_index,
            "islands": record.job.islands,
            "role": ("merge" if record.job.island_index >= record.job.islands
                     else "member"),
            "topology": record.job.topology,
            "migrate_every": record.job.migrate_every,
            "migrants": record.job.migrants,
        }
    claim = claims.get(record.job_id)
    if claim is not None:
        payload["claim"] = claim
    result = record.result
    if result is not None:
        payload["result"] = {
            "best_score": result.best_score,
            "best_information_loss": result.best_information_loss,
            "best_disclosure_risk": result.best_disclosure_risk,
            "mean_improvement_percent": result.mean_improvement_percent,
            "wall_seconds": result.wall_seconds,
            "evaluator_stats": _evaluator_stats(record),
        }
        timeline = result.extras.get("timeline")
        if isinstance(timeline, dict):
            payload["timeline"] = timeline_summary(timeline)
    return payload


def _island_cell(job) -> str:
    """The status table's island column: ``i/P``, ``merge``, or ``-``."""
    if job.islands < 2:
        return "-"
    if job.island_index >= job.islands:
        return "merge"
    return f"{job.island_index + 1}/{job.islands}"


def _print_merge_front(record) -> None:
    """Summarise a finished merge job's Pareto front, when there is one."""
    if record.result is None:
        return
    info = record.result.extras.get("island")
    if not isinstance(info, dict) or info.get("role") != "merge":
        return
    front = info.get("front") or []
    print(f"merged Pareto front: {len(front)} point(s) from "
          f"{len(info.get('members', ()))} island(s)")
    for point in front[:8]:
        il, dr = float(point[0]), float(point[1])
        print(f"  IL={il:.4f}  DR={dr:.4f}")
    if len(front) > 8:
        print(f"  ... and {len(front) - 8} more")
    degraded = info.get("degraded_members") or []
    if degraded:
        print(f"degraded (solo) islands: {', '.join(str(i) for i in degraded)}")


def _run_island_group(args: argparse.Namespace, store, jobs, group: str) -> int:
    """Inline execution for ``repro submit --islands`` (non-detached).

    Island jobs park at exchange boundaries, so the inline path runs an
    in-process :class:`Worker` through :func:`drive_group` — cooperative
    round-robin over the members plus the final merge — instead of the
    claim-then-run-to-completion block serial jobs use.
    """
    from repro.service.islands import drive_group
    from repro.service.worker import Worker

    worker = Worker(
        store,
        backend=args.backend,
        max_workers=args.workers,
        use_cache=not args.no_cache,
    )
    finals = drive_group(store, worker, [job.job_id for job in jobs])
    failures = 0
    for record in finals:
        if record.status == "failed":
            failures += 1
            print(f"{record.job_id} failed: {record.error}", file=sys.stderr)
    header = _STATUS_HEADER + ["island"]
    rows = [_result_row(record) + [_island_cell(record.job)]
            for record in finals]
    print(format_table(header, rows,
                       title=f"island group {group} via {args.backend} backend"))
    _print_merge_front(finals[-1])
    print(f"store: {_store_label(store)}" if _store_spec(args)
          else f"state dir: {store.root}")
    return 1 if failures else 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.job import ProtectionJob
    from repro.service.runner import JobRunner

    _enable_telemetry(args, "submit")
    store = _job_store(args)
    base = ProtectionJob(
        dataset=args.dataset,
        score=args.score,
        generations=args.generations,
        seed=args.seed,
        drop_best_fraction=args.drop_best,
    )
    islands = max(1, args.islands)
    if islands > 1:
        if args.seeds:
            raise ReproError(
                "--islands splits one seeded search across the fleet; "
                "seed replicates are a different axis — submit each seed "
                "as its own island group"
            )
        from repro.service.islands import island_group_id, plan_island_jobs

        jobs = plan_island_jobs(
            base,
            islands,
            migrate_every=args.migrate_every,
            migrants=args.migrants,
            topology=args.topology,
        )
        group = island_group_id(jobs[0])
    else:
        jobs = [base.with_seed(seed) for seed in _parse_seeds(args)]
        group = ""
    from repro.obs import trace

    # The cadence — and, under --trace-sample, the trace identity —
    # rides in the initial queued write so a worker that claims the
    # record the instant it lands already honours both.
    records = []
    for job in jobs:
        trace_info = trace.new_trace_info()
        if trace_info is None:
            records.append(store.submit(
                job, extras={"checkpoint_every": args.checkpoint_every}
            ))
            continue
        with trace.activated(trace_info["id"], trace_info["root"]) as scope:
            with trace.span("repro.submit", dataset=job.dataset, seed=job.seed):
                record = store.submit(job, extras={
                    "checkpoint_every": args.checkpoint_every,
                    "trace": trace_info,
                })
        records.append(record)
        stored = trace.trace_context_from_extras(record.extras)
        # Resubmission keeps the existing record (and its original
        # trace identity) — only flush our spans when ours landed.
        if (trace_info["sampled"] and stored is not None
                and stored["id"] == trace_info["id"]):
            trace.flush_spans(store, record.job_id, trace_info["id"],
                              scope.collected)
    for record in records:
        if record.status == "completed":
            print(f"{record.job_id}: already completed, skipping (resubmit idempotent)")
        elif record.status == "running":
            print(f"{record.job_id}: already running, skipping (a worker owns it)")
    pending = [r for r in records if r.status == "queued"]
    if args.detach:
        rows = [_result_row(store.get(record.job_id)) for record in records]
        title = (f"queued island group {group}: {islands} member(s) + merge "
                 "(detached)" if group
                 else f"queued {len(pending)} job(s) (detached)")
        print(format_table(_STATUS_HEADER, rows, title=title))
        print(f"store: {_store_label(store)}" if _store_spec(args)
              else f"state dir: {store.root}")
        if args.store:
            hint = f" --store {args.store}"
        elif args.store_url:
            hint = f" --store-url {args.store_url}" + (" --token <token>" if _store_token(args) else "")
        else:
            hint = f" --state-dir {store.root}" if args.state_dir else ""
        print(f"run them with: repro worker --once{hint}")
        if group:
            print(f"island jobs park at exchange rounds; any number of "
                  f"workers may drive the group (repro status --group {group})")
        return 0
    if group:
        return _run_island_group(args, store, jobs, group)
    from repro.service.worker import (
        ClaimHeartbeat,
        claim_queued,
        release_quietly,
        unique_owner,
    )

    failures = 0
    # Build the runner before claiming anything: a configuration error
    # must surface with zero claims held, not strand queued jobs.
    runner = JobRunner(
        backend=args.backend,
        max_workers=args.workers,
        cache_path=None if args.no_cache else str(store.cache_path),
        checkpoint_dir=str(store.checkpoints_dir),
        checkpoint_every=args.checkpoint_every,
    )
    # Claim before running so a concurrently polling `repro worker`
    # cannot pick up the same jobs, then re-read inside the claim: a
    # job a worker finished between our submit and our claim must not
    # be re-run or have its result clobbered.
    owner = unique_owner("submit")

    def report_skip(record, reason):
        if reason == "claimed":
            print(f"{record.job_id}: claimed by another worker, skipping")
        else:
            print(f"{record.job_id}: no longer queued, skipping")

    mine = claim_queued(store, pending, owner, on_skipped=report_skip)
    if mine:
        beat = ClaimHeartbeat(store, [r.job_id for r in mine], owner,
                              _INLINE_HEARTBEAT_SECONDS).start()
        settled: list = []
        try:
            for record in mine:
                store.mark_running(record)
            settled = runner.run_settled(
                [r.job for r in mine],
                traces=[trace.trace_context_from_extras(r.extras)
                        for r in mine],
            )
            for record, outcome in zip(mine, settled):
                if outcome.ok:
                    store.mark_completed(record, outcome.result)
                else:
                    failures += 1
                    store.mark_failed(record, outcome.error)
                    print(f"{record.job_id} failed: {outcome.error}", file=sys.stderr)
        finally:
            beat.stop()
            release_quietly(store, [r.job_id for r in mine], owner)
            outcomes = {o.job_id: o for o in settled}
            for record in mine:
                outcome = outcomes.get(record.job_id)
                try:
                    current = store.get(record.job_id)
                except ReproError:
                    current = record  # telemetry only, never mask the run
                trace.flush_job_trace(
                    store, current,
                    list(outcome.trace_spans) if outcome else [],
                )
    rows = [_result_row(store.get(record.job_id)) for record in records]
    print(format_table(_STATUS_HEADER, rows, title=f"submitted via {args.backend} backend"))
    print(f"store: {_store_label(store)}" if _store_spec(args)
          else f"state dir: {store.root}")
    return 1 if failures else 0


def _store_label(store) -> object:
    """How to name a store to the operator: URL, spec, or root."""
    base_url = getattr(store, "base_url", None)
    if base_url:
        return base_url
    spec = getattr(store, "spec", "")
    if spec.startswith("sqlite:"):
        return spec
    return store.root


def _claim_cells(claims: dict[str, dict], job_id: str) -> list[object]:
    """Owner and heartbeat-age columns for the status table.

    ``age_seconds`` is computed by the store against its own clock, so
    the column stays truthful when this monitor's clock disagrees with
    the server's.
    """
    info = claims.get(job_id)
    if info is None:
        return ["-", "-"]
    owner = info.get("owner") or "?"
    age = info.get("age_seconds")
    return [owner, f"{age:.0f}s ago" if age is not None else "?"]


def cmd_status(args: argparse.Namespace) -> int:
    store = _job_store(args)
    label = _store_label(store)
    header = _STATUS_HEADER + ["owner", "heartbeat"]
    claims = store.claims()
    if args.group:
        from repro.service.islands import island_group_id

        records = [r for r in store.records()
                   if r.job.islands >= 2 and island_group_id(r.job) == args.group]
        if not records:
            print(f"no jobs in island group {args.group} ({label})")
            return 1
        if args.json:
            payloads = [_record_payload(r, claims) for r in records]
            print(json.dumps(payloads, indent=2, sort_keys=True))
            return 0
        rows = [_result_row(r) + [_island_cell(r.job)]
                + _claim_cells(claims, r.job_id) for r in records]
        group_header = (_STATUS_HEADER + ["island", "owner", "heartbeat"])
        done = sum(1 for r in records if r.status == "completed")
        print(format_table(
            group_header, rows,
            title=f"island group {args.group}: {done}/{len(records)} finished",
        ))
        merge = [r for r in records if r.job.island_index >= r.job.islands]
        if merge:
            _print_merge_front(merge[0])
        return 0
    if args.job:
        record = store.get(args.job)
        if args.json:
            payload = _record_payload(record, claims)
            if record.result is not None:
                timeline = record.result.extras.get("timeline")
                if isinstance(timeline, dict):
                    # The full trace, not just the summary: --json on a
                    # single job is the scripting face of the timeline.
                    payload["timeline_trace"] = timeline
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        row = _result_row(record) + _claim_cells(claims, record.job_id)
        print(format_table(header, [row], title=record.job_id))
        if record.job.islands >= 2:
            from repro.service.islands import island_group_id

            role = _island_cell(record.job)
            print(f"island: {role} of group {island_group_id(record.job)} "
                  f"({record.job.topology}, every {record.job.migrate_every} "
                  f"gen(s), top-{record.job.migrants} migrants)")
            _print_merge_front(record)
        if record.error:
            print(f"error: {record.error}")
        stats = _evaluator_stats(record)
        if stats:
            print("evaluator: " + ", ".join(
                f"{key}={stats[key]}"
                for key in ("evaluations", "memo_hits", "persistent_hits",
                            "batch_dedup")
                if key in stats
            ))
        if record.result and record.result.checkpoint_path:
            print(f"checkpoint: {record.result.checkpoint_path}")
        _print_timeline(record)
        return 0
    records = store.records()
    if args.json:
        payloads = [_record_payload(r, claims) for r in records]
        print(json.dumps(payloads, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no jobs in {label}")
        return 0
    island_col = any(r.job.islands >= 2 for r in records)
    if island_col:
        header = _STATUS_HEADER + ["island", "owner", "heartbeat"]
        rows = [_result_row(r) + [_island_cell(r.job)]
                + _claim_cells(claims, r.job_id) for r in records]
    else:
        rows = [_result_row(r) + _claim_cells(claims, r.job_id) for r in records]
    print(format_table(header, rows, title=f"jobs in {label}"))
    return 0


def _print_timeline(record) -> None:
    """Render a finished job's generation-by-generation trace."""
    from repro.obs import TIMELINE_HEADER, timeline_rows, timeline_summary

    if record.result is None:
        return
    timeline = record.result.extras.get("timeline")
    if not isinstance(timeline, dict) or not timeline.get("generation"):
        return
    summary = timeline_summary(timeline)
    title = (f"run timeline: {summary['generations']} generation(s), "
             f"{summary['evaluations']} evaluation(s), "
             f"{summary['total_seconds']:.1f}s in the GA loop")
    if summary["stride"] > 1:
        title += f" (trace sampled every {summary['stride']} generations)"
    print()
    # Long runs collapse into bucketed ranges so the trace stays one
    # screenful; short runs print one row per generation.
    print(format_table(TIMELINE_HEADER, timeline_rows(timeline, max_rows=40),
                       title=title))


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.service.runner import JobRunner
    from repro.service.worker import ClaimHeartbeat, release_quietly, unique_owner

    _enable_telemetry(args, "resume")
    store = _job_store(args)
    record = store.get(args.job)
    if record.job.islands >= 2:
        raise ReproError(
            f"{record.job_id} belongs to an island group; island jobs resume "
            "from their durable exchange checkpoints whenever a worker claims "
            "them — run 'repro worker --once' against this store (or re-run "
            "'repro submit --islands ...', which is idempotent) instead"
        )
    if record.status == "completed" and not args.force:
        print(f"{record.job_id} is already completed; use --force to re-resume")
        return 0
    owner = unique_owner("resume")
    # Claim before looking for the checkpoint: winning the claim is what
    # pulls the fleet's latest checkpoint into the local spool when the
    # store is remote.
    if not store.claim(record.job_id, owner=owner):
        if not args.force:
            raise ReproError(
                f"{record.job_id} is claimed by another worker; wait for it, "
                "let 'repro worker' recover it after --stale-after, or pass "
                "--force to take the claim over now"
            )
        store.release(record.job_id)
        if not store.claim(record.job_id, owner=owner):
            raise ReproError(f"{record.job_id}: lost a claim race; retry")
    beat = None
    try:
        # Re-read inside the claim: a worker may have finished the job
        # between our first read and the claim landing.
        record = store.get(args.job)
        if record.status == "completed" and not args.force:
            print(f"{record.job_id} was completed by another worker meanwhile")
            return 0
        checkpoint = store.checkpoints_dir / f"{record.job_id}.json"
        if not checkpoint.exists():
            raise ReproError(
                f"no checkpoint for {record.job_id} under {store.checkpoints_dir}; "
                "was the job submitted with --checkpoint-every?"
            )
        runner = JobRunner(
            backend=args.backend,
            max_workers=args.workers,
            cache_path=None if args.no_cache else str(store.cache_path),
            checkpoint_dir=str(store.checkpoints_dir),
            checkpoint_every=int(record.extras.get("checkpoint_every", 0)),
        )
        beat = ClaimHeartbeat(store, [record.job_id], owner,
                              _INLINE_HEARTBEAT_SECONDS).start()
        # The resumed run links its new spans to the submit-time trace:
        # same trace id from extras, so the durable blob merges both
        # attempts into one waterfall.
        from repro.obs import trace

        trace_ctx = trace.trace_context_from_extras(record.extras)
        store.mark_running(record)
        try:
            (result,) = runner.run(
                [record.job], resume=True,
                traces=[trace_ctx] if trace_ctx else None,
            )
        except Exception as exc:  # noqa: BLE001 - job failure is service state
            store.mark_failed(record, str(exc))
            if trace_ctx is not None:
                trace.flush_job_trace(store, store.get(record.job_id),
                                      trace.take_stray_spans())
            raise
        spans = result.extras.pop("trace_spans", [])
        store.mark_completed(record, result)
        if trace_ctx is not None:
            trace.flush_job_trace(store, store.get(record.job_id), spans)
    finally:
        if beat is not None:
            beat.stop()
        release_quietly(store, [record.job_id], owner)
    print(format_table(_STATUS_HEADER, [_result_row(record)],
                       title=f"resumed {record.job_id}"))
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import Worker

    _enable_telemetry(args, "worker")
    store = _job_store(args)
    worker = Worker(
        store,
        backend=args.backend,
        max_workers=args.workers,
        use_cache=not args.no_cache,
        cache_max_entries=args.cache_max_entries,
        worker_id=args.worker_id,
        stale_after=args.stale_after,
        capacity=args.capacity,
        heartbeat_every=args.heartbeat_every,
    )
    if getattr(args, "log_json", False):
        from repro.obs import get_event_log

        get_event_log().bind(worker=worker.worker_id)
    if args.once:
        outcomes = worker.run_once(max_jobs=args.max_jobs)
        # A drain-and-exit worker still reports its telemetry before it
        # goes (the polling loop pushes after every drain on its own).
        worker._maybe_push_telemetry(force=True)
    else:
        outcomes = worker.run(
            poll_seconds=args.poll_seconds,
            max_jobs=args.max_jobs,
            idle_exit=args.idle_exit,
            poll_max=args.poll_max,
        )
    # An island job can settle several times in one drain (parked at an
    # exchange, then finished) — report each job once, by its last word.
    last: dict[str, object] = {}
    for outcome in outcomes:
        last[outcome.job_id] = outcome
    failures = 0
    parked = 0
    for outcome in last.values():
        if outcome.parked is not None:
            parked += 1
        elif not outcome.ok:
            failures += 1
            print(f"{outcome.job_id} failed: {outcome.error}", file=sys.stderr)
    if not outcomes:
        print(f"no claimable queued jobs in {_store_label(store)}")
        return 0
    rows = [_result_row(store.get(job_id)) for job_id in last]
    title = f"worker {worker.worker_id}: ran {len(last)} job(s)"
    if parked:
        title += f" ({parked} parked awaiting island peers)"
    print(format_table(_STATUS_HEADER, rows, title=title))
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import instrument_store
    from repro.service.netstore import JobStoreServer
    from repro.service.store import JobStore

    _enable_telemetry(args, "serve")
    if args.backend == "sqlite":
        from pathlib import Path

        from repro.service.sqlstore import SqliteJobStore

        # --db wins; otherwise the database lives in the state dir, as
        # the --db help text promises (and only then in $REPRO_HOME).
        db = args.db or (Path(args.state_dir) / "jobs.sqlite"
                         if args.state_dir else None)
        store = SqliteJobStore(db)
    else:
        if args.db:
            raise ReproError("--db only applies to --backend sqlite")
        store = JobStore(args.state_dir) if args.state_dir else JobStore()
    token = _store_token(args)
    if not token:
        print("warning: serving without a token; any client that can reach "
              "this port can submit and claim jobs", file=sys.stderr)
    # The served store goes through the timing proxy so every RPC's
    # backing store op lands in repro_store_op_seconds{backend=...}.
    server = JobStoreServer(instrument_store(store, backend=args.backend),
                            host=args.host, port=args.port, token=token)
    print(f"serving job store {_store_label(store)} at {server.url}")
    print(f"metrics: {server.url}/metrics (Prometheus text"
          + (", authenticated)" if token else ")"))
    # A wildcard bind address is not routable; advertise this host's
    # name so the hint works when pasted on another machine.
    advertised = server.url
    if server.host in ("0.0.0.0", "::"):
        import socket

        advertised = f"http://{socket.gethostname()}:{server.port}"
    print("point workers at it with: repro worker --store-url "
          f"{advertised}" + (" --token <token>" if token else ""))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.cache import EvaluationCache

    store = _job_store(args)
    with EvaluationCache(store.cache_path) as cache:
        removed = None
        if args.clear:
            removed = cache.clear()
        elif args.max_entries is not None:
            removed = cache.evict(args.max_entries)
        if args.json:
            payload = {"cache": str(store.cache_path), "entries": len(cache)}
            if args.clear:
                payload["cleared"] = removed
            elif args.max_entries is not None:
                payload["evicted"] = removed
                payload["bound"] = args.max_entries
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.clear:
            print(f"cleared {removed} cached evaluations from {store.cache_path}")
        elif args.max_entries is not None:
            print(f"evicted {removed} least-recently-used evaluations "
                  f"(bound {args.max_entries})")
            print(f"entries: {len(cache)}")
        else:
            print(f"cache: {store.cache_path}")
            print(f"entries: {len(cache)}")
    return 0


def _fleet_snapshot(store) -> dict:
    """Live fleet state from two store round trips (records + claims).

    Works against any backend, which is why it reads the store rather
    than ``/metrics``: a file-store fleet has no metrics endpoint, but it
    has the same records and claims.
    """
    now = time.time()
    records = store.records()
    claims = store.claims()
    counts: dict[str, int] = {}
    for record in records:
        counts[record.status] = counts.get(record.status, 0) + 1
    throughput = {}
    for label, span in (("1m", 60.0), ("15m", 900.0), ("1h", 3600.0)):
        done = [
            r for r in records
            if r.status == "completed" and r.finished_at is not None
            and now - r.finished_at <= span
        ]
        throughput[label] = {
            "completed": len(done),
            "evaluations": sum(
                r.result.fresh_evaluations for r in done if r.result is not None
            ),
            "per_minute": round(len(done) / (span / 60.0), 2),
        }
    running = []
    for record in records:
        if record.status != "running":
            continue
        claim = claims.get(record.job_id) or {}
        running.append({
            "job_id": record.job_id,
            "dataset": record.job.dataset,
            "owner": claim.get("owner") or "?",
            "heartbeat_age_seconds": claim.get("age_seconds"),
            "running_seconds": (
                round(now - record.started_at, 1)
                if record.started_at is not None else None
            ),
        })
    workers = sorted({
        info.get("owner") for info in claims.values() if info.get("owner")
    })
    # Slowest recent jobs, sourced from trace roots: only traced records
    # carry the id that links the row to its `repro trace` waterfall,
    # and the root span's wall clock is submit -> finish.
    traced_done = [
        r for r in records
        if r.status == "completed" and r.finished_at is not None
        and r.submitted_at is not None
        and now - r.finished_at <= 3600.0
        and isinstance(r.extras.get("trace"), dict)
        and r.extras["trace"].get("id")
    ]
    traced_done.sort(key=lambda r: r.finished_at - r.submitted_at, reverse=True)
    slowest = [
        {
            "job_id": r.job_id,
            "trace_id": str(r.extras["trace"]["id"]),
            "seconds": round(r.finished_at - r.submitted_at, 1),
        }
        for r in traced_done[:5]
    ]
    snap = {
        "store": str(_store_label(store)),
        "at": now,
        "jobs": counts,
        "throughput": throughput,
        "running": running,
        "workers": workers,
        "slowest": slowest,
    }
    return snap


def _render_fleet(snap: dict) -> str:
    lines = [f"fleet @ {snap['store']}  ({time.strftime('%H:%M:%S')})"]
    counts = snap["jobs"]
    lines.append("jobs: " + (", ".join(
        f"{status}={count}" for status, count in sorted(counts.items())
    ) or "none"))
    lines.append("completed: " + ", ".join(
        f"last {label}: {window['completed']} ({window['per_minute']}/min, "
        f"{window['evaluations']} evals)"
        for label, window in snap["throughput"].items()
    ))
    if snap["workers"]:
        lines.append(f"workers ({len(snap['workers'])}): "
                     + ", ".join(snap["workers"]))
    if snap.get("slowest"):
        lines.append("slowest traced (1h): " + ", ".join(
            f"{job['job_id']} {job['seconds']}s [{job['trace_id'][:8]}]"
            for job in snap["slowest"]
        ))
    if snap["running"]:
        rows = [
            [
                job["job_id"],
                job["dataset"],
                job["owner"],
                (f"{job['heartbeat_age_seconds']:.0f}s ago"
                 if job["heartbeat_age_seconds"] is not None else "?"),
                (f"{job['running_seconds']:.0f}s"
                 if job["running_seconds"] is not None else "?"),
            ]
            for job in snap["running"]
        ]
        lines.append(format_table(
            ["job", "dataset", "owner", "heartbeat", "elapsed"],
            rows, title="running",
        ))
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    store = _job_store(args)
    try:
        while True:
            snap = _fleet_snapshot(store)
            if args.json:
                print(json.dumps(snap, indent=2, sort_keys=True))
            else:
                print(_render_fleet(snap))
            if not args.watch:
                return 0
            time.sleep(args.watch)
            print()
    except KeyboardInterrupt:
        return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace

    store = _job_store(args)
    record = store.get(args.job)  # unknown jobs fail with the usual error
    payload = trace.load_trace(store, record.job_id)
    if payload is None:
        info = record.extras.get("trace")
        if isinstance(info, dict) and not info.get("sampled", True):
            print(f"{record.job_id}: trace was head-sampled out "
                  "(submit with --trace-sample 1.0 to keep every trace)")
        else:
            print(f"{record.job_id}: no trace recorded; submit with "
                  "--trace-sample RATE to trace jobs")
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(trace.render_waterfall(payload))
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    from repro.service.store import migrate_store, store_from_spec

    _enable_telemetry(args, "migrate")
    if args.source == args.dest:
        raise ReproError("migrate needs two different stores")
    source = store_from_spec(args.source, token=_store_token(args))
    dest = store_from_spec(args.dest, token=_store_token(args))
    counts = migrate_store(source, dest, chunk_size=args.chunk_size)
    print(f"migrated {counts['records']} job record(s), "
          f"{counts['checkpoints']} checkpoint(s), "
          f"{counts.get('traces', 0)} trace(s) and "
          f"{counts.get('migrants', 0)} migrant blob(s)")
    print(f"  from: {_store_label(source)}")
    print(f"  to:   {_store_label(dest)}")
    if counts["records"]:
        print("live claims do not migrate; a record caught mid-running is "
              "requeued by the first worker poll against the new store")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evolutionary optimization for categorical data protection "
        "(Marés & Torra, PAIS/EDBT 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the paper's datasets").set_defaults(fn=cmd_datasets)

    p = sub.add_parser("generate", help="write a synthetic paper dataset to CSV")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("protect", help="apply one protection method")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--method", required=True)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--attributes", default="", help="comma-separated; default: paper's")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_protect)

    p = sub.add_parser("evaluate", help="score a masked CSV against a paper dataset")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--masked", required=True)
    p.add_argument("--attributes", default="")
    p.add_argument("--score", default="max", choices=["mean", "max", "weighted", "power_mean"])
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("evolve", help="build the paper population and run the GA")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--score", default="max", choices=["mean", "max", "weighted", "power_mean"])
    p.add_argument("--generations", type=int, default=300)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--drop-best", type=float, default=0.0)
    p.add_argument("--output", default="", help="write the best protection here")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("pareto", help="evolve the Pareto IL/DR front (extension)")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--attributes", default="")
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_pareto)

    p = sub.add_parser("export", help="run the GA and export figure data as CSV")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--score", default="max", choices=["mean", "max", "weighted", "power_mean"])
    p.add_argument("--generations", type=int, default=300)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--drop-best", type=float, default=0.0)
    p.add_argument("--directory", required=True)
    p.set_defaults(fn=cmd_export)

    def add_store_options(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--state-dir", default="",
                        help="service state directory (default: $REPRO_HOME or "
                             "~/.repro); with a remote store, the local spool")
        sp.add_argument("--store", default="",
                        help="job store spec: file:DIR, sqlite:PATH, or "
                             "http(s)://host:port (overrides --state-dir "
                             "and --store-url)")
        sp.add_argument("--store-url", default="",
                        help="use a network job store served by 'repro serve' "
                             "(e.g. http://host:8642) instead of a local directory")
        sp.add_argument("--token", default="",
                        help="shared token for remote stores (default: $REPRO_TOKEN)")

    def add_logging_options(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--log-json-file", default="", metavar="PATH",
                        help="also write the JSONL event stream to PATH, "
                             "size-rotated (works with or without --log-json)")
        sp.add_argument("--log-json-max-mb", type=float, default=64.0,
                        help="rotate --log-json-file when it reaches this many "
                             "MB; one predecessor (PATH.1) is kept")
        sp.add_argument("--trace-sample", type=float, default=0.0, metavar="RATE",
                        help="trace this fraction of submitted jobs "
                             "(0 disables, 1 traces everything; failed jobs "
                             "always keep their trace) — view with "
                             "'repro trace JOB'")
        sp.add_argument("--slow-op-seconds", type=float, default=30.0,
                        help="with tracing on, emit a slow_op event and count "
                             "repro_slow_ops_total{op} for any span longer "
                             "than this")

    def add_service_options(sp: argparse.ArgumentParser) -> None:
        add_store_options(sp)
        sp.add_argument("--backend", default="serial", choices=["serial", "thread", "process"])
        sp.add_argument("--workers", type=int, default=None, help="pool size cap")
        sp.add_argument("--no-cache", action="store_true",
                        help="skip the persistent evaluation cache")
        sp.add_argument("--log-json", action="store_true",
                        help="stream structured telemetry events to stderr, "
                             "one JSON object per line")
        add_logging_options(sp)

    p = sub.add_parser("submit", help="submit protection jobs to the service and run them")
    p.add_argument("--dataset", required=True, choices=sorted(PAPER_SPECS))
    p.add_argument("--score", default="max", choices=["mean", "max", "weighted", "power_mean"])
    p.add_argument("--generations", type=int, default=300)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seeds", default="", help="comma-separated replicate seeds (overrides --seed)")
    p.add_argument("--drop-best", type=float, default=0.0)
    p.add_argument("--checkpoint-every", type=int, default=25,
                   help="generations between checkpoints (0 disables)")
    p.add_argument("--islands", type=int, default=1,
                   help="split the search into this many island populations "
                        "exchanging elite migrants (plus one merge job); "
                        "deterministic for a given seed regardless of worker "
                        "count")
    p.add_argument("--migrate-every", type=int, default=25, metavar="M",
                   help="with --islands: generations between migrant exchanges")
    p.add_argument("--migrants", type=int, default=2, metavar="K",
                   help="with --islands: top-k elites each island publishes "
                        "per exchange")
    p.add_argument("--topology", default="ring", choices=["ring", "star", "full"],
                   help="with --islands: which peers each island receives "
                        "migrants from")
    p.add_argument("--detach", action="store_true",
                   help="queue the jobs and return; execute later with 'repro worker'")
    add_service_options(p)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("worker", help="claim and execute queued jobs (see submit --detach)")
    p.add_argument("--once", action="store_true", help="drain the queue once and exit")
    p.add_argument("--poll-seconds", type=float, default=2.0,
                   help="sleep between queue polls when not --once")
    p.add_argument("--max-jobs", type=int, default=0,
                   help="exit after executing this many jobs (0 = no limit)")
    p.add_argument("--idle-exit", type=int, default=0,
                   help="exit after this many consecutive empty polls (0 = never)")
    p.add_argument("--stale-after", type=float, default=3600.0,
                   help="requeue jobs whose claim has not heartbeated for this "
                        "many seconds; keep it well above 15s — inline "
                        "'repro submit'/'resume' runs beat at that fixed cadence")
    p.add_argument("--worker-id", default="",
                   help="claim identity; must be unique per live worker "
                        "(default: host-pid plus a random suffix)")
    p.add_argument("--capacity", type=int, default=1,
                   help="claim up to this many jobs per batch and run them on "
                        "the configured backend")
    p.add_argument("--heartbeat-every", type=float, default=None,
                   help="seconds between claim heartbeats "
                        "(default: stale-after / 4)")
    p.add_argument("--cache-max-entries", type=int, default=None,
                   help="LRU bound for the evaluation cache during this worker's jobs")
    p.add_argument("--poll-max", type=float, default=None,
                   help="back off while the queue is empty: double the poll "
                        "interval up to this many seconds, reset on the first "
                        "claim (default: no backoff)")
    add_service_options(p)
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser("serve", help="serve a job store to remote workers over HTTP")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: localhost only)")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--token", default="",
                   help="shared auth token clients must present (default: $REPRO_TOKEN)")
    p.add_argument("--backend", default="file", choices=["file", "sqlite"],
                   help="what backs the served store: a state directory, or "
                        "one SQLite database")
    p.add_argument("--db", default="",
                   help="with --backend sqlite: the database file "
                        "(default: jobs.sqlite under the state dir)")
    p.add_argument("--state-dir", default="",
                   help="state directory to serve (default: $REPRO_HOME or ~/.repro)")
    p.add_argument("--log-json", action="store_true",
                   help="stream structured telemetry events to stderr, "
                        "one JSON object per line")
    add_logging_options(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("migrate",
                       help="copy job records and checkpoints between stores "
                            "(file:DIR <-> sqlite:PATH)")
    p.add_argument("--from", dest="source", required=True, metavar="SPEC",
                   help="source store spec (file:DIR, sqlite:PATH, or URL)")
    p.add_argument("--to", dest="dest", required=True, metavar="SPEC",
                   help="target store spec (file:DIR, sqlite:PATH, or URL)")
    p.add_argument("--token", default="",
                   help="shared token if either end is a remote store")
    p.add_argument("--chunk-size", type=int, default=100,
                   help="records per progress chunk; each chunk emits a "
                        "migrate_progress event (see --log-json)")
    p.add_argument("--log-json", action="store_true",
                   help="stream structured telemetry events to stderr — "
                        "per-chunk migrate_progress gives a heartbeat on "
                        "large stores")
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser("status", help="show the service's job table")
    p.add_argument("--job", default="", help="show one job in detail")
    p.add_argument("--group", default="", metavar="GROUP_ID",
                   help="show one island group (ig-... id printed by "
                        "'repro submit --islands')")
    p.add_argument("--json", action="store_true",
                   help="print machine-readable job records instead of tables")
    add_store_options(p)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("trace",
                       help="render a job's span waterfall (record one by "
                            "submitting with --trace-sample)")
    p.add_argument("job", help="job id whose trace to render")
    p.add_argument("--json", action="store_true",
                   help="print the raw span tree as JSON instead")
    add_store_options(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("top", help="live fleet overview: job counts, throughput, "
                                   "running claims, workers")
    p.add_argument("--json", action="store_true",
                   help="print the fleet snapshot as JSON")
    p.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                   help="refresh every SECONDS until interrupted (0 = print once)")
    add_store_options(p)
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("resume", help="resume an interrupted job from its checkpoint")
    p.add_argument("--job", required=True)
    p.add_argument("--force", action="store_true",
                   help="re-resume a completed job or take over an existing claim")
    add_service_options(p)
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("cache", help="inspect, bound, or clear the persistent evaluation cache")
    p.add_argument("--clear", action="store_true")
    p.add_argument("--max-entries", type=int, default=None,
                   help="evict least-recently-used entries down to this bound")
    p.add_argument("--state-dir", default="")
    p.add_argument("--store", default="",
                   help="job store spec whose cache to operate on "
                        "(file:DIR or sqlite:PATH)")
    p.add_argument("--json", action="store_true",
                   help="print cache statistics as JSON")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("experiment", help="run a paper experiment end to end")
    p.add_argument("--id", required=True, choices=["e1", "e2", "e3"])
    p.add_argument("--dataset", default="flare", choices=sorted(PAPER_SPECS))
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--drop-best", type=float, default=0.0)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
