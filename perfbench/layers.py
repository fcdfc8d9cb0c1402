"""Span tracing around the public entry points of each ``repro`` layer.

Nothing under ``src/`` is changed: :func:`install` replaces public
functions and methods with wrappers that record one span per call (name,
start, end, parent span, run id) plus counters taken at the same
boundary, and :func:`layer_metrics` turns the recorded spans into the
per-layer metrics.  Spans live in memory until :meth:`Tracer.write`.

The untraced pass never imports this module's wrappers, so end-to-end
figures carry no tracing cost; the traced pass installs them once per
process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Store operations the job drain calls (a subset of ``STORE_PROTOCOL``).
DRAIN_STORE_OPS = (
    "recover_stale_claims",
    "claim_batch",
    "mark_running",
    "mark_completed",
    "release",
)

MEASURE_BUSY = ("ctbil", "dbil", "ebil", "interval_disclosure", "dbrl", "rsrl")
METHODS = (
    "microaggregation",
    "rank_swapping",
    "pram",
    "invariant_pram",
    "global_recoding",
    "top_coding",
    "bottom_coding",
)


class Tracer:
    """In-memory span recorder; one instance per traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``(span_id, parent_id, name, start, end, failed)`` tuples.
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, failed))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, failed in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "failed": failed,
                }) + "\n")


def _wrap(tracer: Tracer, fn, name, before=None, after=None):
    """Wrapper recording a span; ``name`` may be a callable of ``self``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args[0]) if callable(name) else name
        state = before(args, kwargs) if before is not None else None
        result = tracer.call(span_name, fn, args, kwargs)
        if after is not None:
            after(state, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns an undo callable."""
    import repro.core.engine as engine_mod
    import repro.metrics.linkage_risk as linkage_risk_mod
    from repro.core.engine import EvolutionaryProtector
    from repro.linkage.compressed import CompressedPair, OriginalIndex
    from repro.methods.base import ProtectionMethod
    from repro.metrics.base import BoundMeasure
    from repro.metrics.evaluation import ProtectionEvaluator
    from repro.service.cache import EvaluationCache
    from repro.service.checkpoint import CheckpointManager
    from repro.service.sqlstore import SqliteJobStore
    from repro.service.worker import Worker

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, before=None, after=None):
        current = getattr(owner, attr)
        saved.append((owner, attr, current))
        setattr(owner, attr, _wrap(tracer, current, name, before, after))

    count = tracer.count

    # core: the engine's operator names are bound at import, so the
    # engine module's references are the ones to wrap.
    def after_operator(_state, _args, _kwargs, _result):
        count("core.operators.calls")

    patch(engine_mod, "mutate", "core.operators", after=after_operator)
    patch(engine_mod, "crossover", "core.operators", after=after_operator)

    def after_engine(_state, _args, _kwargs, result):
        records = result.history.records
        count("core.engine.generations", len(records))
        count("core.engine.accepted", sum(1 for r in records if r.accepted))
        count("core.engine.other_s", sum(r.other_seconds for r in records))

    patch(EvolutionaryProtector, "run", "core.engine", after=after_engine)

    # methods: every paper method goes through the base ``protect``.
    patch(ProtectionMethod, "protect", lambda self: f"methods.{self.method_name}")

    # metrics: per-measure spans, and evaluator counters as deltas of
    # the evaluator's own accounting.  Every workload scores through the
    # batch path (the scalar entry points run only in the output checks).
    patch(BoundMeasure, "compute_many", lambda self: f"metrics.{self.measure_name}")

    def before_eval(args, _kwargs):
        ev = args[0]
        return (ev.batches, ev.evaluations, ev.cache_hits, ev.persistent_hits,
                ev.batch_dedup)

    def after_eval_many(state, args, _kwargs, _result):
        ev = args[0]
        now = (ev.batches, ev.evaluations, ev.cache_hits, ev.persistent_hits,
               ev.batch_dedup)
        for key, old, new in zip(("batches", "fresh", "memo_hits",
                                  "persistent_hits", "dedup"), state, now):
            count(f"metrics.evaluation.{key}", new - old)
        count("metrics.evaluation.candidates", len(args[1]))

    patch(ProtectionEvaluator, "evaluate_many", "metrics.evaluation",
          before=before_eval, after=after_eval_many)

    # linkage: the PRL measure imports the pooled EM by name, so its
    # module's reference is the one to wrap.
    def after_fit(_state, args, _kwargs, _result):
        count("linkage.prl.fits")
        count("linkage.prl.rows", len(args[0]))

    patch(linkage_risk_mod, "fit_fellegi_sunter_many", "linkage.prl", after=after_fit)
    patch(CompressedPair, "__init__", "linkage.compressed",
          after=lambda *_: count("linkage.compressed.pairs"))
    patch(OriginalIndex, "__init__", "linkage.compressed",
          after=lambda *_: count("linkage.compressed.index_builds"))

    # service
    def after_save(_state, args, _kwargs, _result):
        count("service.checkpoint.saves")
        count("service.checkpoint.bytes", args[0].path.stat().st_size)

    patch(CheckpointManager, "save", "service.checkpoint", after=after_save)

    def after_get_many(_state, args, _kwargs, result):
        count("service.cache.get_many.calls")
        count("service.cache.get_many.keys", len(args[1]))
        count("service.cache.get_many.hits", len(result))

    def after_put_many(_state, args, _kwargs, _result):
        count("service.cache.put_many.calls")
        count("service.cache.put_many.keys", len(args[1]))

    patch(EvaluationCache, "get_many", "service.cache.get_many", after=after_get_many)
    patch(EvaluationCache, "put_many", "service.cache.put_many", after=after_put_many)

    from repro.service.store import STORE_PROTOCOL

    for op in STORE_PROTOCOL:
        patch(SqliteJobStore, op, f"service.store.{op}")

    def after_run_once(_state, _args, _kwargs, outcomes):
        count("service.worker.jobs_completed", sum(1 for o in outcomes if o.ok))
        count("service.worker.jobs_failed",
              sum(1 for o in outcomes if not o.ok and o.parked is None))

    patch(Worker, "run_once", "service.worker", after=after_run_once)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def _busy_and_self(spans):
    """Per span name: (calls, busy seconds, self seconds, failed calls).

    Busy time sums spans not nested inside a span of the same name;
    self time is a span's duration minus what its children cover.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _name, start, end, _failed in spans:
        if parent:
            children[parent].append((start, end))
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for span_id, parent, name, start, end, failed in spans:
        entry = stats[name]
        entry[0] += 1
        entry[3] += int(failed)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry[1] += end - start
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        entry[2] += (end - start) - covered
    return stats


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the traced run, by name."""
    stats = _busy_and_self(tracer.spans)
    counters = tracer.counters

    def busy(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    ev = {key: counters.get(f"metrics.evaluation.{key}", 0.0)
          for key in ("batches", "candidates", "fresh", "memo_hits",
                      "persistent_hits", "dedup")}
    generations = counters.get("core.engine.generations", 0.0)
    gets = counters.get("service.cache.get_many.keys", 0.0)
    out = {
        "core.operators.calls": counters.get("core.operators.calls", 0.0),
        "core.operators.busy_s": busy("core.operators"),
        "core.engine.generations": generations,
        "core.engine.other_s": counters.get("core.engine.other_s", 0.0),
        "core.engine.accept_ratio": _ratio(
            counters.get("core.engine.accepted", 0.0), generations),
    }
    for key, value in ev.items():
        out[f"metrics.evaluation.{key}"] = value
    out["metrics.evaluation.mean_batch_size"] = _ratio(ev["candidates"], ev["batches"])
    out["metrics.evaluation.fresh_ratio"] = _ratio(ev["fresh"], ev["candidates"])
    out["metrics.evaluation.self_s"] = self_s("metrics.evaluation")
    for measure in MEASURE_BUSY:
        out[f"metrics.{measure}.busy_s"] = busy(f"metrics.{measure}")
    out["metrics.prl.self_s"] = self_s("metrics.prl")
    out["linkage.prl.fits"] = counters.get("linkage.prl.fits", 0.0)
    out["linkage.prl.rows"] = counters.get("linkage.prl.rows", 0.0)
    out["linkage.prl.busy_s"] = busy("linkage.prl")
    out["linkage.compressed.pairs"] = counters.get("linkage.compressed.pairs", 0.0)
    out["linkage.compressed.busy_s"] = busy("linkage.compressed")
    out["linkage.compressed.index_builds"] = counters.get(
        "linkage.compressed.index_builds", 0.0)
    for method in METHODS:
        out[f"methods.{method}.busy_s"] = busy(f"methods.{method}")
    out["service.checkpoint.saves"] = counters.get("service.checkpoint.saves", 0.0)
    out["service.checkpoint.bytes"] = counters.get("service.checkpoint.bytes", 0.0)
    out["service.checkpoint.busy_s"] = busy("service.checkpoint")
    for key in ("calls", "keys", "hits"):
        out[f"service.cache.get_many.{key}"] = counters.get(
            f"service.cache.get_many.{key}", 0.0)
    out["service.cache.get_many.busy_s"] = busy("service.cache.get_many")
    for key in ("calls", "keys"):
        out[f"service.cache.put_many.{key}"] = counters.get(
            f"service.cache.put_many.{key}", 0.0)
    out["service.cache.put_many.busy_s"] = busy("service.cache.put_many")
    out["service.cache.hit_ratio"] = _ratio(
        counters.get("service.cache.get_many.hits", 0.0), gets)
    for op in DRAIN_STORE_OPS:
        name = f"service.store.{op}"
        out[f"{name}.calls"] = stats[name][0] if name in stats else 0.0
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.errors"] = stats[name][3] if name in stats else 0.0
    out["service.worker.jobs_completed"] = counters.get(
        "service.worker.jobs_completed", 0.0)
    out["service.worker.jobs_failed"] = counters.get("service.worker.jobs_failed", 0.0)
    out["service.worker.self_s"] = self_s("service.worker")
    return out


def top_self_times(tracer: Tracer, limit: int = 8) -> list[tuple[str, float]]:
    """Span names with the largest summed self time, largest first."""
    stats = _busy_and_self(tracer.spans)
    ranked = sorted(((name, entry[2]) for name, entry in stats.items()),
                    key=lambda item: -item[1])
    return ranked[:limit]
