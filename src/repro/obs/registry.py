"""Thread-safe telemetry registry: counters, gauges, histograms, timers.

The registry is the fleet's one metrics surface.  Every instrumented
layer — stores, the netstore server, workers, the evaluator, the GA
engines — records into the process-global registry returned by
:func:`get_registry`, and the exposition side (``GET /metrics`` on
``repro serve``, ``repro top``, ``--json`` CLI output) reads consistent
:meth:`MetricsRegistry.snapshot` structs from it.

Design constraints, in priority order:

* **Pure observer.**  Telemetry never touches RNG state, fingerprints,
  or stored results; it only reads monotonic clocks and bumps numbers
  under a lock.  Seeded runs are bit-identical with telemetry on or off
  (regression-tested in ``tests/test_telemetry_determinism.py``).
* **Off by default, cheap when off.**  Library users pay one attribute
  check per instrumentation point; only the CLI entry points call
  :func:`enable`.  Hot-path overhead with telemetry *on* stays under
  the noise floor of ``benchmarks/bench_evaluation.py`` (asserted by
  ``benchmarks/bench_telemetry.py``).
* **Zero dependencies.**  Stdlib only, importable from any layer
  (:mod:`repro.core`, :mod:`repro.metrics`, :mod:`repro.service`)
  without cycles.

Metric naming follows the Prometheus conventions and is a stability
contract (recorded in ROADMAP.md): every series is prefixed ``repro_``,
counters end in ``_total``, timings are histograms in seconds ending in
``_seconds``.  Renaming or re-labelling a published series is a
breaking change for scrape configs and dashboards.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

#: Default histogram bucket bounds, tuned for operation latencies in
#: seconds: store ops and RPCs land in the 0.1ms–100ms decades, EM fits
#: and generation steps in the 1ms–10s decades.  ``+Inf`` is implicit.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Bucket bounds for size-shaped histograms (batch sizes, queue depths).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

_INF = float("inf")


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Histogram:
    """One histogram series: cumulative bucket counts plus sum/count."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock.

    All mutating calls are safe from any number of threads; increments
    are never lost and :meth:`snapshot` is a consistent point-in-time
    copy (taken under the same lock the writers hold, then fully
    detached — a caller can iterate it while writers keep writing).

    ``enabled`` gates every write: a disabled registry's ``inc`` /
    ``set_gauge`` / ``observe`` return after one attribute check, which
    is what keeps telemetry free for library users who never opt in.
    Reads (``snapshot`` / ``render_prometheus``) always work.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._gauges: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._histograms: dict[str, dict[tuple[tuple[str, str], ...], _Histogram]] = {}
        self._histogram_bounds: dict[str, tuple[float, ...]] = {}
        # Snapshots pushed by other processes (workers reporting to a
        # serve endpoint), keyed by source id; rendered with a
        # ``source`` label so one scrape shows the whole fleet.
        self._external: dict[str, tuple[float, dict]] = {}

    # -- writers ------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        if not self.enabled:
            return
        key = _labels_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        if not self.enabled:
            return
        key = _labels_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def declare_histogram(self, name: str, buckets: Sequence[float]) -> None:
        """Pin ``name``'s bucket bounds (before the first observation).

        Redeclaring with *different* bounds after observations exist
        raises ``ValueError``: the live series was already bucketed with
        the old bounds, so the late declaration would silently ship
        wrong buckets.  Redeclaring identical bounds stays legal (module
        import-time declarations run more than once under test reloads).
        """
        bounds = tuple(sorted(float(b) for b in buckets))
        with self._lock:
            series = self._histograms.get(name)
            if series:
                effective = next(iter(series.values())).bounds
                if effective != bounds:
                    raise ValueError(
                        f"histogram {name!r} already has observations with "
                        f"buckets {effective}; declare_histogram must run "
                        "before the first observe()"
                    )
            self._histogram_bounds[name] = bounds

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        if not self.enabled:
            return
        key = _labels_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                bounds = self._histogram_bounds.get(name, DEFAULT_SECONDS_BUCKETS)
                histogram = series[key] = _Histogram(bounds)
            histogram.observe(float(value))

    @contextmanager
    def time(self, name: str, **labels: str) -> Iterator[None]:
        """Time a block on the monotonic clock into histogram ``name``.

        The clock is only read when the registry is enabled, so a
        disabled registry's timer is two attribute checks and nothing
        else.
        """
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start, **labels)

    # -- fleet ingest --------------------------------------------------------

    def ingest(self, source: str, snapshot: dict,
               max_sources: int = 1024) -> None:
        """Merge a pushed :meth:`snapshot` from another process.

        Workers push their registry snapshots to the serve endpoint
        (``POST /telemetry``); each source's latest snapshot replaces
        its previous one (snapshots are cumulative, so replacement —
        not addition — is the correct merge).  Rendering adds a
        ``source`` label to every ingested series.  Ingest always works,
        even on a disabled registry: the *server* decides whether to
        expose fleet telemetry, not the pushing worker.
        """
        if not isinstance(snapshot, dict):
            return
        with self._lock:
            self._external[str(source)] = (time.time(), snapshot)
            while len(self._external) > max_sources:
                oldest = min(self._external, key=lambda s: self._external[s][0])
                del self._external[oldest]

    def external_sources(self, max_age_seconds: float = 600.0) -> dict[str, dict]:
        """Recently pushed snapshots by source (stale sources dropped)."""
        cutoff = time.time() - max_age_seconds
        with self._lock:
            return {
                source: snapshot
                for source, (received, snapshot) in self._external.items()
                if received >= cutoff
            }

    # -- readers ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent, JSON-ready copy of every local series."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(key), "value": value}
                for name, series in sorted(self._counters.items())
                for key, value in sorted(series.items())
            ]
            gauges = [
                {"name": name, "labels": dict(key), "value": value}
                for name, series in sorted(self._gauges.items())
                for key, value in sorted(series.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(key),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, series in sorted(self._histograms.items())
                for key, h in sorted(series.items())
            ]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of local + ingested series."""
        sections: dict[str, tuple[str, list[str]]] = {}

        def add(kind: str, entry: dict, extra: dict[str, str]) -> None:
            name = str(entry.get("name", ""))
            if not name:
                return
            labels = {**entry.get("labels", {}), **extra}
            _, lines = sections.setdefault(name, (kind, []))
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_format_labels(sorted(labels.items()))} "
                    f"{_format_value(float(entry.get('value', 0.0)))}"
                )
                return
            bounds = [float(b) for b in entry.get("bounds", [])]
            counts = [int(c) for c in entry.get("counts", [])]
            cumulative = 0
            for bound, count in zip(bounds + [_INF], counts):
                cumulative += count
                bucket_labels = sorted({**labels, "le": _format_value(bound)}.items())
                lines.append(f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}")
            pairs = sorted(labels.items())
            lines.append(f"{name}_sum{_format_labels(pairs)} "
                         f"{_format_value(float(entry.get('sum', 0.0)))}")
            lines.append(f"{name}_count{_format_labels(pairs)} "
                         f"{int(entry.get('count', 0))}")

        def add_snapshot(snapshot: dict, extra: dict[str, str]) -> None:
            for entry in snapshot.get("counters", []):
                add("counter", entry, extra)
            for entry in snapshot.get("gauges", []):
                add("gauge", entry, extra)
            for entry in snapshot.get("histograms", []):
                add("histogram", entry, extra)

        add_snapshot(self.snapshot(), {})
        for source, snapshot in sorted(self.external_sources().items()):
            add_snapshot(snapshot, {"source": source})

        out: list[str] = []
        for name in sorted(sections):
            kind, lines = sections[name]
            out.append(f"# TYPE {name} {kind}")
            out.extend(lines)
        return "\n".join(out) + ("\n" if out else "")

    def reset(self) -> None:
        """Drop every recorded series (tests and long-lived monitors)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._external.clear()


# -- the process-global registry ---------------------------------------------

#: Disabled by default: importing repro and running the library records
#: nothing until a CLI entry point (or a test) opts in via enable().
_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer records into."""
    return _registry


def enable() -> MetricsRegistry:
    """Turn telemetry on process-wide; returns the global registry."""
    _registry.enabled = True
    return _registry


def disable() -> None:
    """Turn telemetry off process-wide (writes become near-free no-ops)."""
    _registry.enabled = False


def is_enabled() -> bool:
    """Whether the process-global registry is recording."""
    return _registry.enabled
