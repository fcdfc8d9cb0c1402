"""Fleet-wide telemetry: metrics registry, structured events, timelines.

``repro.obs`` is the observability substrate the rest of the codebase
records into.  It is stdlib-only and sits below every other layer, so
:mod:`repro.core`, :mod:`repro.metrics` and :mod:`repro.service` can all
import it without cycles.  Telemetry is **off by default**: library
users pay a single attribute check per instrumentation point until a
CLI entry point (or a test) calls :func:`enable`.

The package splits into five small pieces:

* :mod:`repro.obs.registry` — thread-safe counters/gauges/histograms,
  Prometheus text rendering, and fleet snapshot ingest.
* :mod:`repro.obs.events` — the JSONL structured event log behind
  ``--log-json`` (stderr and/or a size-rotated file sink).
* :mod:`repro.obs.instrument` — the store-op timing proxy.
* :mod:`repro.obs.timeline` — per-job generation-by-generation traces
  persisted through ``JobResult.extras``.
* :mod:`repro.obs.trace` — causal spans across the fleet behind
  ``--trace-sample``, flushed to durable per-job trace blobs.
"""

from repro.obs.events import (
    EventLog,
    RotatingFileStream,
    TeeStream,
    configure_events,
    emit_event,
    get_event_log,
)
from repro.obs.instrument import (
    InstrumentedStore,
    instrument_store,
    store_backend_label,
)
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    disable,
    enable,
    escape_label_value,
    get_registry,
    is_enabled,
)
from repro.obs.timeline import (
    TIMELINE_HEADER,
    timeline_from_history,
    timeline_rows,
    timeline_summary,
)
from repro.obs.trace import (
    DEFAULT_SLOW_OP_SECONDS,
    TRACE_BLOB_SUFFIX,
    TraceScope,
    activate,
    activated,
    build_tree,
    deactivate,
    disable_tracing,
    enable_tracing,
    flush_job_trace,
    flush_spans,
    format_traceparent,
    head_sampled,
    load_trace,
    make_span,
    new_span_id,
    new_trace_id,
    new_trace_info,
    parse_traceparent,
    record_span,
    render_waterfall,
    span,
    span_active,
    take_stray_spans,
    trace_blob_id,
    trace_context_from_extras,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_SLOW_OP_SECONDS",
    "EventLog",
    "InstrumentedStore",
    "MetricsRegistry",
    "RotatingFileStream",
    "TIMELINE_HEADER",
    "TRACE_BLOB_SUFFIX",
    "TeeStream",
    "TraceScope",
    "activate",
    "activated",
    "build_tree",
    "configure_events",
    "deactivate",
    "disable",
    "disable_tracing",
    "emit_event",
    "enable",
    "enable_tracing",
    "escape_label_value",
    "flush_job_trace",
    "flush_spans",
    "format_traceparent",
    "get_event_log",
    "get_registry",
    "head_sampled",
    "instrument_store",
    "is_enabled",
    "load_trace",
    "make_span",
    "new_span_id",
    "new_trace_id",
    "new_trace_info",
    "parse_traceparent",
    "record_span",
    "render_waterfall",
    "span",
    "span_active",
    "store_backend_label",
    "take_stray_spans",
    "timeline_from_history",
    "timeline_rows",
    "timeline_summary",
    "trace_blob_id",
    "trace_context_from_extras",
    "tracing_enabled",
]
