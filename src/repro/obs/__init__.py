"""``repro.obs`` — the zero-dependency observability layer.

Three cooperating subsystems, each off by default and free (a global read
plus a branch) when disabled, so :class:`~repro.wasm.interpreter.ExecutionStats`
and every signed resource vector stay byte-identical whether or not anyone
is watching:

* :mod:`repro.obs.trace`   — hierarchical spans with monotonic timestamps
  and parent/child links, exported as JSON or Chrome ``trace_event`` format
  (``about:tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram (fixed log-scale
  buckets) with an OpenMetrics text exporter and a JSON snapshot; the
  system's instruments live in :mod:`repro.obs.instruments`, pinned by the
  ``metric_names.txt`` contract file;
* :mod:`repro.obs.profiler`— per-function and basic-block-segment
  attribution inside both Wasm engines, with a top-N hot-function report
  and flamegraph collapsed-stack output.

A fourth subsystem — the **streaming telemetry pipeline** — builds on the
same off-by-default switch discipline: :mod:`repro.obs.events` (structured,
bounded, replayable event log), :mod:`repro.obs.slo` (declarative threshold
and multi-window burn-rate alerting over the windows the metrics registry
keeps for the gateway instruments, live or replayed from an event log) and
:mod:`repro.obs.audit` (per-tenant billing-drift reconciliation of meter
readings vs signed receipts vs sealed epochs).

CLI surface: ``repro trace <workload>``, ``repro metrics``, ``repro top``,
``repro alerts``, ``repro run/sandbox --profile`` and ``repro loadtest
--metrics-out/--events-out/--slo``.
"""

from repro.obs.audit import DriftFinding, DriftReport, audit_billing
from repro.obs.context import TraceContext, explain_request, trace_id_for
from repro.obs.events import (
    Event,
    EventLog,
    disable_events,
    emit,
    enable_events,
    events_enabled,
    get_event_log,
    read_jsonl,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
)
from repro.obs.profiler import (
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    profile,
)
from repro.obs.slo import Alert, Rule, SLOEngine, load_rules, replay
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "Alert",
    "BYTES_BUCKETS",
    "Counter",
    "DriftFinding",
    "DriftReport",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_SPAN",
    "Profiler",
    "Rule",
    "SLOEngine",
    "Span",
    "TraceContext",
    "Tracer",
    "active_profiler",
    "audit_billing",
    "disable_events",
    "disable_metrics",
    "disable_profiling",
    "disable_tracing",
    "emit",
    "enable_events",
    "enable_metrics",
    "enable_profiling",
    "enable_tracing",
    "events_enabled",
    "explain_request",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "load_rules",
    "metrics_enabled",
    "profile",
    "read_jsonl",
    "replay",
    "span",
    "trace_id_for",
    "tracing_enabled",
]


def disable_all() -> None:
    """Turn every observability subsystem off (the default state)."""
    disable_tracing()
    disable_metrics()
    disable_profiling()
    disable_events()
