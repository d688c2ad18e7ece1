"""Request-lifecycle transitions and everything each one records.

Every transition of a metering-gateway request is one
:meth:`LifecycleRecorder.record` call.  :data:`TRANSITIONS` says, per kind,
which metric it bumps, which event it emits (with exactly which fields),
which request-span attributes it sets (and whether it ends the span) and
which per-gateway count it adds to.  The scale soak records through the
same table, so it measures the gateway's real per-request telemetry cost.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, NamedTuple

from repro.obs.events import emit as emit_event
from repro.obs.events import events_enabled
from repro.obs.instruments import (
    GATEWAY_DEADLINE_EXCEEDED,
    GATEWAY_REQUEST_LATENCY,
    GATEWAY_REQUESTS,
    GATEWAY_RESULTS_REJECTED,
    GATEWAY_RETRIES,
    TRACES_SAMPLED_TOTAL,
)
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import Span


class Transition(NamedTuple):
    metric: Callable[[dict], object] | None = None  # given the fields
    event: tuple[str, ...] = ()  # the event's field names; () emits none
    span: Callable[[dict], dict] | None = None  # request-span attributes
    end: bool = False  # end the request span
    count: str | None = None  # count key, formatted with the fields


def _admitted(f: dict) -> None:
    if f["sampled"] is not None:  # a trace context was minted
        TRACES_SAMPLED_TOTAL.inc(decision="sampled" if f["sampled"] else "unsampled")


def _settled(f: dict) -> None:
    GATEWAY_REQUESTS.inc(tenant=f["tenant"], outcome=f["outcome"])
    if f["outcome"] == "ok":
        # the exemplar links this latency bucket to the request's trace
        GATEWAY_REQUEST_LATENCY.observe(
            f["latency_s"], exemplar=f["trace_id"], tenant=f["tenant"]
        )


_REQUEST = ("gateway", "tenant", "request_id")

TRANSITIONS: dict[str, Transition] = {
    "reject": Transition(
        metric=lambda f: GATEWAY_REQUESTS.inc(
            tenant=f["tenant"], outcome=f"rejected:{f['code']}"
        ),
        event=("gateway", "tenant", "code"),
        span=lambda f: {"outcome": f"rejected:{f['code']}"},
        end=True,
    ),
    "admit": Transition(
        metric=_admitted,
        event=_REQUEST + ("trace_id",),
        span=lambda f: {"request_id": f["request_id"], "trace_id": f["trace_id"]},
    ),
    "fault_injected": Transition(
        event=_REQUEST + ("fault", "trace_id"),
        span=lambda f: {"injected_fault": f["fault"]},
        count="faults_injected:{fault}",
    ),
    "retry": Transition(
        metric=lambda f: GATEWAY_RETRIES.inc(tenant=f["tenant"]),
        event=_REQUEST + ("attempt", "trace_id"),
        span=lambda f: {"attempts": f["attempt"] + 1},
        count="retries",
    ),
    # its event, meter_invalid, comes from validate_raw itself
    "result_rejected": Transition(
        metric=lambda f: GATEWAY_RESULTS_REJECTED.inc(tenant=f["tenant"]),
        count="results_rejected",
    ),
    "checkpoint": Transition(
        event=_REQUEST + ("checkpoint", "snapshot_bytes", "trace_id"),
        span=lambda f: {"checkpoints": f["checkpoint"]},
        count="preemptions",
    ),
    "deadline_exceeded": Transition(
        metric=lambda f: GATEWAY_DEADLINE_EXCEEDED.inc(tenant=f["tenant"]),
        count="deadline_exceeded",
    ),
    "settled": Transition(
        metric=_settled,
        event=_REQUEST + ("outcome", "latency_s", "trace_id"),
        span=lambda f: {"outcome": f["outcome"]},
        end=True,
    ),
}


class LifecycleRecorder:
    """Applies :data:`TRANSITIONS` for one gateway and keeps its counts."""

    def __init__(self, gateway_id: str):
        self.gateway_id = gateway_id
        self._counts: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, kind: str, tenant: str, span, fields: dict) -> None:
        """Apply ``kind``'s row; ``span`` is the request span, or None."""
        metric, event, attributes, end, count = TRANSITIONS[kind]
        fields["gateway"] = self.gateway_id
        fields["tenant"] = tenant
        if metric is not None and metrics_enabled():
            metric(fields)
        if event and events_enabled():
            emit_event(kind, **{name: fields[name] for name in event})
        if isinstance(span, Span):  # a null span (tracing off) records nothing
            if attributes is not None:
                span.set_attributes(**attributes(fields))
            if end:
                span.end()
        if count is not None:
            with self._lock:
                self._counts[count.format_map(fields)] += 1

    def counts(self) -> dict:
        """Every count, with ``faults_injected`` broken down by fault."""
        with self._lock:
            counts = dict(self._counts)
        faults = {
            key.partition(":")[2]: counts.pop(key)
            for key in list(counts)
            if key.startswith("faults_injected:")
        }
        totals = dict.fromkeys(
            ("retries", "deadline_exceeded", "results_rejected", "preemptions"), 0
        )
        return {**totals, **counts, "faults_injected": faults}
