"""Distributed trace context and the worker telemetry backhaul.

The gateway's observability used to stop at the process boundary: worker
processes (the stand-ins for the paper's per-request enclave instances,
§4.3) emitted spans, events and metrics into *their own* process-local
registries, which evaporated when the result pickled back.  This module
carries telemetry across that boundary in both directions:

* a :class:`TraceContext` — 128-bit ``trace_id``, parent span id, the
  worker's sink set and a hop counter — is minted at gateway admission,
  serialized into the :class:`~repro.service.worker.ExecutionTask` wire
  format, and re-activated inside ``execute_task``;
* a :class:`TelemetryCapture` — a bounded :class:`~repro.obs.trace.Tracer`
  that also keeps structured events and metric deltas — is active
  (thread-locally) for every task ``execute_task`` runs, and ships home
  inside :class:`~repro.service.worker.WorkerResult` as :meth:`to_wire
  <TelemetryCapture.to_wire>` data;
* :func:`merge_telemetry` folds that data into the gateway's tracer / event
  log / metrics registry with origin-pid tagging, so one request preempted
  across three workers still renders as **one stitched Perfetto timeline**,
  and every worker metric is counted exactly once, in either pool kind.

Identity is deterministic: ``trace_id = sha256("trace:<gateway>:<request>")``
truncated to 128 bits, so offline consumers (the drift auditor, ``repro
explain``, CI's stitch checker) can recompute the id for any request without
carrying extra state.  What a worker records is decided once, at
admission, as the context's sink set (:meth:`TraceContext.mint`): exactly
the gateway's enabled channels, so nothing ships home that no gateway sink
keeps and every traced request's worker spans come home.

Worker code has no telemetry API of its own.  It calls the ordinary
:func:`repro.obs.trace.span`, :func:`repro.obs.events.emit`,
``Counter.inc`` and ``Histogram.observe``; while a capture is active on the
calling thread (:func:`activate`, :func:`~repro.obs.trace.current_capture`)
those record into it and nowhere else, so in the threaded pool two
concurrent tasks never write into each other's capture (or into the
gateway's sinks directly), and in a worker process nothing lands in the
forked copies of the gateway's sinks.  With no capture active (the serial
sandbox path, the gateway itself) they behave as they always do.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.obs.events import emit, events_enabled
from repro.obs.instruments import TRACE_BACKHAUL_BYTES, TRACE_SPANS_DROPPED
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import (
    _ACTIVE,
    NULL_SPAN,
    Span,
    Tracer,
    _json_safe,
    current_capture,
    get_tracer,
    tracing_enabled,
)
from repro.tcrypto.hashing import sha256

#: Capture bounds — a preempted slice records a handful of spans and
#: events, so these are generous; beyond them the capture *counts* drops
#: (shipped home and surfaced as ``acctee_trace_spans_dropped``) rather
#: than growing without bound inside a worker.
MAX_SPANS = 256
MAX_EVENTS = 256

#: The channels a worker capture can record; a sink set is a subset.
SPANS, EVENTS, METRICS = "spans", "events", "metrics"
ALL_SINKS = frozenset((SPANS, EVENTS, METRICS))


@dataclass(frozen=True)
class TraceContext:
    """One request's distributed-trace identity, minted at admission.

    ``trace_id`` is 32 hex chars (128 bits), deterministic in the gateway id
    and request id.  ``parent_span_id`` is the gateway-side span the
    worker's spans should hang under.  ``hop`` counts re-dispatches — a
    fresh request is hop 0, each snapshot re-dispatch or retry increments
    it, so a preempted job's worker spans are ordered even when wall clocks
    disagree.  ``sinks`` is the set of channels the worker's capture
    records: the gateway's enabled ones, never empty for a minted context.
    """

    trace_id: str
    parent_span_id: int = 0
    sinks: frozenset = ALL_SINKS
    hop: int = 0

    @classmethod
    def mint(
        cls,
        gateway_id: str,
        request_id: int,
        parent_span_id: int = 0,
    ) -> "TraceContext | None":
        """The request's context, ``None`` when no sink is on; its sink set
        is exactly the enabled channels."""
        tracing, events, metrics = tracing_enabled(), events_enabled(), metrics_enabled()
        if not (tracing or events or metrics):
            return None
        on = {SPANS: tracing, EVENTS: events, METRICS: metrics}
        sinks = frozenset(k for k, v in on.items() if v)
        return cls(trace_id_for(gateway_id, request_id), parent_span_id, sinks)

    def next_hop(self, parent_span_id: int | None = None) -> "TraceContext":
        """The context for a re-dispatch (snapshot resume, retry)."""
        return replace(
            self,
            hop=self.hop + 1,
            parent_span_id=(
                self.parent_span_id if parent_span_id is None else parent_span_id
            ),
        )

    # -- wire format (rides inside ExecutionTask, so: plain tuple) ---------------

    def to_wire(self) -> tuple:
        return (self.trace_id, self.parent_span_id, self.sinks, self.hop)

    @classmethod
    def from_wire(cls, wire: tuple) -> "TraceContext":
        return cls(*wire)


def trace_id_for(gateway_id: str, request_id: int | str) -> str:
    """The deterministic 128-bit trace id of one gateway request.

    Pure function of (gateway, request) so any consumer — the CI stitch
    checker, ``repro explain`` — can recompute it offline.
    """
    return sha256(f"trace:{gateway_id}:{request_id}".encode())[:16].hex()


# ---------------------------------------------------------------------------
# Worker-side capture, its activation, and the gateway-side merge
# ---------------------------------------------------------------------------


class TelemetryCapture(Tracer):
    """One task's worker-side telemetry: a bounded :class:`Tracer` plus the
    task's structured events and metric deltas.

    While :func:`activate` has made it the calling thread's capture, the
    ordinary obs calls on that thread record here and nowhere else, each
    only if its channel is in ``ctx.sinks`` (empty for ``ctx=None``).  Span
    timestamps are CLOCK_MONOTONIC on Linux, whose epoch is boot time and
    therefore *shared* across processes on the same host, so worker spans
    land directly on the gateway's timeline when merged.
    """

    def __init__(self, ctx: TraceContext | None):
        super().__init__()
        self.ctx = ctx
        self.sinks = ctx.sinks if ctx is not None else frozenset()
        self.pid = os.getpid()
        self.events: list[dict] = []
        self.metrics: list[tuple] = []
        self.spans_dropped = 0
        self.events_dropped = 0

    def span(self, name: str, parent: Span | None = None, detached: bool = False,
             **attributes):
        if SPANS not in self.sinks:
            return NULL_SPAN
        if self._next_id > MAX_SPANS:
            self.spans_dropped += 1
            return NULL_SPAN
        return super().span(name, parent=parent, detached=detached, **attributes)

    def event(self, kind: str, **fields) -> None:
        if EVENTS not in self.sinks:
            return
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append(
            {
                "kind": kind,
                "ts_s": time.time(),
                "fields": {k: _json_safe(v) for k, v in fields.items()},
            }
        )

    def metric(self, metric, value: float, labels: dict) -> None:
        """Record one ``Counter.inc``/``Histogram.observe`` as a delta for
        the gateway to replay (without its exemplar, if any)."""
        if METRICS in self.sinks:
            self.metrics.append((metric.name, metric.kind, float(value), labels))

    def to_wire(self) -> dict | None:
        """The capture as plain data (it pickles across the process
        boundary), or ``None`` when nothing was recorded.

        Spans come in creation order, so every parent precedes its children
        as :meth:`Tracer.ingest` needs; one still open (a fault unwound
        past its exit) is closed now and marked ``truncated``.
        """
        if not (self._next_id > 1 or self.events or self.metrics
                or self.spans_dropped or self.events_dropped):
            return None
        with self._lock:
            spans = sorted([*self._spans, *self._open.values()], key=lambda s: s.span_id)
        now = time.perf_counter_ns()
        return {
            "trace_id": self.ctx.trace_id,
            "hop": self.ctx.hop,
            "pid": self.pid,
            "spans": [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "start_ns": s.start_ns,
                    "end_ns": now if s.end_ns is None else s.end_ns,
                    "thread_id": s.thread_id,
                    "attrs": (
                        s.attributes if s.end_ns is not None
                        else {**s.attributes, "truncated": True}
                    ),
                }
                for s in spans
            ],
            "spans_dropped": self.spans_dropped,
            "events": list(self.events),
            "events_dropped": self.events_dropped,
            "metrics": [list(m) for m in self.metrics],
        }


@contextmanager
def activate(capture: TelemetryCapture):
    """Make ``capture`` the calling thread's telemetry sink for the block."""
    previous = _ACTIVE.capture
    _ACTIVE.capture = capture
    try:
        yield capture
    finally:
        _ACTIVE.capture = previous


def merge_telemetry(telemetry: dict, parent: Span | None = None, **fields) -> None:
    """Fold one :meth:`TelemetryCapture.to_wire` into this process's
    tracer, event log and metrics registry.

    Spans keep their origin pid and hang under ``parent`` (one stitched
    trace per request, however many workers served its hops).  Events
    re-emit through this process's log (fresh, strictly monotonic ``seq``)
    stamped with ``fields``, the trace id, and the worker's pid and clock
    as ``origin_pid``/``worker_ts_s``.  Metric deltas always replay: the
    capture was the only place the worker recorded them, in a thread pool
    and a process pool alike.
    """
    trace_id = telemetry["trace_id"]
    origin_pid = telemetry["pid"]
    if metrics_enabled():  # what the capture costs on a process pool's pipe
        TRACE_BACKHAUL_BYTES.observe(float(len(pickle.dumps(telemetry))))
    dropped = telemetry["spans_dropped"] + telemetry["events_dropped"]
    if dropped:
        TRACE_SPANS_DROPPED.inc(dropped)
    tracer = get_tracer()
    if tracer is not None and telemetry["spans"]:
        tracer.ingest(
            telemetry["spans"],
            parent=parent if isinstance(parent, Span) else None,
            pid=origin_pid,
            trace_id=trace_id,
        )
    stamp = dict(fields, trace_id=trace_id, origin_pid=origin_pid)
    for record in telemetry["events"]:
        emit(record["kind"], **{**record["fields"], **stamp, "worker_ts_s": record["ts_s"]})
    registry = get_registry()
    for name, kind, value, labels in telemetry["metrics"]:
        metric = registry.get(name)
        if metric is None:
            continue
        if kind == "histogram":
            metric.observe(value, **labels)
        else:
            metric.inc(value, **labels)


# ---------------------------------------------------------------------------
# repro explain — reconstruct one request's causal story from the event log
# ---------------------------------------------------------------------------

#: Event kinds whose ``request_id`` field ties them to one request.
_REQUEST_KINDS = (
    "admit",
    "fault_injected",
    "retry",
    "result_rejected",
    "checkpoint",
    "receipt",
    "settled",
)


def _belongs(event_request_id, request_id: int) -> bool:
    if event_request_id == request_id:
        return True
    return isinstance(event_request_id, str) and event_request_id.startswith(
        f"{request_id}#cp"
    )


def explain_request(events, request_id: int, gateway: str | None = None) -> dict:
    """Reconstruct one request's causal chain from a recorded event stream.

    ``events`` is a list of :class:`~repro.obs.events.Event` records (live
    from an :class:`~repro.obs.events.EventLog` or replayed from JSONL).
    Returns a structured report — admission, injected faults, retries,
    worker origin pids (from backhauled worker events), checkpoint and
    final receipts, settlement, and the epoch seal that committed the final
    receipt — plus human-readable ``story`` lines for the CLI.
    """
    matched = []
    for event in events:
        fields = event.fields
        if gateway is not None and fields.get("gateway") not in (None, gateway):
            continue
        if event.kind in _REQUEST_KINDS and _belongs(
            fields.get("request_id"), request_id
        ):
            matched.append(event)
    if not matched:
        return {
            "request_id": request_id,
            "found": False,
            "story": [f"request {request_id}: no events found"],
        }

    gateway_id = next(
        (e.fields["gateway"] for e in matched if "gateway" in e.fields), gateway
    )
    trace_id = next(
        (e.fields["trace_id"] for e in matched if e.fields.get("trace_id")), None
    )
    origin_pids = sorted(
        {e.fields["origin_pid"] for e in events
         if e.fields.get("origin_pid") is not None
         and e.fields.get("trace_id") == trace_id and trace_id is not None}
    )
    t0 = matched[0].ts_s
    story: list[str] = []
    checkpoints = []
    receipts = []
    settled = None
    for event in matched:
        fields = event.fields
        dt = event.ts_s - t0
        if event.kind == "admit":
            story.append(
                f"+{dt:7.3f}s  admitted at {gateway_id} as request {request_id}"
                + (f"  trace={trace_id}" if trace_id else "")
            )
        elif event.kind == "fault_injected":
            story.append(f"+{dt:7.3f}s  chaos plan injected fault {fields['fault']!r}")
        elif event.kind == "retry":
            story.append(
                f"+{dt:7.3f}s  transient failure; re-dispatched "
                f"(attempt {fields.get('attempt')})"
            )
        elif event.kind == "result_rejected":
            story.append(
                f"+{dt:7.3f}s  meter readings rejected, nothing signed: "
                + "; ".join(fields.get("problems") or ())
            )
        elif event.kind == "checkpoint":
            checkpoints.append(fields.get("checkpoint"))
            story.append(
                f"+{dt:7.3f}s  preempted: checkpoint #{fields.get('checkpoint')} "
                f"({fields.get('snapshot_bytes')} B snapshot) re-dispatched"
            )
        elif event.kind == "receipt":
            receipts.append(
                {
                    "request_id": fields.get("request_id"),
                    "sequence": fields.get("sequence"),
                    "trace_id": fields.get("trace_id"),
                    "seq": event.seq,
                }
            )
            rid = fields.get("request_id")
            kind = "checkpoint receipt" if isinstance(rid, str) else "final receipt"
            story.append(
                f"+{dt:7.3f}s  AE signed {kind} [{rid}] "
                f"(chain sequence {fields.get('sequence')})"
            )
        elif event.kind == "settled":
            settled = fields
            story.append(
                f"+{dt:7.3f}s  settled: outcome={fields.get('outcome')} "
                f"latency={fields.get('latency_s', 0.0):.3f}s"
            )
    # worker-side provenance: backhauled events carry origin_pid
    if origin_pids:
        story.append(f"          executed on worker pid(s): "
                     f"{', '.join(str(p) for p in origin_pids)}")
    # the seal that committed the final receipt: first seal after it
    sealed_epoch = None
    if receipts:
        last_receipt_seq = max(r["seq"] for r in receipts)
        for event in events:
            if (
                event.kind == "seal"
                and event.seq > last_receipt_seq
                and (gateway_id is None or event.fields.get("gateway") == gateway_id)
            ):
                sealed_epoch = event.fields.get("epoch")
                story.append(
                    f"+{event.ts_s - t0:7.3f}s  epoch {sealed_epoch} sealed "
                    f"({event.fields.get('receipts')} receipts under one Merkle root)"
                )
                break
    return {
        "request_id": request_id,
        "found": True,
        "gateway": gateway_id,
        "trace_id": trace_id,
        "origin_pids": origin_pids,
        "checkpoints": [c for c in checkpoints if c is not None],
        "receipts": receipts,
        "settled": settled,
        "sealed_epoch": sealed_epoch,
        "story": story,
    }
