"""Distributed trace context, and ``repro explain``.

A :class:`TraceContext` — 128-bit ``trace_id``, parent span id, the sink
set and a hop counter — is minted at gateway admission and serialized into
the :class:`~repro.service.worker.ExecutionTask` wire format.  What a worker
sends back is not telemetry but one fixed :class:`~repro.core.slices.SliceRecord`
(boundary stamps and a few facts, the same whichever sinks are on); the
gateway applies the :data:`~repro.core.slices.SLICE` table to it under the
request span, tagged with the request's trace id and the worker's pid.  So
one request preempted across three workers still renders as **one stitched
Perfetto timeline**, and every worker metric is counted exactly once, in
either pool kind.

Identity is deterministic: ``trace_id = sha256("trace:<gateway>:<request>")``
truncated to 128 bits, so offline consumers (the drift auditor, ``repro
explain``, CI's stitch checker) can recompute the id for any request without
carrying extra state.  The context's sink set (:meth:`TraceContext.mint`)
names the gateway's enabled channels at admission; the worker's record does
not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.events import events_enabled
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import tracing_enabled
from repro.tcrypto.hashing import sha256

#: The telemetry channels; a sink set is a subset.
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
    disagree.  ``sinks`` is the set of the gateway's enabled channels,
    never empty for a minted context.
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
