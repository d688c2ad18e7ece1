"""Structured, append-only event log — the telemetry pipeline's source.

Where metrics aggregate and spans time, *events* narrate: one schema-versioned
record per interesting state change on the serving path (admission, retry,
fault injection, deadline, receipt, epoch seal, pool rebuild).  The emitting
sites live in :mod:`repro.service.lifecycle` (every gateway request
transition), :mod:`repro.service.gateway`, :mod:`repro.service.ledger`,
:mod:`repro.service.faults` and :mod:`repro.service.worker`; the consumers are
the SLO replay (:mod:`repro.obs.slo`, which re-drives the lifecycle events
through their metric rows), the billing-drift auditor (:mod:`repro.obs.audit`)
and ``repro explain``.  Live SLO evaluation and ``repro top`` read the metrics
registry's windows instead, so they need no event log.

Design constraints, in order:

* **Off by default and nearly free when off** — :func:`emit` is one
  module global read and a ``None`` check, like spans and metrics, so
  the disabled serving path stays byte-identical and unmeasurably slower.
* **Bounded memory with honest backpressure** — the in-process buffer holds at
  most ``capacity`` events; beyond that, *new* events are counted as dropped
  rather than evicting history (the head of a run — registrations, first
  admissions — is what forensics needs, and a silent ring would misreport
  rates).
* **Replayable** — :meth:`EventLog.write_jsonl` persists one JSON object per
  line with a leading ``_meta`` header (schema version, drop count), and
  :func:`read_jsonl` round-trips it, so ``repro alerts --replay`` rebuilds
  the windows a live registry held and evaluates the same rules offline.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from repro.obs.instruments import EVENTS_DROPPED, EVENTS_EMITTED
from repro.obs.trace import _json_safe

#: Bump when a record's reserved keys or an event kind's fields change shape.
SCHEMA_VERSION = 1

#: Keys every record carries; event field names must not collide with them.
RESERVED_KEYS = ("v", "seq", "ts_s", "kind")

#: The event kinds the serving path emits (documentation; a chaos loadtest
#: in ``tests/obs/test_events.py`` checks every kind it records is here —
#: the log itself accepts any kind so experiments can add their own).
EVENT_KINDS = (
    "admit",  # admission granted: tenant, request_id
    "reject",  # typed admission rejection: tenant, code
    "fault_injected",  # chaos plan stamped a fault: tenant, request_id, fault
    "fault_performed",  # a worker acted out its task's fault: fault, arg
    "module_cache",  # a worker looked up the task's module: outcome (hit or
    #                  decode)
    "retry",  # transient failure re-dispatch: tenant, request_id, attempt
    "result_rejected",  # raw readings failed sanity validation: tenant,
    #                     request_id, problems
    "checkpoint",  # a preempted slice was billed: tenant, request_id,
    #                checkpoint, snapshot_bytes
    "settled",  # request finalized: tenant, request_id, outcome, latency_s
    "receipt",  # AE-signed receipt recorded: tenant, request_id, sequence,
    #             weighted_instructions, entry_hash
    "batch_seal",  # a batch of receipts signed under one Merkle root: tenant,
    #                start_sequence, end_sequence, receipts
    "seal",  # billing epoch sealed: epoch, spans, receipts, duration_s
    "epoch_audit",  # offline epoch verification: epoch, outcome, errors
    "pool_rebuild",  # a worker process died and was respawned, or the pool
    #                  degraded to threads: rebuilds, pool_kind
    "alert",  # SLO rule fired: rule, severity, value
)


@dataclass(frozen=True)
class Event:
    """One telemetry record: a kind, a wall-clock timestamp, flat fields."""

    seq: int
    ts_s: float
    kind: str
    fields: dict = field(default_factory=dict)
    v: int = SCHEMA_VERSION

    def to_json(self) -> dict:
        record = {"v": self.v, "seq": self.seq, "ts_s": self.ts_s, "kind": self.kind}
        record.update(self.fields)
        return record

    @classmethod
    def from_json(cls, record: dict) -> "Event":
        fields = {k: v for k, v in record.items() if k not in RESERVED_KEYS}
        return cls(
            seq=int(record["seq"]),
            ts_s=float(record["ts_s"]),
            kind=str(record["kind"]),
            fields=fields,
            v=int(record.get("v", SCHEMA_VERSION)),
        )


class EventLog:
    """A bounded, thread-safe, append-only buffer of :class:`Event` records."""

    def __init__(self, capacity: int = 65536, clock=time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._events: list[Event] = []
        self._emitted = 0
        self._dropped = 0

    def emit(self, kind: str, **fields) -> Event:
        for key in RESERVED_KEYS:
            if key in fields:
                raise ValueError(f"event field {key!r} shadows a reserved key")
        safe = {k: _json_safe(v) for k, v in fields.items()}
        with self._lock:
            self._emitted += 1
            event = Event(seq=self._emitted, ts_s=self._clock(), kind=kind, fields=safe)
            dropped = len(self._events) >= self.capacity
            if dropped:
                self._dropped += 1
            else:
                self._events.append(event)
        EVENTS_EMITTED.inc(kind=kind)
        if dropped:
            EVENTS_DROPPED.inc()
        return event

    # -- introspection -----------------------------------------------------------

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def stats(self) -> dict:
        with self._lock:
            return {
                "emitted": self._emitted,
                "buffered": len(self._events),
                "dropped": self._dropped,
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._emitted = 0
            self._dropped = 0

    # -- persistence -------------------------------------------------------------

    def write_jsonl(self, path: str) -> dict:
        """Persist the buffered events, one JSON object per line.

        The first line is a ``_meta`` header carrying the schema version and
        the emitted/dropped counters, so a reader knows whether the file is a
        complete record of the run or a truncated one.  Returns the header.
        """
        with self._lock:
            events = list(self._events)
            meta = {
                "v": SCHEMA_VERSION,
                "kind": "_meta",
                "emitted": self._emitted,
                "buffered": len(events),
                "dropped": self._dropped,
            }
        with open(path, "w") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for event in events:
                handle.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
        return meta


def read_jsonl(path: str) -> tuple[dict, list[Event]]:
    """Load an event file written by :meth:`EventLog.write_jsonl`.

    Tolerates a missing header (plain event-per-line files) and skips blank
    lines; raises ``ValueError`` on a schema version newer than this reader.
    """
    meta: dict = {"v": SCHEMA_VERSION, "kind": "_meta"}
    events: list[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "_meta":
                meta = record
                if int(record.get("v", SCHEMA_VERSION)) > SCHEMA_VERSION:
                    raise ValueError(
                        f"event file schema v{record['v']} is newer than "
                        f"this reader (v{SCHEMA_VERSION})"
                    )
                continue
            events.append(Event.from_json(record))
    return meta, events


# ---------------------------------------------------------------------------
# Module-level switch: off by default, one global read on the disabled path
# ---------------------------------------------------------------------------

_LOG: EventLog | None = None


def enable_events(log: EventLog | None = None, capacity: int = 65536) -> EventLog:
    """Install (and return) the process-wide event log; emits record from now."""
    global _LOG
    _LOG = log or EventLog(capacity=capacity)
    return _LOG


def disable_events() -> None:
    global _LOG
    _LOG = None


def events_enabled() -> bool:
    return _LOG is not None


def get_event_log() -> EventLog | None:
    return _LOG


def emit(kind: str, **fields) -> None:
    """Emit one event on the active log; a no-op when there is none."""
    log = _LOG
    if log is None:
        return
    log.emit(kind, **fields)
