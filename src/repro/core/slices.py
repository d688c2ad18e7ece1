"""One slice's record, and everything its boundaries drive.

A slice (:func:`~repro.core.accounting_enclave.run_slice`, inside a
gateway worker's :func:`~repro.service.worker.execute_task` or the
accounting enclave itself) calls no telemetry API.  It takes
``perf_counter_ns`` stamps at its fixed boundaries and notes the few facts
the telemetry needs in one plain :class:`SliceRecord`, which travels home
on :class:`~repro.service.worker.WorkerResult` (never in anything signed).
:data:`SLICE`, in the shape of the gateway's
:data:`~repro.service.lifecycle.TRANSITIONS`, says per boundary which span
(with which attributes), which event and which metric it drives, and
:func:`apply_slice` applies it where the sinks are: in
:meth:`AccountingEnclave._run <repro.core.accounting_enclave.AccountingEnclave._run>`
under its ``execute`` span, in the gateway's result callback under the
request span, and for the AE's ``account`` boundary in
:meth:`~repro.core.accounting_enclave.AccountingEnclave.account_span`.

Span stamps are CLOCK_MONOTONIC on Linux, whose epoch is boot time and so
shared by every process on the host: a worker process's spans land on the
gateway's timeline as they are.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.obs.events import get_event_log
from repro.obs.instruments import (
    CHECKPOINT_RECEIPTS,
    RESUMES_TOTAL,
    SANDBOX_INSTRUCTIONS,
    SANDBOX_IO_BYTES,
    SANDBOX_PEAK_MEMORY,
    SANDBOX_RUNS,
    SNAPSHOT_BYTES,
    SNAPSHOTS_TAKEN,
    WARM_POOL_HITS,
)
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import get_tracer


class SliceRecord(NamedTuple):
    """One slice's boundary stamps and facts: plain data, fixed fields.

    A stamp is ``perf_counter_ns`` where the boundary was crossed, 0 where
    it was not (the enclave runs no task; only a pool build has build
    stamps; only the AE's signing has account stamps).
    """

    task_ns: int = 0  # the worker task began
    lookup_ns: int = 0  # module lookup began (after a fault's act-out)
    setup_ns: int = 0  # the lease began (a pool build, a reset or a restore)
    build_ns: int = 0  # a pool build began
    built_ns: int = 0  # ... and ended
    run_ns: int = 0  # invoke or resume began
    ran_ns: int = 0  # ... and ended
    end_ns: int = 0  # the worker task ended (its capture encoded)
    account_ns: int = 0  # the AE began signing
    accounted_ns: int = 0  # ... and ended
    engine: str = ""  # the pool's engine ("" for the default)
    exec_engine: str = ""  # the engine whose frames ran the slice
    image: bool = False  # the pool build captured the pool's warm image
    cache: str = ""  # module lookup: "hit" or "decode"
    fault: str = ""  # the fault acted out before the slice, "" for none
    fault_arg: float = 0.0
    resume: bool = False  # the slice continued a snapshot
    snapshot_bytes: int = 0  # the wire size of the snapshot it continued
    suspend_bytes: int = 0  # the wire size of the snapshot it was preempted into
    preempted: bool = False
    trapped: bool = False
    pid: int = 0  # 0: the process applying the record
    thread_id: int = 0
    wall_s: float = 0.0  # time.time() at task_ns


class Boundary(NamedTuple):
    start: str  # the record's stamp where the boundary opens; 0: not crossed
    end: str  # the stamp where it closes
    # the span's name and attributes, given the record and the call's fields
    span: Callable[[SliceRecord, dict], tuple[str, dict]] | None = None
    parent: str | None = None  # the boundary whose span encloses this one's
    # the event's kind and fields, or None to emit none
    event: Callable[[SliceRecord], tuple[str, dict] | None] | None = None
    metric: Callable[[SliceRecord, dict], None] | None = None


def _task_span(r: SliceRecord, f: dict) -> tuple[str, dict]:
    return "worker.task", {"hop": f["hop"], "resume": r.resume, "preempted": r.preempted}


def _setup_span(r: SliceRecord, f: dict) -> tuple[str, dict]:
    if r.resume:
        return "worker.restore", {"snapshot_bytes": r.snapshot_bytes, "engine": r.engine}
    return "worker.instantiate", {"engine": r.engine}


def _run_span(r: SliceRecord, f: dict) -> tuple[str, dict]:
    attributes = {"export": f["export"], "exec_engine": r.exec_engine}
    if r.preempted:
        attributes["preempted"] = True
    if r.trapped:
        attributes["trapped"] = True
    return ("worker.resume_invoke" if r.resume else "worker.invoke"), attributes


def _task_done(r: SliceRecord, f: dict) -> None:
    if r.preempted:
        SNAPSHOT_BYTES.observe(float(r.suspend_bytes))


def _leased(r: SliceRecord, f: dict) -> None:
    if not r.build_ns:
        WARM_POOL_HITS.inc()


def _built(r: SliceRecord, f: dict) -> None:
    if r.image:
        SNAPSHOTS_TAKEN.inc(kind="warm")


def _ran(r: SliceRecord, f: dict) -> None:
    if r.resume:
        RESUMES_TOTAL.inc()
    if r.preempted:
        SNAPSHOTS_TAKEN.inc(kind="suspend")


def _accounted(r: SliceRecord, f: dict) -> None:
    raw, (instructions, io_in, io_out) = f["raw"], f["delta"]
    if f["final"]:
        SANDBOX_RUNS.inc(outcome="trapped" if raw.trapped else "ok")
        SANDBOX_PEAK_MEMORY.observe(float(raw.peak_memory_bytes))
    else:
        CHECKPOINT_RECEIPTS.inc()
    SANDBOX_INSTRUCTIONS.inc(instructions)
    SANDBOX_IO_BYTES.inc(io_in, direction="in")
    SANDBOX_IO_BYTES.inc(io_out, direction="out")


#: Per boundary, in order (an enclosing boundary precedes what it encloses):
#: its stamps, span, event and metric.  The fields the rows read beside the
#: record: ``hop`` (task), ``export`` (run), and ``label``, ``module_hash``,
#: ``raw``, ``final`` and ``delta`` (account).
SLICE: dict[str, Boundary] = {
    "task": Boundary("task_ns", "end_ns", span=_task_span, metric=_task_done),
    "fault": Boundary(
        "task_ns",
        "lookup_ns",
        event=lambda r: (
            ("fault_performed", {"fault": r.fault, "arg": r.fault_arg}) if r.fault else None
        ),
    ),
    "lookup": Boundary(
        "lookup_ns", "setup_ns", event=lambda r: ("module_cache", {"outcome": r.cache})
    ),
    "setup": Boundary("setup_ns", "run_ns", span=_setup_span, parent="task", metric=_leased),
    "build": Boundary(
        "build_ns",
        "built_ns",
        span=lambda r, f: ("warmpool.build", {}),
        parent="setup",
        metric=_built,
    ),
    "run": Boundary("run_ns", "ran_ns", span=_run_span, parent="task", metric=_ran),
    "account": Boundary(
        "account_ns",
        "accounted_ns",
        span=lambda r, f: ("account", {"label": f["label"], "module_hash": f["module_hash"]}),
        metric=_accounted,
    ),
}

#: The call's fields every event carries, when given.
_PROVENANCE = ("gateway", "request_id")


def apply_slice(record: SliceRecord, parent=None, trace_id: str | None = None, **fields) -> None:
    """Apply :data:`SLICE` to the boundaries ``record`` crossed.

    Spans are recorded finished, from the record's stamps, pid and thread,
    under ``parent`` (or the enclosing boundary's span; ``None``: the
    calling thread's innermost open span), each tagged with ``trace_id``
    when one is given.  Events carry ``trace_id``, the record's pid as
    ``origin_pid``, its wall clock at the boundary as ``worker_ts_s``, and
    the ``gateway`` and ``request_id`` fields.  Each channel records only
    while its sink is on; with every sink off this returns after one check.
    """
    tracer, log, metrics = get_tracer(), get_event_log(), metrics_enabled()
    if tracer is None and log is None and not metrics:
        return
    spans: dict = {}
    for name, (start, end, span, enclosing, event, metric) in SLICE.items():
        start_ns = getattr(record, start)
        if not start_ns:
            continue
        if span is not None and tracer is not None:
            span_name, attributes = span(record, fields)
            if trace_id is not None:
                attributes["trace_id"] = trace_id
            spans[name] = tracer.record(
                span_name,
                start_ns,
                getattr(record, end),
                parent=spans.get(enclosing, parent),
                pid=record.pid,
                thread_id=record.thread_id,
                **attributes,
            )
        if event is not None and log is not None:
            emitted = event(record)
            if emitted is not None:
                kind, event_fields = emitted
                log.emit(
                    kind,
                    **event_fields,
                    **{key: fields[key] for key in _PROVENANCE if key in fields},
                    trace_id=trace_id,
                    origin_pid=record.pid,
                    worker_ts_s=record.wall_s + (start_ns - record.task_ns) / 1e9,
                )
        if metric is not None and metrics:
            metric(record, fields)
