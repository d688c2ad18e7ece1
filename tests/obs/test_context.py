"""Trace context, the worker's slice record, and the gateway-side merge.

Unit coverage for :mod:`repro.obs.context` and the record half of
:mod:`repro.core.slices`: deterministic trace identity and the sink set
minted with it, the fixed worker-side record (its size, its plain-data
wire form, concurrent tasks kept apart), the slice table applied to it
(span nesting from its stamps, events with provenance, metrics with their
labels, nothing for a sink that is off), the per-span pid in the Chrome
export, histogram exemplars, and the ``explain_request`` event
reconstruction.
"""

import itertools
import json
import pickle
import sys
import threading

import pytest

from repro.core import slices
from repro.core.accounting_enclave import RawExecution
from repro.core.slices import SliceRecord, apply_slice
from repro.obs.context import (
    ALL_SINKS,
    EVENTS,
    METRICS,
    SPANS,
    TraceContext,
    explain_request,
    trace_id_for,
)
from repro.obs.events import Event, EventLog, disable_events, emit, enable_events
from repro.obs.metrics import (
    Counter,
    Histogram,
    disable_metrics,
    enable_metrics,
    get_registry,
)
from repro.obs.trace import NULL_SPAN, Tracer, disable_tracing, enable_tracing, span
from repro.service.worker import ExecutionTask, execute_task


CTX = TraceContext(trace_id=trace_id_for("gw-test", 1))


# ---------------------------------------------------------------------------
# TraceContext: identity, sink set, wire format
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_trace_id_is_deterministic_and_128_bit(self):
        a = trace_id_for("gw-1", 7)
        assert a == trace_id_for("gw-1", 7)
        assert len(a) == 32  # 128 bits as hex
        int(a, 16)  # valid hex
        assert a != trace_id_for("gw-1", 8)
        assert a != trace_id_for("gw-2", 7)

    def test_mint_recomputable_offline(self, sinks_on):
        ctx = TraceContext.mint("gw-1", 42, parent_span_id=9)
        assert ctx.trace_id == trace_id_for("gw-1", 42)
        assert ctx.parent_span_id == 9
        assert ctx.hop == 0
        assert ctx.sinks == ALL_SINKS

    def test_mint_without_a_sink_is_none(self):
        assert TraceContext.mint("gw-1", 42) is None

    @pytest.mark.parametrize(
        "tracing,events,metrics", list(itertools.product((True, False), repeat=3))
    )
    def test_mint_sinks_are_the_enabled_channels(self, tracing, events, metrics):
        # the sink set is exactly the enabled channels; no sink, no context
        if tracing:
            enable_tracing(Tracer())
        if events:
            enable_events(EventLog())
        if metrics:
            enable_metrics()
        try:
            ctx = TraceContext.mint("gw-1", 42)
        finally:
            disable_tracing()
            disable_events()
            disable_metrics()
        on = {SPANS: tracing, EVENTS: events, METRICS: metrics}
        if not any(on.values()):
            assert ctx is None
            return
        assert ctx.sinks == {sink for sink, enabled in on.items() if enabled}
        assert ctx.trace_id == trace_id_for("gw-1", 42)

    def test_next_hop_increments_and_can_reparent(self):
        ctx = TraceContext(trace_id_for("gw-1", 1), parent_span_id=3)
        resumed = ctx.next_hop()
        assert resumed.hop == 1
        assert resumed.trace_id == ctx.trace_id
        assert resumed.parent_span_id == 3  # kept by default
        again = resumed.next_hop(parent_span_id=17)
        assert again.hop == 2
        assert again.parent_span_id == 17

    def test_wire_roundtrip(self):
        ctx = TraceContext(trace_id="ab" * 16, parent_span_id=5,
                           sinks=frozenset({EVENTS}), hop=2)
        wire = ctx.to_wire()
        assert isinstance(wire, tuple)  # pickles inside ExecutionTask
        assert TraceContext.from_wire(wire) == ctx


# ---------------------------------------------------------------------------
# The slice record: fixed fields, plain data, and the spans built from it
# ---------------------------------------------------------------------------

#: A generous bound on one pickled record (about 210 bytes fully filled).
RECORD_BYTES = 256

MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)

RAW = RawExecution(
    workload_hash=b"\x00" * 32, counter_value=3, peak_memory_bytes=0,
    initial_pages=0, grow_history=(), io_bytes_in=0, io_bytes_out=0,
)


def make_record(**changes) -> SliceRecord:
    """A worker task's record: a fresh call whose lease built the instance
    and captured the warm image."""
    return SliceRecord(
        task_ns=100, lookup_ns=200, setup_ns=300, build_ns=310, built_ns=390,
        run_ns=400, ran_ns=900, end_ns=1000, engine="compile",
        exec_engine="compile", image=True, cache="decode", pid=4242, thread_id=7,
        wall_s=1000.0,
    )._replace(**changes)


_MODULE: list = []


def sum_task(**changes) -> ExecutionTask:
    """A task calling ``total`` of an instrumented MiniC module."""
    from repro.core.sandbox import SandboxConfig, TwoWaySandbox
    from repro.tcrypto.hashing import sha256
    from repro.wasm.binary import encode_module

    if not _MODULE:
        workload = TwoWaySandbox.deploy(SandboxConfig()).submit_minic(MINIC_SUM)
        module_bytes = encode_module(workload.module)
        _MODULE.append(ExecutionTask(
            module_bytes=module_bytes, module_hash=sha256(module_bytes),
            counter_global_index=workload.evidence.counter_global_index,
            export="total", args=(10,),
        ))
    return ExecutionTask(**{**_MODULE[0].__dict__, **changes})


@pytest.fixture
def sinks_on():
    """Every process-wide sink on."""
    tracer = enable_tracing(Tracer())
    log = enable_events(EventLog())
    enable_metrics()
    yield tracer, log
    disable_tracing()
    disable_events()
    disable_metrics()


def probe_counter():
    return Counter("ctx_probe", "a counter no registry holds")


class TestTelemetryCapture:
    """A worker's telemetry capture is its slice record: fixed, plain
    fields, from which the slice table rebuilds the spans."""

    def test_span_nesting_records_parent_links(self, sinks_on):
        tracer, _log = sinks_on
        apply_slice(make_record(), trace_id=CTX.trace_id, export="total", hop=0)
        by_name = {s.name: s for s in tracer.finished()}
        task = by_name["worker.task"]
        assert task.parent_id is None  # no parent given, no span open here
        assert by_name["worker.instantiate"].parent_id == task.span_id
        assert by_name["warmpool.build"].parent_id == by_name["worker.instantiate"].span_id
        assert by_name["worker.invoke"].parent_id == task.span_id
        # each span runs between its boundary's two stamps
        assert (task.start_ns, task.end_ns) == (100, 1000)
        assert (by_name["warmpool.build"].start_ns, by_name["warmpool.build"].end_ns) == (310, 390)
        assert by_name["worker.invoke"].attributes == {
            "export": "total", "exec_engine": "compile", "trace_id": CTX.trace_id,
        }

    def test_spans_ship_in_creation_order(self, sinks_on):
        # an enclosing boundary's span is recorded before what it encloses
        tracer, _log = sinks_on
        apply_slice(make_record(), export="total", hop=0)
        assert [s.name for s in tracer.finished()] == [
            "worker.task", "worker.instantiate", "warmpool.build", "worker.invoke",
        ]

    def test_default_bounds(self):
        # the record's size does not grow with the slice: a long run and a
        # short one ship the same fields and pickle to the same small size
        execute_task(sum_task())  # the module cached, its pool built
        short = execute_task(sum_task(args=(10,))).record
        long = execute_task(sum_task(args=(5000,))).record
        assert len(pickle.dumps(short)) == len(pickle.dumps(long)) <= RECORD_BYTES
        assert SliceRecord._fields == tuple(short._asdict())

    def test_attributes_are_wire_safe(self, sinks_on):
        tracer, _log = sinks_on
        apply_slice(
            SliceRecord(account_ns=5, accounted_ns=9),
            label="total", module_hash=b"\x01\x02", raw=RAW, final=True, delta=(3, 0, 0),
        )
        [account] = tracer.finished()
        assert account.name == "account"
        assert account.attributes == {"label": "total", "module_hash": "0102"}
        json.dumps(account.to_json())

    def test_metric_deltas_keep_kind_and_labels(self, sinks_on):
        registry = get_registry()
        names = ("acctee_snapshots_taken", "acctee_resumes_total",
                 "acctee_warm_pool_hits", "acctee_snapshot_bytes")
        snapshots, resumes, hits, sizes = (registry.get(n) for n in names)
        for metric in (snapshots, resumes, hits, sizes):
            metric.reset()
        apply_slice(make_record(), export="total", hop=0)  # a build of the warm image
        apply_slice(make_record(build_ns=0, built_ns=0, image=False, resume=True,
                                preempted=True, suspend_bytes=700), export="total", hop=1)
        assert snapshots.value(kind="warm") == snapshots.value(kind="suspend") == 1
        assert resumes.total() == hits.total() == 1
        assert (sizes.count(), sizes.sum()) == (1, 700.0)
        for metric in (snapshots, resumes, hits, sizes):
            metric.reset()

    def test_metrics_only_capture_records_no_spans_or_events(self):
        # metrics alone on: the record drives metrics; with tracing and
        # events on instead, nothing reaches the registry
        hits = get_registry().get("acctee_warm_pool_hits")
        hits.reset()
        record = make_record(build_ns=0, built_ns=0)
        enable_metrics()
        try:
            apply_slice(record, export="total", hop=0)
        finally:
            disable_metrics()
        assert hits.total() == 1
        tracer, log = enable_tracing(Tracer()), enable_events(EventLog())
        try:
            apply_slice(record, export="total", hop=0)
        finally:
            disable_tracing()
            disable_events()
        assert hits.total() == 1
        assert tracer.finished() and log.events()
        hits.reset()

    def test_disabled_capture_records_nothing(self, monkeypatch):
        # every sink off: apply_slice returns before it reads a single row
        class Untouchable(dict):
            def items(self):
                raise AssertionError("the table was read with every sink off")

        monkeypatch.setattr(slices, "SLICE", Untouchable())
        apply_slice(make_record(), export="total", hop=0)
        assert get_registry().get("acctee_warm_pool_hits").total() == 0

    def test_to_wire_shape_pickles_as_plain_data(self):
        record = execute_task(sum_task(snapshot_at=100)).record
        assert record.preempted and record.suspend_bytes > 0
        assert pickle.loads(pickle.dumps(record)) == record
        assert all(type(value) in (int, float, str, bool) for value in record)
        json.dumps(list(record))  # nothing exotic crosses the pipe


# ---------------------------------------------------------------------------
# No capture to activate: obs calls reach the process sinks, slices stay apart
# ---------------------------------------------------------------------------


class TestActivation:
    def test_helpers_are_noops_without_a_capture(self):
        # no sink: the obs calls record nowhere
        counter = probe_counter()
        with span("nothing", k=1) as s:
            s.set_attribute("k", 2)
        assert s is NULL_SPAN
        emit("nothing")
        counter.inc()  # none of these raise or record anywhere
        assert counter.total() == 0

    def test_without_a_capture_calls_reach_the_process_sinks(self, sinks_on):
        tracer, log = sinks_on
        counter = probe_counter()
        with span("outside"):
            emit("evt")
            counter.inc()
        assert [s.name for s in tracer.finished()] == ["outside"]
        assert [e.kind for e in log.events()] == ["evt"]
        assert counter.total() == 1

    def test_concurrent_captures_each_keep_only_their_own_calls(self, sinks_on):
        # thread-pool tasks run side by side; each record holds its own
        # thread and its own slice's facts, and so do the spans built from it
        tracer, _log = sinks_on
        tasks = [sum_task(args=(200 + i,), snapshot_at=100 if i % 2 else None)
                 for i in range(8)]
        results, idents = {}, {}
        barrier = threading.Barrier(len(tasks))

        def run(index):
            idents[index] = threading.get_ident()
            barrier.wait(timeout=10)
            results[index] = execute_task(tasks[index])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(tasks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        for index, result in results.items():
            record = result.record
            assert record.thread_id == idents[index]
            assert record.preempted == bool(index % 2)
            if not record.preempted:
                assert result.raw.value == sum(range(200 + index))
            apply_slice(record, trace_id=str(index), export="total", hop=0)
        for s in tracer.finished():
            assert s.thread_id == idents[int(s.attributes["trace_id"])]


# ---------------------------------------------------------------------------
# The gateway-side merge: the slice table applied to a worker's record
# ---------------------------------------------------------------------------


class TestMerge:
    def test_metric_deltas_replay_once_with_their_labels(self, sinks_on):
        registry = get_registry()
        snapshots = registry.get("acctee_snapshots_taken")
        resumes = registry.get("acctee_resumes_total")
        snapshots.reset()
        resumes.reset()
        record = make_record(resume=True, preempted=True, image=False)
        apply_slice(record, export="total", hop=1, gateway="gw-test", request_id=1)
        assert snapshots.value(kind="suspend") == 1
        assert snapshots.total() == 1
        assert resumes.total() == 1
        snapshots.reset()
        resumes.reset()

    def test_events_gain_provenance_and_spans_their_parent(self, sinks_on):
        tracer, log = sinks_on
        parent = tracer.span("gateway.request", detached=True)
        record = make_record(fault="slow", fault_arg=0.25)
        apply_slice(record, parent, trace_id=CTX.trace_id, export="total", hop=0,
                    gateway="gw-test", request_id=7)
        parent.end()
        fault, cache = log.events()
        provenance = {"gateway": "gw-test", "request_id": 7,
                      "trace_id": CTX.trace_id, "origin_pid": 4242}
        assert fault.kind == "fault_performed"
        assert fault.fields == {"fault": "slow", "arg": 0.25, **provenance,
                                "worker_ts_s": 1000.0}
        assert cache.kind == "module_cache"
        # the worker's wall clock at the lookup, from the one wall stamp
        assert cache.fields == {"outcome": "decode", **provenance,
                                "worker_ts_s": 1000.0 + 100 / 1e9}
        [task] = [s for s in tracer.finished() if s.name == "worker.task"]
        assert task.parent_id == parent.span_id
        assert task.pid == 4242 and task.thread_id == 7

    def test_backhaul_bytes_are_the_pickled_capture(self):
        # what crosses the pipe is the pickled record: a few fixed fields,
        # far below the spans, events and metric deltas it stands for
        result = execute_task(sum_task(snapshot_at=100, trace=CTX.to_wire()))
        shipped = pickle.loads(pickle.dumps(result))
        assert shipped.record == result.record
        assert len(pickle.dumps(result.record)) <= RECORD_BYTES


# ---------------------------------------------------------------------------
# Rebuilt spans join the tracer: own ids, worker pids, the given parent
# ---------------------------------------------------------------------------


class TestIngest:
    def test_ids_remapped_and_roots_reparented(self):
        tracer = enable_tracing(Tracer())
        try:
            parent = tracer.span("gateway.request", detached=True)
            for hop in (0, 1):
                apply_slice(make_record(), parent, trace_id=CTX.trace_id,
                            export="total", hop=hop)
            parent.end()
        finally:
            disable_tracing()
        spans = tracer.finished()
        assert len({s.span_id for s in spans}) == len(spans)  # the tracer's ids
        tasks = [s for s in spans if s.name == "worker.task"]
        assert [t.attributes["hop"] for t in tasks] == [0, 1]
        for task in tasks:
            assert task.parent_id == parent.span_id
            children = [s for s in spans if s.parent_id == task.span_id]
            assert {c.name for c in children} == {"worker.instantiate", "worker.invoke"}
        for s in spans:
            if s is not parent:
                assert s.pid == 4242
                assert s.attributes["trace_id"] == CTX.trace_id

    def test_ingest_without_parent_leaves_roots_detached(self):
        tracer = enable_tracing(Tracer())
        try:
            apply_slice(make_record(), export="total", hop=0)
        finally:
            disable_tracing()
        [task] = [s for s in tracer.finished() if s.name == "worker.task"]
        assert task.parent_id is None

    def test_chrome_trace_renders_per_span_pid_with_process_rows(self):
        import os

        tracer = enable_tracing(Tracer())
        try:
            with tracer.span("local"):
                pass
            foreign_pid = os.getpid() + 1000  # simulate a worker process
            apply_slice(make_record(pid=foreign_pid), export="total", hop=0)
        finally:
            disable_tracing()
        doc = tracer.to_chrome_trace()
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        pids = {e["pid"] for e in x_events}
        assert pids == {os.getpid(), foreign_pid}
        names = sorted(e["args"]["name"] for e in meta)
        assert any("gateway" in n for n in names)
        assert any("worker" in n for n in names)

    def test_chrome_trace_single_process_has_no_metadata_rows(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        doc = tracer.to_chrome_trace()
        assert all(e["ph"] != "M" for e in doc["traceEvents"])


# ---------------------------------------------------------------------------
# Histogram exemplars
# ---------------------------------------------------------------------------


class TestExemplars:
    @pytest.fixture(autouse=True)
    def _metrics_on(self):
        enable_metrics()
        yield
        disable_metrics()

    def test_observe_with_exemplar_exposes_it(self):
        h = Histogram("ctx_test_latency_s", "h", buckets=(0.1, 1.0))
        h.observe(0.05, exemplar="aa" * 16, tenant="t")
        h.observe(0.5, exemplar="bb" * 16, tenant="t")
        h.observe(0.07, exemplar="cc" * 16, tenant="t")  # last-write-wins
        assert h.exemplar(0, tenant="t") == ("cc" * 16, 0.07)
        assert h.exemplar(1, tenant="t") == ("bb" * 16, 0.5)
        assert h.exemplar(0, tenant="other") is None
        bucket_lines = [
            line for line in h.samples() if "_bucket" in line and "# {" in line
        ]
        assert any('trace_id="' + "cc" * 16 + '"' in line for line in bucket_lines)
        [series] = h.to_json().values()
        assert series["exemplars"]["0"] == {"trace_id": "cc" * 16, "value": 0.07}
        h.reset()
        assert h.exemplar(0, tenant="t") is None

    def test_overflow_bucket_exemplar_annotates_inf_line(self):
        h = Histogram("ctx_inf_latency_s", "h", buckets=(1.0,))
        h.observe(5.0, exemplar="dd" * 16)
        inf_lines = [line for line in h.samples() if 'le="+Inf"' in line]
        assert len(inf_lines) == 1
        assert 'trace_id="' + "dd" * 16 + '"' in inf_lines[0]

    def test_observe_without_exemplar_adds_no_annotation(self):
        h = Histogram("ctx_plain_latency_s", "h", buckets=(1.0,))
        h.observe(0.5)
        assert all("# {" not in line for line in h.samples())
        [series] = h.to_json().values()
        assert "exemplars" not in series


# ---------------------------------------------------------------------------
# explain_request
# ---------------------------------------------------------------------------


def _event(seq, kind, ts=0.0, **fields):
    return Event(seq=seq, ts_s=ts, kind=kind, fields=fields)


class TestExplainRequest:
    def make_events(self):
        tid = trace_id_for("gw-x", 4)
        return tid, [
            _event(1, "admit", ts=0.0, gateway="gw-x", request_id=4,
                   tenant="alice", trace_id=tid),
            _event(2, "module_cache", ts=0.01, gateway="gw-x", request_id=4,
                   trace_id=tid, origin_pid=1234, outcome="decode"),
            _event(3, "checkpoint", ts=0.05, gateway="gw-x", request_id=4,
                   tenant="alice", checkpoint=1, snapshot_bytes=900, trace_id=tid),
            _event(4, "receipt", ts=0.06, gateway="gw-x", request_id="4#cp1",
                   tenant="alice", sequence=1, trace_id=tid),
            _event(5, "module_cache", ts=0.07, gateway="gw-x", request_id=4,
                   trace_id=tid, origin_pid=1299, outcome="hit"),
            _event(6, "receipt", ts=0.10, gateway="gw-x", request_id=4,
                   tenant="alice", sequence=2, trace_id=tid),
            _event(7, "settled", ts=0.11, gateway="gw-x", request_id=4,
                   tenant="alice", outcome="ok", latency_s=0.11, trace_id=tid),
            _event(8, "seal", ts=0.20, gateway="gw-x", epoch=0, receipts=2),
        ]

    def test_reconstructs_the_full_chain(self):
        tid, events = self.make_events()
        report = explain_request(events, 4)
        assert report["found"] is True
        assert report["gateway"] == "gw-x"
        assert report["trace_id"] == tid
        assert report["checkpoints"] == [1]
        assert [r["request_id"] for r in report["receipts"]] == ["4#cp1", 4]
        assert all(r["trace_id"] == tid for r in report["receipts"])
        assert report["origin_pids"] == [1234, 1299]
        assert report["settled"]["outcome"] == "ok"
        assert report["sealed_epoch"] == 0
        story = "\n".join(report["story"])
        assert "admitted" in story and "preempted" in story
        assert "checkpoint receipt" in story and "final receipt" in story
        assert "epoch 0 sealed" in story

    def test_gateway_filter_excludes_other_gateways(self):
        _tid, events = self.make_events()
        assert explain_request(events, 4, gateway="gw-x")["found"] is True
        assert explain_request(events, 4, gateway="gw-other")["found"] is False

    def test_unknown_request_reports_not_found(self):
        _tid, events = self.make_events()
        report = explain_request(events, 99)
        assert report["found"] is False
        assert "no events found" in report["story"][0]

    def test_rejected_meter_readings_are_one_story_line(self):
        tid = trace_id_for("gw-x", 2)
        events = [
            _event(1, "admit", ts=0.0, gateway="gw-x", request_id=2,
                   tenant="alice", trace_id=tid),
            _event(2, "result_rejected", ts=0.1, gateway="gw-x", request_id=2,
                   tenant="alice", problems=["counter is negative (-5)"],
                   trace_id=tid),
            _event(3, "settled", ts=0.1, gateway="gw-x", request_id=2,
                   tenant="alice", outcome="result-rejected", latency_s=0.1,
                   trace_id=tid),
        ]
        report = explain_request(events, 2)
        [line] = [line for line in report["story"] if "rejected, nothing signed" in line]
        assert line.endswith("counter is negative (-5)")
        assert report["receipts"] == []

    def test_seal_before_final_receipt_is_not_attributed(self):
        tid = trace_id_for("gw-x", 1)
        events = [
            _event(1, "seal", ts=0.0, gateway="gw-x", epoch=0, receipts=3),
            _event(2, "admit", ts=0.1, gateway="gw-x", request_id=1, trace_id=tid),
            _event(3, "receipt", ts=0.2, gateway="gw-x", request_id=1,
                   sequence=1, trace_id=tid),
        ]
        report = explain_request(events, 1)
        assert report["sealed_epoch"] is None  # only a seal *after* counts
