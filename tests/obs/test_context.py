"""Trace context, worker telemetry capture, and the cross-process merge.

Unit coverage for :mod:`repro.obs.context`: deterministic trace identity
and the sink set minted with it, the bounded worker-side
capture as the ordinary obs calls reach it (wire format, drop counting, the
sink set each channel is checked against, thread-local activation), the
gateway-side merge, the tracer's foreign-span ingest, the per-span pid in
the Chrome export, histogram exemplars, and the ``explain_request`` event
reconstruction.
"""

import itertools
import json
import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.obs import context
from repro.obs.context import (
    ALL_SINKS,
    EVENTS,
    METRICS,
    SPANS,
    TelemetryCapture,
    TraceContext,
    activate,
    current_capture,
    explain_request,
    merge_telemetry,
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
# TelemetryCapture: recording through the ordinary obs calls, bounds, wire
# ---------------------------------------------------------------------------


@pytest.fixture
def sinks_on():
    """Every process-wide sink on, so a test can show a capture keeps the
    obs calls made under it out of them."""
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
    def test_span_nesting_records_parent_links(self):
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("outer") as outer:
                outer.set_attribute("k", "v")
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        spans = capture.to_wire()["spans"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["sibling"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"k": "v"}
        for record in spans:
            assert record["end_ns"] >= record["start_ns"]

    def test_spans_ship_in_creation_order(self):
        # the tracer keeps finish order (inner first); ingest needs parents
        # before children
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("outer"):
                with span("inner"):
                    pass
        assert [s["name"] for s in capture.to_wire()["spans"]] == ["outer", "inner"]

    def test_span_bound_counts_drops_instead_of_growing(self, monkeypatch):
        monkeypatch.setattr(context, "MAX_SPANS", 2)
        capture = TelemetryCapture(CTX)
        with activate(capture):
            for i in range(5):
                with span(f"s{i}") as s:
                    s.set_attribute("i", i)  # safe even on a dropped span
        wire = capture.to_wire()
        assert [s["name"] for s in wire["spans"]] == ["s0", "s1"]
        assert wire["spans_dropped"] == 3

    def test_event_bound_counts_drops(self, monkeypatch):
        monkeypatch.setattr(context, "MAX_EVENTS", 3)
        capture = TelemetryCapture(CTX)
        with activate(capture):
            for i in range(5):
                emit("k", i=i)
        assert len(capture.events) == 3
        assert capture.events_dropped == 2

    def test_default_bounds(self):
        assert context.MAX_SPANS == context.MAX_EVENTS == 256
        capture = TelemetryCapture(CTX)
        with activate(capture):
            for i in range(context.MAX_SPANS + 1):
                with span(f"s{i}"):
                    emit("k", i=i)
        wire = capture.to_wire()
        assert len(wire["spans"]) == len(wire["events"]) == 256
        assert wire["spans_dropped"] == wire["events_dropped"] == 1

    def test_attributes_are_wire_safe(self):
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("s", blob=b"\x01\x02", n=3, f=1.5, flag=True, none=None):
                pass
            emit("e", blob=b"\xff", obj=object(), seq=(1, b"\x02"))
        attrs = capture.to_wire()["spans"][0]["attrs"]
        assert attrs["blob"] == "0102"  # bytes hex-encode
        assert attrs["n"] == 3 and attrs["f"] == 1.5 and attrs["flag"] is True
        assert attrs["none"] is None
        fields = capture.events[0]["fields"]
        assert fields["blob"] == "ff"
        assert isinstance(fields["obj"], str)  # arbitrary objects stringify
        assert fields["seq"] == [1, "02"]  # sequences map element-wise

    def test_metric_deltas_keep_kind_and_labels(self):
        # a ``kind`` label is a label, not the metric type
        capture = TelemetryCapture(CTX)
        histogram = Histogram("ctx_probe_bytes", "h", buckets=(1.0,))
        with activate(capture):
            probe_counter().inc(kind="suspend")
            histogram.observe(512.0, b="2", a="1")
        assert capture.metrics == [
            ("ctx_probe", "counter", 1.0, {"kind": "suspend"}),
            ("ctx_probe_bytes", "histogram", 512.0, {"a": "1", "b": "2"}),
        ]

    def test_metrics_only_capture_records_no_spans_or_events(self, sinks_on):
        # metrics alone on: the sink set is {metrics}
        tracer, log = sinks_on
        capture = TelemetryCapture(replace(CTX, sinks=frozenset({METRICS})))
        counter = probe_counter()
        with activate(capture):
            with span("s"):
                emit("e")
            counter.inc(2)
        wire = capture.to_wire()
        assert wire["spans"] == [] and wire["events"] == []
        assert wire["metrics"] == [["ctx_probe", "counter", 2.0, {}]]
        # nothing fell through to the process-wide sinks either
        assert tracer.finished() == [] and log.events() == []
        assert counter.total() == 0

    def test_disabled_capture_records_nothing(self, sinks_on):
        # a task without a context gets the empty sink set
        tracer, log = sinks_on
        counter = probe_counter()
        for ctx in (None, replace(CTX, sinks=frozenset())):
            capture = TelemetryCapture(ctx)
            assert capture.sinks == frozenset()
            with activate(capture):
                with span("s") as s:
                    s.set_attribute("k", 1)
                emit("e")
                counter.inc()
            assert capture.to_wire() is None
        assert tracer.finished() == [] and log.events() == []
        assert counter.total() == 0

    def test_to_wire_closes_open_spans_as_truncated(self):
        capture = TelemetryCapture(CTX)
        with activate(capture):
            left_open = span("left_open")  # e.g. a fault unwound past the exit
        wire = capture.to_wire()
        [record] = wire["spans"]
        assert record["end_ns"] >= record["start_ns"]
        assert record["attrs"]["truncated"] is True
        # the capture itself is untouched — to_wire copies
        assert left_open.end_ns is None
        assert "truncated" not in left_open.attributes

    def test_to_wire_shape_pickles_as_plain_data(self):
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("s"):
                emit("e", x=1)
            probe_counter().inc(2.0)
        wire = capture.to_wire()
        assert wire["trace_id"] == CTX.trace_id
        assert wire["hop"] == CTX.hop
        assert wire["pid"] == capture.pid
        assert wire["spans_dropped"] == 0 and wire["events_dropped"] == 0
        json.dumps(wire)  # nothing exotic survives into the wire format
        assert pickle.loads(pickle.dumps(wire)) == wire


# ---------------------------------------------------------------------------
# Thread-local activation: the obs calls route to the capture
# ---------------------------------------------------------------------------


class TestActivation:
    def test_helpers_are_noops_without_a_capture(self):
        # no capture, no sink: the obs calls behave as they always did
        assert current_capture() is None
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

    def test_activate_installs_and_restores(self, sinks_on):
        tracer, log = sinks_on
        capture = TelemetryCapture(CTX)
        counter = probe_counter()
        with activate(capture):
            assert current_capture() is capture
            with span("inside", k="v"):
                pass
            emit("evt", a=1)
            counter.inc(3.0)
        assert current_capture() is None
        assert [s["name"] for s in capture.to_wire()["spans"]] == ["inside"]
        assert [e["kind"] for e in capture.events] == ["evt"]
        assert capture.metrics == [("ctx_probe", "counter", 3.0, {})]
        # recorded into the capture and nowhere else
        assert tracer.finished() == [] and log.events() == []
        assert counter.total() == 0

    def test_activation_is_thread_local(self, sinks_on):
        _tracer, log = sinks_on
        mine = TelemetryCapture(CTX)
        seen = {}

        def other_thread():
            seen["capture"] = current_capture()
            emit("from_other")  # must not leak into `mine`

        with activate(mine):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen["capture"] is None
        assert mine.events == []
        assert [e.kind for e in log.events()] == ["from_other"]

    def test_concurrent_captures_each_keep_only_their_own_calls(self, sinks_on):
        tracer, log = sinks_on
        counter = probe_counter()
        captures = [TelemetryCapture(CTX) for _ in range(8)]
        barrier = threading.Barrier(len(captures))

        def run(index, capture):
            with activate(capture):
                barrier.wait(timeout=10)
                for _ in range(200):
                    with span("s", owner=index):
                        emit("e", owner=index)
                    counter.inc(owner=index)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(i, c)) for i, c in enumerate(captures)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        for index, capture in enumerate(captures):
            wire = capture.to_wire()
            assert len(wire["spans"]) == len(wire["events"]) == len(wire["metrics"]) == 200
            assert {s["attrs"]["owner"] for s in wire["spans"]} == {index}
            assert {e["fields"]["owner"] for e in wire["events"]} == {index}
            assert {m[3]["owner"] for m in wire["metrics"]} == {index}
        assert tracer.finished() == [] and log.events() == []
        assert counter.total() == 0

    def test_nested_activation_restores_previous(self):
        outer = TelemetryCapture(CTX)
        inner = TelemetryCapture(CTX)
        with activate(outer):
            with activate(inner):
                assert current_capture() is inner
                emit("to_inner")
            assert current_capture() is outer
        assert [e["kind"] for e in inner.events] == ["to_inner"]
        assert outer.events == []


# ---------------------------------------------------------------------------
# merge_telemetry: the gateway-side replay
# ---------------------------------------------------------------------------


class TestMerge:
    def test_metric_deltas_replay_once_with_their_labels(self, sinks_on):
        registry = get_registry()
        snapshots = registry.get("acctee_snapshots_taken")
        resumes = registry.get("acctee_resumes_total")
        snapshots.reset()
        resumes.reset()
        capture = TelemetryCapture(CTX)
        with activate(capture):
            snapshots.inc(kind="suspend")
            resumes.inc()
        assert snapshots.total() == 0  # nothing landed before the merge
        merge_telemetry(capture.to_wire(), gateway="gw-test", request_id=1)
        assert snapshots.value(kind="suspend") == 1
        assert snapshots.total() == 1
        assert resumes.total() == 1
        snapshots.reset()
        resumes.reset()

    def test_events_gain_provenance_and_spans_their_parent(self, sinks_on):
        tracer, log = sinks_on
        parent = tracer.span("gateway.request", detached=True)
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("worker.task"):
                emit("module_cache", outcome="hit", request_id="spoofed")
        merge_telemetry(capture.to_wire(), parent, gateway="gw-test", request_id=7)
        parent.end()
        [event] = log.events()
        assert event.fields == {
            "outcome": "hit",
            "gateway": "gw-test",
            "request_id": 7,  # the gateway's identity wins
            "trace_id": CTX.trace_id,
            "origin_pid": capture.pid,
            "worker_ts_s": capture.events[0]["ts_s"],
        }
        [task] = [s for s in tracer.finished() if s.name == "worker.task"]
        assert task.parent_id == parent.span_id

    def test_backhaul_bytes_observed_only_with_metrics_on(self):
        histogram = get_registry().get("acctee_trace_backhaul_bytes")
        histogram.reset()
        capture = TelemetryCapture(CTX)
        with activate(capture):
            emit("e")
        wire = capture.to_wire()
        merge_telemetry(wire)
        enable_metrics()
        try:
            merge_telemetry(wire)
        finally:
            disable_metrics()
        assert histogram.count() == 1
        histogram.reset()

    def test_backhaul_bytes_are_the_pickled_capture(self):
        # the observed size is what the capture costs on the pipe, not a
        # re-encoding of it (JSON ran about half again larger)
        histogram = get_registry().get("acctee_trace_backhaul_bytes")
        histogram.reset()
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("worker.task", hop=0):
                emit("module_cache", outcome="hit")
                get_registry().get("acctee_resumes_total").inc()
        shipped = pickle.loads(pickle.dumps(capture.to_wire()))
        enable_metrics()
        try:
            merge_telemetry(shipped)
        finally:
            disable_metrics()
        assert histogram.count() == 1
        assert histogram.sum() == len(pickle.dumps(shipped))
        assert histogram.sum() < len(json.dumps(shipped, default=str))
        histogram.reset()


# ---------------------------------------------------------------------------
# Tracer.ingest: the gateway-side merge
# ---------------------------------------------------------------------------


class TestIngest:
    def make_wire_spans(self):
        capture = TelemetryCapture(CTX)
        with activate(capture):
            with span("worker.task", hop=0):
                with span("worker.invoke"):
                    pass
        return capture.to_wire()

    def test_ids_remapped_and_roots_reparented(self):
        tracer = Tracer()
        parent = tracer.span("gateway.request", detached=True)
        wire = self.make_wire_spans()
        merged = tracer.ingest(wire["spans"], parent=parent, pid=wire["pid"],
                               trace_id=CTX.trace_id)
        parent.end()
        by_name = {s.name: s for s in merged}
        task, invoke = by_name["worker.task"], by_name["worker.invoke"]
        assert task.parent_id == parent.span_id  # capture root hangs under parent
        assert invoke.parent_id == task.span_id  # intra-capture link preserved
        assert task.span_id != wire["spans"][0]["id"]  # remapped into tracer space
        assert task.pid == wire["pid"] and invoke.pid == wire["pid"]
        assert task.attributes["trace_id"] == CTX.trace_id
        assert task.attributes["hop"] == 0  # original attrs survive

    def test_ingest_without_parent_leaves_roots_detached(self):
        tracer = Tracer()
        wire = self.make_wire_spans()
        merged = tracer.ingest(wire["spans"], pid=wire["pid"])
        assert merged[0].parent_id is None

    def test_chrome_trace_renders_per_span_pid_with_process_rows(self):
        import os

        tracer = Tracer()
        with tracer.span("local"):
            pass
        wire = self.make_wire_spans()
        foreign_pid = os.getpid() + 1000  # simulate a worker process
        for record in wire["spans"]:
            record.pop("pid", None)
        tracer.ingest(wire["spans"], pid=foreign_pid)
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
