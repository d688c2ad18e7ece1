"""Tracing spans: nesting, attributes, exports, and off-by-default no-ops."""

import json
import threading

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def test_disabled_span_is_the_shared_null_span():
    assert not tracing_enabled()
    s = span("anything", tenant="t")
    assert s is NULL_SPAN
    # every operation is a no-op
    with s:
        s.set_attribute("k", "v")
    s.end()


def test_enable_disable_roundtrip():
    tracer = enable_tracing()
    assert tracing_enabled()
    assert get_tracer() is tracer
    disable_tracing()
    assert not tracing_enabled()
    assert get_tracer() is None


def test_span_records_timing_and_attributes():
    tracer = enable_tracing()
    with span("work", tenant="alice", module_hash=b"\x01\x02") as s:
        s.set_attribute("cache", "hit")
    [finished] = tracer.finished()
    assert finished.name == "work"
    assert finished.end_ns is not None and finished.end_ns >= finished.start_ns
    # bytes attributes are hex-encoded for JSON safety
    assert finished.attributes == {
        "tenant": "alice",
        "module_hash": "0102",
        "cache": "hit",
    }


def test_implicit_nesting_within_a_thread():
    tracer = enable_tracing()
    with span("parent") as parent:
        with span("child") as child:
            pass
    spans = {s.name: s for s in tracer.finished()}
    assert spans["child"].parent_id == spans["parent"].span_id
    assert spans["parent"].parent_id is None
    assert child.span_id != parent.span_id


def test_explicit_parent_for_cross_thread_children():
    tracer = enable_tracing()
    root = tracer.span("request", detached=True)

    def settle():
        with span("account", parent=root):
            pass
        root.end()

    worker = threading.Thread(target=settle)
    worker.start()
    worker.join()
    spans = {s.name: s for s in tracer.finished()}
    assert spans["account"].parent_id == spans["request"].span_id
    assert spans["request"].end_ns is not None


def test_detached_span_does_not_pin_the_opening_thread_stack():
    tracer = enable_tracing()
    detached = tracer.span("request", detached=True)
    with span("other") as other:
        pass
    detached.end()
    spans = {s.name: s for s in tracer.finished()}
    # "other" must NOT have nested under the detached request span
    assert spans["other"].parent_id is None
    assert other.span_id != detached.span_id


def test_end_is_idempotent():
    tracer = enable_tracing()
    s = span("once")
    s.end()
    first_end = s.end_ns
    s.end()
    assert s.end_ns == first_end
    assert len(tracer.finished()) == 1


def test_error_pops_abandoned_children():
    tracer = enable_tracing()
    with pytest.raises(RuntimeError):
        with span("outer"):
            span("abandoned")  # never closed before the error unwinds
            raise RuntimeError("boom")
    # outer finished; the tracer's thread stack must be clean again
    with span("next"):
        pass
    spans = {s.name: s for s in tracer.finished()}
    assert spans["next"].parent_id is None


def test_chrome_trace_export_shape():
    tracer = enable_tracing()
    with span("phase", tenant="t0"):
        pass
    doc = tracer.to_chrome_trace()
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    [event] = doc["traceEvents"]
    assert event["ph"] == "X"
    assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
    assert event["args"]["tenant"] == "t0"
    # must round-trip as JSON (Perfetto ingests this file verbatim)
    json.loads(json.dumps(doc))


def test_write_chrome_trace(tmp_path):
    tracer = enable_tracing()
    with span("io"):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "io"


def test_clear_and_json_export():
    tracer = enable_tracing()
    with span("a"):
        pass
    assert [s["name"] for s in tracer.to_json()] == ["a"]
    tracer.clear()
    assert tracer.to_json() == []


def test_independent_tracer_instances_do_not_share_spans():
    t1, t2 = Tracer(), Tracer()
    with t1.span("one"):
        pass
    assert [s.name for s in t1.finished()] == ["one"]
    assert t2.finished() == []


# -- collector shutdown: open detached spans flush as truncated ----------------


def test_disable_tracing_flushes_open_detached_spans_as_truncated():
    tracer = enable_tracing()
    request = tracer.span("gateway.request", detached=True, tenant="t0")
    disable_tracing()  # collector closes before the settling callback ran
    [flushed] = tracer.finished()
    assert flushed is request
    assert flushed.attributes["truncated"] is True
    assert flushed.attributes["tenant"] == "t0"
    assert flushed.end_ns is not None and flushed.end_ns >= flushed.start_ns


def test_flush_leaves_attached_spans_to_their_owners():
    tracer = enable_tracing()
    attached = tracer.span("still.running")
    detached = tracer.span("request", detached=True)
    flushed = tracer.flush_truncated()
    assert flushed == [detached]
    # the attached span is still open and its owner can finish it normally
    assert attached.end_ns is None
    attached.end()
    names = {s.name: s for s in tracer.finished()}
    assert set(names) == {"request", "still.running"}
    assert "truncated" not in names["still.running"].attributes


def test_end_after_flush_does_not_double_record():
    tracer = enable_tracing()
    detached = tracer.span("request", detached=True)
    tracer.flush_truncated()
    first_end = detached.end_ns
    detached.end()  # the settling thread races the shutdown flush and loses
    assert detached.end_ns == first_end
    assert len(tracer.finished()) == 1


def test_truncated_spans_survive_into_the_chrome_export():
    tracer = enable_tracing()
    tracer.span("request", detached=True)
    disable_tracing()
    [event] = tracer.to_chrome_trace()["traceEvents"]
    assert event["args"]["truncated"] is True


def test_flush_with_nothing_open_is_a_noop():
    tracer = enable_tracing()
    with span("done"):
        pass
    assert tracer.flush_truncated() == []
    assert len(tracer.finished()) == 1


def test_sandbox_trace_shows_run_slice_spans_under_execute():
    """The serial enclave path runs under no capture, so ``run_slice``'s
    spans land on the tracer, under the AE's ``execute`` span — the same
    span set a gateway worker ships home."""
    from repro.core.sandbox import SandboxConfig, TwoWaySandbox

    tracer = enable_tracing(Tracer())
    sandbox = TwoWaySandbox.deploy(SandboxConfig())
    workload = sandbox.submit_minic(
        "int f(int n) { int t; int i; t = 0; "
        "for (i = 0; i < n; i = i + 1) { t = t + i; } return t; }"
    )
    workload.invoke("f", 10)
    spans = tracer.finished()
    [execute] = [s for s in spans if s.name == "execute"]
    children = {s.name: s for s in spans if s.parent_id == execute.span_id}
    assert set(children) == {"worker.instantiate", "worker.invoke"}
    # the enclave's first slice builds the instance its pool then leases
    [build] = [s for s in spans if s.name == "warmpool.build"]
    assert build.parent_id == children["worker.instantiate"].span_id
    assert children["worker.invoke"].attributes["export"] == "f"
