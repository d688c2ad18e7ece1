"""Structured event log: schema, backpressure, persistence, on/off switch."""

import json

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    RESERVED_KEYS,
    SCHEMA_VERSION,
    EventLog,
    disable_events,
    emit,
    enable_events,
    events_enabled,
    get_event_log,
    read_jsonl,
)


@pytest.fixture(autouse=True)
def _events_off():
    disable_events()
    yield
    disable_events()


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


# -- the module-level switch ---------------------------------------------------


def test_disabled_emit_is_a_noop():
    assert not events_enabled()
    assert get_event_log() is None
    emit("admit", tenant="t")  # must not raise, must not record anywhere


def test_enable_disable_roundtrip():
    log = enable_events()
    assert events_enabled()
    assert get_event_log() is log
    emit("admit", tenant="t")
    assert [e.kind for e in log.events()] == ["admit"]
    disable_events()
    assert not events_enabled()
    emit("admit", tenant="t")  # no active log: dropped silently
    assert len(log.events()) == 1


def test_enable_installs_a_provided_log():
    mine = EventLog(capacity=8)
    assert enable_events(mine) is mine
    assert get_event_log() is mine


# -- record shape --------------------------------------------------------------


def test_events_carry_schema_version_and_monotonic_sequence():
    clock = FakeClock(7.5)
    log = EventLog(clock=clock)
    first = log.emit("admit", tenant="t0")
    clock.now = 8.5
    second = log.emit("settled", tenant="t0", outcome="ok")
    assert (first.v, second.v) == (SCHEMA_VERSION, SCHEMA_VERSION)
    assert (first.seq, second.seq) == (1, 2)
    assert (first.ts_s, second.ts_s) == (7.5, 8.5)
    assert second.fields == {"tenant": "t0", "outcome": "ok"}


@pytest.mark.parametrize("reserved", RESERVED_KEYS)
def test_reserved_field_names_are_rejected(reserved):
    log = EventLog()
    # "kind" is also emit's positional parameter, so Python itself refuses it
    # (TypeError); every other reserved name hits the explicit schema guard.
    with pytest.raises((ValueError, TypeError)):
        log.emit("admit", **{reserved: 1})
    assert log.events() == []  # nothing half-recorded


def test_fields_are_coerced_json_safe():
    log = EventLog()
    event = log.emit("receipt", entry_hash=b"\x01\xff", ids=(1, 2), key=object())
    record = event.to_json()
    assert record["entry_hash"] == "01ff"
    assert record["ids"] == [1, 2]
    assert isinstance(record["key"], str)
    json.dumps(record)  # the whole record must serialise


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventLog(capacity=0)


# -- bounded-buffer backpressure -----------------------------------------------


def test_full_buffer_drops_new_events_and_keeps_the_head():
    log = EventLog(capacity=3, clock=FakeClock())
    for i in range(5):
        log.emit("admit", i=i)
    kept = log.events()
    # history head survives; the two *newest* events were refused
    assert [e.fields["i"] for e in kept] == [0, 1, 2]
    assert log.stats() == {"emitted": 5, "buffered": 3, "dropped": 2, "capacity": 3}


def test_clear_resets_counters():
    log = EventLog(capacity=1)
    log.emit("a")
    log.emit("b")
    log.clear()
    assert log.stats() == {"emitted": 0, "buffered": 0, "dropped": 0, "capacity": 1}


# -- JSONL persistence ---------------------------------------------------------


def test_write_read_jsonl_roundtrip(tmp_path):
    log = EventLog(clock=FakeClock(3.0))
    log.emit("admit", tenant="t0", request_id=1)
    log.emit("settled", tenant="t0", outcome="ok", latency_s=0.25)
    path = tmp_path / "events.jsonl"
    meta = log.write_jsonl(str(path))
    assert meta["kind"] == "_meta"
    assert meta["v"] == SCHEMA_VERSION
    assert meta["emitted"] == 2 and meta["dropped"] == 0

    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "_meta"  # header first

    read_meta, events = read_jsonl(str(path))
    assert read_meta == meta
    assert events == log.events()


def test_meta_header_records_drops(tmp_path):
    log = EventLog(capacity=1)
    log.emit("a")
    log.emit("b")
    path = tmp_path / "events.jsonl"
    meta = log.write_jsonl(str(path))
    assert meta["dropped"] == 1
    read_meta, events = read_jsonl(str(path))
    assert read_meta["dropped"] == 1  # the file says it is incomplete
    assert len(events) == 1


def test_read_jsonl_rejects_newer_schema(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps({"v": SCHEMA_VERSION + 1, "kind": "_meta"}) + "\n"
    )
    with pytest.raises(ValueError, match="newer"):
        read_jsonl(str(path))


def test_read_jsonl_tolerates_headerless_files_and_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    record = {"v": 1, "seq": 1, "ts_s": 2.0, "kind": "admit", "tenant": "t"}
    path.write_text("\n" + json.dumps(record) + "\n\n")
    meta, events = read_jsonl(str(path))
    assert meta["v"] == SCHEMA_VERSION
    [event] = events
    assert event.kind == "admit"
    assert event.fields == {"tenant": "t"}


def test_emit_is_thread_safe_under_contention():
    import threading

    log = EventLog(capacity=10_000)

    def worker(base: int) -> None:
        for i in range(200):
            log.emit("admit", i=base + i)

    threads = [threading.Thread(target=worker, args=(t * 200,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = log.events()
    assert len(events) == 800
    # sequence numbers are unique and dense
    assert sorted(e.seq for e in events) == list(range(1, 801))


# -- the kind list -------------------------------------------------------------


def test_every_kind_the_serving_path_emits_is_listed(tmp_path):
    """A chaos loadtest with preemption and batched sealing emits only
    kinds ``EVENT_KINDS`` lists — including the worker's module-cache and
    fault act-out events, which reach the log through the task backhaul."""
    from repro.service.load import run_loadtest

    events_path = tmp_path / "events.jsonl"
    result = run_loadtest(
        worker_counts=(2,), requests=12, pool="thread", backend="wasm",
        kernels=("trisolv",), verify_serial=False,
        faults="crash:5,corrupt:3", fault_seed=1, preempt_after=800,
        seal_window=4, events_out=str(events_path),
    )
    assert result["ok"], result["gates"]
    _meta, events = read_jsonl(str(events_path))
    emitted = {event.kind for event in events}
    assert {"batch_seal", "checkpoint", "fault_performed", "module_cache"} <= emitted
    assert emitted <= set(EVENT_KINDS), emitted - set(EVENT_KINDS)
