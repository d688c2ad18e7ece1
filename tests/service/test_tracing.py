"""Distributed tracing through the gateway: propagation, backhaul, stitching.

The acceptance-critical properties from the tracing issue:

* a request preempted across several worker dispatches renders as **one**
  connected trace — every span carrying its trace id walks parent links to
  the single ``gateway.request`` root, across all ``#cpN`` hops;
* every AE receipt the request produced (checkpoint and final) carries the
  recomputable trace id, as do its ledger events;
* worker events merged into the gateway's stream keep strictly monotonic
  sequence numbers and gain ``origin_pid`` provenance;
* with tracing off, requests still carry provenance on receipts and
  events, and every worker metric reaches the gateway registry exactly
  once, with its labels, on either pool kind;
* a worker ships home one fixed slice record whatever the sinks, and the
  gateway applies it only to the sinks it has: spans only with tracing
  on, events only with events on, metrics only with metrics on;
* the whole apparatus is inert when off: signed totals stay byte-identical
  with tracing+events enabled vs disabled, on every engine.
"""

import itertools
import json
import os
import pickle
from dataclasses import replace

import pytest

import repro.service.gateway as gateway_module
from repro.core.sandbox import SandboxConfig
from repro.core.slices import SliceRecord, apply_slice
from repro.obs.context import ALL_SINKS, trace_id_for
from repro.obs.events import EventLog, disable_events, enable_events
from repro.obs.metrics import disable_metrics, enable_metrics, get_registry
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.service import MeteringGateway
from repro.service.load import (
    _request_schedule,
    _stitch_report,
    polybench_tenant_mix,
    run_loadtest,
)
from repro.service.worker import ExecutionTask, execute_task

MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)


@pytest.fixture(autouse=True)
def _obs_off():
    disable_tracing()
    disable_events()
    disable_metrics()
    yield
    disable_tracing()
    disable_events()
    disable_metrics()
    get_registry().reset()


def traced_gateway(**kwargs):
    tracer = enable_tracing(Tracer())
    log = enable_events(EventLog())
    gw = MeteringGateway(workers=2, pool="thread", **kwargs)
    return gw, tracer, log


class TestStitchedTrace:
    def test_preempted_request_is_one_connected_trace(self):
        gw, tracer, _log = traced_gateway(preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            responses = [gw.execute("alice", "total", 40) for _ in range(3)]
            assert gw.resilience_stats()["preemptions"] > 0
            report = _stitch_report(gw, tracer, responses)
        finally:
            gw.shutdown()
        assert report["ok"], report
        assert report["stitched"] == 3
        assert report["unlinked_receipts"] == 0
        # thread pool: worker spans share the gateway pid, so no foreign rows
        assert report["worker_pids"] == []

    def test_worker_spans_cover_every_hop(self):
        gw, tracer, _log = traced_gateway(preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 40)
            checkpoints = gw.resilience_stats()["preemptions"]
            tid = trace_id_for(gw.gateway_id, response.request_id)
        finally:
            gw.shutdown()
        assert checkpoints > 0
        spans = [
            s for s in tracer.finished() if s.attributes.get("trace_id") == tid
        ]
        tasks = [s for s in spans if s.name == "worker.task"]
        hops = sorted(s.attributes["hop"] for s in tasks)
        # hop 0 is the fresh dispatch; each checkpoint re-dispatch adds one
        assert hops == list(range(checkpoints + 1))
        # the resumed hops restored a snapshot; the first did not
        resumes = [s for s in spans if s.name == "worker.restore"]
        assert len(resumes) == checkpoints
        # checkpoint signing got its own gateway-side span under the root
        assert sum(s.name == "gateway.checkpoint" for s in spans) == checkpoints

    def test_receipts_carry_recomputable_trace_id(self):
        gw, _tracer, _log = traced_gateway(preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 40)
            tid = trace_id_for(gw.gateway_id, response.request_id)
            receipts = gw.ledger.receipts("alice")
        finally:
            gw.shutdown()
        checkpoint_ids = [
            r.request_id for r in receipts if isinstance(r.request_id, str)
        ]
        assert checkpoint_ids  # the run really was preempted
        assert all(r.trace_id == tid for r in receipts), [
            (r.request_id, r.trace_id) for r in receipts
        ]

    def test_trace_id_not_in_signed_receipt_body(self):
        """Provenance rides outside the signature: the signed entry's JSON
        never mentions the trace id, so obs-on/off signatures stay equal."""
        gw, _tracer, _log = traced_gateway()
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 10)
            tid = trace_id_for(gw.gateway_id, response.request_id)
            [receipt] = gw.ledger.receipts("alice")
        finally:
            gw.shutdown()
        assert receipt.trace_id == tid
        assert tid.encode() not in receipt.entry.body()


class TestEventBackhaul:
    def test_merged_stream_keeps_strictly_monotonic_seq(self):
        gw, _tracer, log = traced_gateway(preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            for _ in range(3):
                gw.execute("alice", "total", 40)
            gw.seal_epoch()
        finally:
            gw.shutdown()
        events = log.events()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # no collisions after the merge

    def test_backhauled_worker_events_gain_provenance_fields(self):
        gw, _tracer, log = traced_gateway()
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 10)
            tid = trace_id_for(gw.gateway_id, response.request_id)
        finally:
            gw.shutdown()
        cache_events = [e for e in log.events() if e.kind == "module_cache"]
        assert cache_events  # the worker decoded (or hit) the module
        for event in cache_events:
            assert event.fields["origin_pid"] == os.getpid()  # thread pool
            assert event.fields["trace_id"] == tid
            assert event.fields["gateway"] == gw.gateway_id
            assert event.fields["request_id"] == response.request_id
            assert "worker_ts_s" in event.fields

    def test_request_lifecycle_events_carry_trace_id(self):
        gw, _tracer, log = traced_gateway(preempt_after=150)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 40)
            tid = trace_id_for(gw.gateway_id, response.request_id)
        finally:
            gw.shutdown()
        for kind in ("admit", "checkpoint", "receipt", "settled"):
            matching = [e for e in log.events() if e.kind == kind]
            assert matching, kind
            assert all(e.fields.get("trace_id") == tid for e in matching), kind


class TestSinkSets:
    def test_events_only_requests_keep_receipt_provenance(self):
        # tracing off, events on: no span is recorded anywhere, yet the
        # trace identity flows onto receipts and gateway and worker events
        log = enable_events(EventLog())
        gw = MeteringGateway(workers=2, pool="thread")
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            responses = [gw.execute("alice", "total", 10) for _ in range(2)]
            tids = {
                r.request_id: trace_id_for(gw.gateway_id, r.request_id)
                for r in responses
            }
            receipts = gw.ledger.receipts("alice")
        finally:
            gw.shutdown()
        assert receipts
        assert all(r.trace_id == tids[_final_id(r.request_id)] for r in receipts)
        admits = [e for e in log.events() if e.kind == "admit"]
        assert sorted(e.fields["trace_id"] for e in admits) == sorted(tids.values())
        cache_events = [e for e in log.events() if e.kind == "module_cache"]
        assert cache_events
        assert {e.fields["trace_id"] for e in cache_events} <= set(tids.values())

    def test_obs_off_mints_no_context(self):
        # neither tracing nor events enabled: the task wire format never
        # grows a trace tuple and nothing is backhauled
        gw = MeteringGateway(workers=1, pool="thread")
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            response = gw.execute("alice", "total", 10)
            [receipt] = gw.ledger.receipts("alice")
        finally:
            gw.shutdown()
        assert response.result.value == sum(range(10))
        assert receipt.trace_id is None


def _final_id(request_id):
    if isinstance(request_id, str):
        return int(request_id.partition("#cp")[0])
    return request_id


class TestWorkerTaskGating:
    """A worker records one fixed slice record whatever the sinks; what
    becomes telemetry is decided where the record is applied."""

    def make_task(self, trace=None):
        from repro.core.sandbox import TwoWaySandbox
        from repro.tcrypto.hashing import sha256
        from repro.wasm.binary import encode_module

        sandbox = TwoWaySandbox.deploy(SandboxConfig())
        workload = sandbox.submit_minic(MINIC_SUM)
        module_bytes = encode_module(workload.module)
        return ExecutionTask(
            module_bytes=module_bytes,
            module_hash=sha256(module_bytes),
            counter_global_index=workload.evidence.counter_global_index,
            export="total",
            args=(10,),
            trace=trace,
        )

    def test_untraced_task_returns_no_telemetry(self):
        # traced or not, with any sink combination on in the worker's
        # process: the same record, of the same small pickled size
        task = self.make_task()
        execute_task(task)  # the module cached, its pool built
        records = []
        for tracing, events, metrics in itertools.product((True, False), repeat=3):
            if tracing:
                enable_tracing(Tracer())
            if events:
                enable_events(EventLog())
            if metrics:
                enable_metrics()
            try:
                trace = (trace_id_for("gw-t", 1), 7, ALL_SINKS, 2) if tracing else None
                records.append(execute_task(replace(task, trace=trace)).record)
            finally:
                disable_tracing()
                disable_events()
                disable_metrics()
        stamps = [f for f in SliceRecord._fields if f.endswith("_ns")] + ["wall_s"]
        facts = {r._replace(**dict.fromkeys(stamps, 0)) for r in records}
        assert len(facts) == 1
        sizes = {len(pickle.dumps(r)) for r in records}
        assert len(sizes) == 1 and sizes.pop() <= 256

    def test_traced_task_backhauls_capture(self):
        tid = trace_id_for("gw-t", 1)
        result = execute_task(self.make_task(trace=(tid, 7, ALL_SINKS, 2)))
        record = result.record
        assert record.pid == os.getpid()
        # the record pickles as plain data (process-pool wire format)
        json.dumps(list(record))
        tracer = enable_tracing(Tracer())
        try:
            apply_slice(record, trace_id=tid, export="total", hop=2)
        finally:
            disable_tracing()
        spans = tracer.finished()
        names = [s.name for s in spans]
        assert names[0] == "worker.task"
        assert "worker.instantiate" in names and "worker.invoke" in names
        root = spans[0]
        assert root.attributes["hop"] == 2
        assert root.attributes["preempted"] is False
        assert all(s.attributes["trace_id"] == tid for s in spans)


class TestDifferentialAcrossEngines:
    """Propagation enabled vs everything off: billing must not move."""

    @pytest.mark.parametrize("engine", ("predecode", "compile"))
    def test_totals_byte_identical_with_tracing_on(self, engine):
        mix = polybench_tenant_mix(("trisolv",))
        schedule = _request_schedule(mix, 3)
        config = SandboxConfig(engine=engine)

        def run_totals() -> bytes:
            with MeteringGateway(workers=2, pool="thread", config=config) as gw:
                for tenant_id, module, _run in mix:
                    gw.register_tenant(tenant_id, module=module.clone())
                vectors = [
                    gw.submit(tenant_id, export, *args)
                    .result()
                    .result.vector.to_json()
                    for tenant_id, export, args in schedule
                ]
                totals = gw.totals().to_json()
                assert gw.verify_epoch(gw.seal_epoch()).ok
            return json.dumps([totals, vectors], sort_keys=True).encode()

        baseline = run_totals()
        enable_tracing()
        enable_events()
        enable_metrics()
        observed = run_totals()
        assert observed == baseline

    def test_preempted_totals_identical_with_tracing_on(self):
        def run_totals() -> bytes:
            gw = MeteringGateway(workers=2, pool="thread", preempt_after=150)
            try:
                gw.register_tenant("alice", minic=MINIC_SUM)
                for _ in range(3):
                    gw.execute("alice", "total", 40)
                assert gw.verify_epoch(gw.seal_epoch()).ok
                return json.dumps(gw.totals("alice").to_json(), sort_keys=True).encode()
            finally:
                gw.shutdown()

        baseline = run_totals()
        enable_tracing()
        enable_events()
        enable_metrics()
        observed = run_totals()
        assert observed == baseline


class TestProcessPoolBackhaul:
    def test_worker_pids_distinct_and_metrics_replayed(self):
        tracer = enable_tracing(Tracer())
        enable_events(EventLog())
        enable_metrics()
        gw = MeteringGateway(workers=2, pool="process", preempt_after=150)
        try:
            if gw.backend.kind != "wasm-process":
                pytest.skip("process pool unavailable in this environment")
            gw.register_tenant("alice", minic=MINIC_SUM)
            responses = [gw.execute("alice", "total", 40) for _ in range(2)]
            assert gw.resilience_stats()["preemptions"] > 0
            report = _stitch_report(gw, tracer, responses)
            # worker-process metric deltas (snapshot capture) replayed into
            # the gateway's registry, where direct .inc() never landed
            snapshots = get_registry().get("acctee_snapshots_taken")
            replayed = snapshots.value(kind="suspend")
        finally:
            gw.shutdown()
        assert report["ok"], report
        assert report["worker_pids"], "process-pool spans must keep worker pids"
        assert os.getpid() not in report["worker_pids"]
        assert replayed > 0


class TestWorkerMetricsCountedOnce:
    """Every worker metric reaches the gateway registry exactly once, with
    its labels, whatever the pool kind and whichever sinks are on."""

    @pytest.mark.parametrize("pool", ("thread", "process"))
    @pytest.mark.parametrize(
        "mode", ("metrics", "metrics+tracing")
    )
    def test_suspend_resume_and_warm_hits(self, pool, mode):
        get_registry().reset()
        enable_metrics()
        if mode != "metrics":
            enable_tracing(Tracer())
        gw = MeteringGateway(workers=1, pool=pool, preempt_after=150)
        try:
            if pool == "process" and gw.backend.kind != "wasm-process":
                pytest.skip("process pool unavailable in this environment")
            gw.register_tenant("alice", minic=MINIC_SUM)
            for _ in range(3):
                gw.execute("alice", "total", 40)
            preemptions = gw.resilience_stats()["preemptions"]
        finally:
            gw.shutdown()
        registry = get_registry()
        assert preemptions > 0
        assert registry.get("acctee_snapshots_taken").value(kind="suspend") == preemptions
        assert registry.get("acctee_resumes_total").total() == preemptions
        assert registry.get("acctee_snapshot_bytes").count() == preemptions
        assert registry.get("acctee_warm_pool_hits").total() > 0


class TestShipmentPerSink:
    """Every hop ships one fixed record, and nothing reaches a sink that is
    off."""

    @pytest.mark.parametrize("pool", ("thread", "process"))
    @pytest.mark.parametrize(
        "tracing,events,metrics",
        [
            pytest.param(*on, id="+".join(
                name for name, o in zip(("tracing", "events", "metrics"), on) if o
            ))
            for on in itertools.product((True, False), repeat=3)
            if any(on)
        ],
    )
    def test_shipment_holds_only_what_a_sink_keeps(
        self, monkeypatch, pool, tracing, events, metrics
    ):
        tracer = enable_tracing(Tracer()) if tracing else None
        log = enable_events(EventLog()) if events else None
        if metrics:
            enable_metrics()
        shipped = []
        merge = gateway_module.apply_slice

        def spy(record, *args, **kwargs):
            shipped.append(record)
            return merge(record, *args, **kwargs)

        monkeypatch.setattr(gateway_module, "apply_slice", spy)
        resumes = get_registry().get("acctee_resumes_total")
        resumed_before = resumes.total()
        [(tenant, module, (export, args))] = polybench_tenant_mix(("atax",))
        gw = MeteringGateway(workers=1, pool=pool, preempt_after=2000)
        try:
            if pool == "process" and gw.backend.kind != "wasm-process":
                pytest.skip("process pool unavailable in this environment")
            gw.register_tenant(tenant, module=module)
            for _ in range(2):
                gw.execute(tenant, export, *args)
            hops = 2 + gw.resilience_stats()["preemptions"]
        finally:
            gw.shutdown()
        assert hops > 2  # the requests really were preempted
        assert len(shipped) == hops  # one record per hop, whatever the sinks
        assert all(r.task_ns and len(pickle.dumps(r)) <= 256 for r in shipped)
        if tracing:
            tasks = [s for s in tracer.finished() if s.name == "worker.task"]
            assert len(tasks) == hops
        if events:
            caches = [e for e in log.events() if e.kind == "module_cache"]
            assert len(caches) == hops
        resumed = resumes.total() - resumed_before
        assert resumed == (hops - 2 if metrics else 0)


class TestLoadtestStitchGate:
    def test_loadtest_reports_stitch_and_writes_perfetto(self, tmp_path):
        trace_out = str(tmp_path / "trace.json")
        events_out = str(tmp_path / "events.jsonl")
        result = run_loadtest(
            worker_counts=(2,),
            requests=4,
            pool="thread",
            kernels=("trisolv",),
            quota_probe=False,
            preempt_after=400,
            trace_out=trace_out,
            events_out=events_out,
        )
        point = result["sweep"][0]
        assert point["preemption"]["preemptions"] > 0
        assert point["trace"]["requests_checked"] == 4
        assert point["trace"]["stitched"] == 4
        assert point["trace"]["ok"] is True
        assert result["trace_ok"] is True
        doc = json.loads(open(trace_out).read())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "gateway.request" in names and "worker.task" in names
