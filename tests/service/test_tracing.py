"""Distributed tracing through the gateway: propagation, backhaul, stitching.

The acceptance-critical properties from the tracing issue:

* a request preempted across several worker dispatches renders as **one**
  connected trace — every span carrying its trace id walks parent links to
  the single ``gateway.request`` root, across all ``#cpN`` hops;
* every AE receipt the request produced (checkpoint and final) carries the
  recomputable trace id, as do its ledger events;
* worker events merged into the gateway's stream keep strictly monotonic
  sequence numbers and gain ``origin_pid`` provenance;
* head sampling gates only the worker backhaul — unsampled requests still
  carry provenance on receipts and events;
* the whole apparatus is inert when off: signed totals stay byte-identical
  with tracing+events enabled vs disabled, on every engine.
"""

import json
import os

import pytest

from repro.core.sandbox import SandboxConfig
from repro.obs.context import SAMPLE_ENV, trace_id_for
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


class TestSampling:
    def test_unsampled_requests_keep_receipt_provenance(self):
        gw, tracer, log = traced_gateway(trace_sample=0.0)
        try:
            gw.register_tenant("alice", minic=MINIC_SUM)
            responses = [gw.execute("alice", "total", 10) for _ in range(2)]
            tids = {
                r.request_id: trace_id_for(gw.gateway_id, r.request_id)
                for r in responses
            }
            receipts = gw.ledger.receipts("alice")
            report = _stitch_report(gw, tracer, responses)
        finally:
            gw.shutdown()
        # no worker backhaul...
        assert not any(s.name.startswith("worker.") for s in tracer.finished())
        assert not any(e.kind == "module_cache" for e in log.events())
        # ...but identity still flows: receipts and events stay linked, and
        # the gateway-side spans alone still stitch
        assert all(r.trace_id == tids[_final_id(r.request_id)] for r in receipts)
        admits = [e for e in log.events() if e.kind == "admit"]
        assert all(e.fields.get("trace_id") for e in admits)
        assert report["ok"], report

    def test_env_sample_rate_feeds_gateway_default(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_ENV, "0.0")
        gw = MeteringGateway(workers=1, pool="thread")
        gw.shutdown()
        assert gw.trace_sample == 0.0
        monkeypatch.delenv(SAMPLE_ENV)
        gw = MeteringGateway(workers=1, pool="thread", trace_sample=0.25)
        gw.shutdown()
        assert gw.trace_sample == 0.25

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
        result = execute_task(self.make_task())
        assert result.telemetry is None

    def test_traced_task_backhauls_capture(self):
        tid = trace_id_for("gw-t", 1)
        result = execute_task(self.make_task(trace=(tid, 7, True, 2)))
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry["trace_id"] == tid
        assert telemetry["hop"] == 2
        assert telemetry["pid"] == os.getpid()
        names = [s["name"] for s in telemetry["spans"]]
        assert names[0] == "worker.task"
        assert "worker.instantiate" in names and "worker.invoke" in names
        root = telemetry["spans"][0]
        assert root["attrs"]["hop"] == 2
        assert root["attrs"]["preempted"] is False
        # the capture pickles as plain data (process-pool wire format)
        json.dumps(telemetry)


class TestDifferentialAcrossEngines:
    """Propagation enabled vs everything off: billing must not move."""

    @pytest.mark.parametrize("engine", ("legacy", "predecode", "compile"))
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
            replayed = sum(snapshots.to_json().values())
        finally:
            gw.shutdown()
        assert report["ok"], report
        assert report["worker_pids"], "process-pool spans must keep worker pids"
        assert os.getpid() not in report["worker_pids"]
        assert replayed > 0


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
