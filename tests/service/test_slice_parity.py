"""One preempted job, two execution sites, the same slice telemetry.

The accounting enclave's own snapshot/resume and a thread-pool gateway
with ``preempt_after`` both run every slice through ``run_slice`` and
apply the one slice table to its record.  So the slice spans (names,
nesting, attributes) and the slice metrics they drive must agree hop for
hop, on both engines.
"""

import pytest

from repro.core.accounting_enclave import WorkloadCheckpoint
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.obs.metrics import disable_metrics, enable_metrics, get_registry
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.service import MeteringGateway
from repro.service import worker

MINIC_SUM = (
    "int total(int n) { int s; int i; s = 0; "
    "for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
)

#: Identity and timing differ by site: ids, times, pids and the trace id
#: are not compared, nor a restore's ``snapshot_bytes``, the wire size
#: that only a hop over the wire has (the enclave resumes the object).
_SITE_ATTRIBUTES = ("trace_id", "snapshot_bytes")


def _metrics() -> dict:
    registry = get_registry()
    snapshots = registry.get("acctee_snapshots_taken")
    return {
        "warm": snapshots.value(kind="warm"),
        "suspend": snapshots.value(kind="suspend"),
        "resumes": registry.get("acctee_resumes_total").total(),
        "hits": registry.get("acctee_warm_pool_hits").total(),
    }


def _observed(run) -> tuple[list, dict]:
    """``run()`` under a fresh tracer with metrics on: the tracer's spans
    and the slice metrics' deltas."""
    tracer = enable_tracing(Tracer())
    enable_metrics()
    before = _metrics()
    try:
        run()
    finally:
        disable_tracing()
        disable_metrics()
    after = _metrics()
    return tracer.finished(), {k: after[k] - before[k] for k in after}


def _slices(spans, root_name: str) -> list:
    """Each slice's span tree under its root (``execute`` in the enclave,
    ``worker.task`` in a gateway worker), in start order."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)

    def tree(s):
        attributes = {
            k: v for k, v in s.attributes.items() if k not in _SITE_ATTRIBUTES
        }
        below = sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns)
        return (s.name, attributes, [tree(c) for c in below])

    roots = sorted((s for s in spans if s.name == root_name), key=lambda s: s.start_ns)
    return [tree(root)[2] for root in roots]


@pytest.mark.parametrize("engine", ("predecode", "compile"))
def test_enclave_and_gateway_drive_the_same_slice_telemetry(engine):
    config = SandboxConfig(engine=engine)

    def in_enclave():
        sandbox = TwoWaySandbox.deploy(config)
        sandbox.submit_minic(MINIC_SUM)
        outcome = sandbox.snapshot("total", 200, snapshot_at=150)
        while isinstance(outcome, WorkloadCheckpoint):
            outcome = sandbox.resume(outcome, snapshot_at=150)

    def through_gateway():
        worker.MODULE_CACHE.clear()  # this worker builds its pool, as the AE does
        with MeteringGateway(
            workers=1, pool="thread", preempt_after=150, config=config
        ) as gw:
            gw.register_tenant("alice", minic=MINIC_SUM)
            gw.execute("alice", "total", 200)

    enclave_spans, enclave_metrics = _observed(in_enclave)
    gateway_spans, gateway_metrics = _observed(through_gateway)
    enclave, gateway = _slices(enclave_spans, "execute"), _slices(gateway_spans, "worker.task")
    assert len(enclave) > 2  # preempted more than once
    assert gateway == enclave
    assert gateway_metrics == enclave_metrics
    assert enclave_metrics["suspend"] == enclave_metrics["resumes"] == len(enclave) - 1
    assert enclave_metrics["warm"] == 1
