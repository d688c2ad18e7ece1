"""The deadline timer against the result callback.

A request's deadline fires on the gateway's timer thread while its worker
result is accounted on whichever thread resolved the pool future, so the
two race for the request.  These tests set deadlines close to the service
time, on thread and process pools, with and without preemption, and check
that the request's claim settles every race one way:

* every request ends exactly once: OK with one final receipt, or
  ``DeadlineExceeded`` with none;
* no checkpoint receipt is recorded after its request's ``settled``
  transition;
* admission returns to ``in_flight == 0``;
* the sealed epoch verifies.

They also pin the timer facility the deadlines run on: a gateway with the
default policy starts no timer thread, and timers fire in due order, drop
cancelled entries and run what is left at shutdown.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import Counter
from concurrent.futures import wait

import pytest

from repro.obs.events import EventLog, disable_events, enable_events
from repro.service import DeadlineExceeded, MeteringGateway, ResiliencePolicy
from repro.service.gateway import _Timers

MINIC_LOOP = (
    "int f(int n) { int t = 0; "
    "for (int i = 0; i < n; i = i + 1) t = t + i; return t; }"
)
N = 600
#: deadlines as multiples of the measured service time: the outer ones make
#: both outcomes all but certain, the inner ones race the result
FACTORS = (0.1, 0.8, 0.9, 1.0, 1.1, 1.2, 4.0)
REQUESTS = 84
WARM = 9  # deadline-free requests that measure the service time
WAVE = 3  # requests in flight at once


def _serve(gw: MeteringGateway, deadlines: list, outcomes: dict) -> None:
    """One request per deadline (``None``: none), ``WAVE`` at a time; adds
    each request's response or failure to ``outcomes`` under its id."""
    for start in range(0, len(deadlines), WAVE):
        futures = {}
        for deadline_s in deadlines[start : start + WAVE]:
            gw.resilience = ResiliencePolicy(deadline_s=deadline_s, max_retries=0)
            request_id = len(outcomes) + len(futures) + 1  # ids run 1, 2, …
            futures[request_id] = gw.submit("alice", "f", N)
        wait(futures.values(), timeout=60)
        for request_id, future in futures.items():
            exc = future.exception(timeout=0)
            outcomes[request_id] = future.result() if exc is None else exc


def _race(pool: str, preempt_after: int | None):
    """Serve ``WARM`` requests without a deadline, then ``REQUESTS`` under
    deadlines near their median latency; the gateway (shut down, so every
    late result has landed), the racing requests' outcomes and the event
    log."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the timer thread gets the GIL mid-request
    log = enable_events(EventLog())
    gw = MeteringGateway(workers=2, pool=pool, preempt_after=preempt_after, seal_window=4)
    try:
        if gw.backend.kind != f"wasm-{pool}":
            pytest.skip("worker processes unavailable in this environment")
        gw.register_tenant("alice", minic=MINIC_LOOP)
        outcomes: dict = {}
        _serve(gw, [None] * WARM, outcomes)
        service_s = statistics.median(r.latency_s for r in outcomes.values())
        deadlines = [service_s * FACTORS[i % len(FACTORS)] for i in range(REQUESTS)]
        _serve(gw, deadlines, outcomes)
    finally:
        gw.shutdown()
        disable_events()
        sys.setswitchinterval(interval)
    return gw, {rid: o for rid, o in outcomes.items() if rid > WARM}, log.events()


@pytest.mark.parametrize("preempt_after", [None, 1500], ids=["whole", "preempted"])
@pytest.mark.parametrize("pool", ["thread", "process"])
def test_deadline_and_result_settle_each_request_once(pool, preempt_after):
    gw, outcomes, events = _race(pool, preempt_after)
    warm = range(1, WARM + 1)
    assert len(outcomes) == REQUESTS
    late = {rid for rid, o in outcomes.items() if isinstance(o, DeadlineExceeded)}
    ok = set(outcomes) - late
    assert ok and late, (len(ok), len(late))
    for rid in ok:
        assert outcomes[rid].request_id == outcomes[rid].receipt.request_id == rid

    # every request settled exactly once, with the outcome its future has
    settled = [e.fields for e in events if e.kind == "settled"]
    assert Counter(f["request_id"] for f in settled) == Counter(
        list(warm) + list(outcomes)
    )
    for fields in settled:
        late_one = fields["request_id"] in late
        assert fields["outcome"] == ("deadline-exceeded" if late_one else "ok")

    # one final receipt per OK request, none for a request past its deadline
    finals = Counter(
        r.request_id for r in gw.ledger.receipts("alice") if isinstance(r.request_id, int)
    )
    assert finals == Counter(list(warm) + sorted(ok))

    # no checkpoint receipt after its request settled
    settled_seq = {e.fields["request_id"]: e.seq for e in events if e.kind == "settled"}
    checkpoints = [
        e for e in events if e.kind == "receipt" and "#cp" in str(e.fields["request_id"])
    ]
    if preempt_after is not None:
        assert checkpoints
    for event in checkpoints:
        base = int(event.fields["request_id"].split("#")[0])
        assert event.seq < settled_seq[base], event.fields

    stats = gw.admission.stats("alice")
    assert stats["in_flight"] == 0
    assert stats["settled"] == stats["admitted"] == REQUESTS + len(warm)
    verdict = gw.verify_epoch(gw.seal_epoch())
    assert verdict.ok, verdict.errors


# -- the timer facility --------------------------------------------------------


def _timer_threads(gw: MeteringGateway) -> list:
    return [t for t in threading.enumerate() if t.name == f"{gw.gateway_id}-timers"]


def test_default_policy_arms_no_timer():
    with MeteringGateway(workers=1, pool="thread", preempt_after=200) as gw:
        gw.register_tenant("alice", minic=MINIC_LOOP)
        for _ in range(3):
            gw.execute("alice", "f", 100)
        assert _timer_threads(gw) == []
        gw.resilience = ResiliencePolicy(deadline_s=30.0)
        gw.execute("alice", "f", 100)
        assert len(_timer_threads(gw)) == 1
    assert _timer_threads(gw) == []


def test_timers_run_in_due_order_and_cancelled_ones_never():
    timers = _Timers("test-timers")
    ran: list = []
    done = threading.Event()
    now = time.perf_counter()
    timers.arm(now + 0.03, ran.append, "c")
    cancel_b = timers.arm(now + 0.02, ran.append, "b")
    timers.arm(now + 0.01, ran.append, "a")
    timers.arm(now + 0.04, done.set)
    cancel_b()
    assert done.wait(timeout=5)
    assert ran == ["a", "c"]
    # cancelled entries are dropped long before they are due
    for cancel in [timers.arm(now + 3600, ran.append, i) for i in range(1000)]:
        cancel()
    assert len(timers._heap) < 10
    # shut down: what is still armed runs now, in due order, on this thread;
    # an entry armed afterwards runs at once
    timers.arm(now + 3600, ran.append, "late")
    timers.arm(now + 1800, ran.append, "sooner")
    timers.shutdown()
    timers.arm(now + 3600, ran.append, "closed")
    assert ran == ["a", "c", "sooner", "late", "closed"]
