"""The next slice is dispatched while its checkpoint is signed.

On a preempted result the gateway checks the deadline, hands hop k+1 to the
backend, then takes the request lock, checks ``finalized``, signs and
records checkpoint k, and only then attaches hop k+1's done-callback (or
accounts it inline when it is already done).  A scripted backend, whose
futures the test resolves by hand, pins the orderings that matter without
a sleep:

* a hop that is already done when it is dispatched is still accounted
  after the checkpoint before it: its receipt follows that checkpoint, the
  receipts sum to the unpreempted vector, and the signed sequence is the
  serial accounting enclave's;
* a deadline that lands between the dispatch of hop k+1 and the signing of
  checkpoint k leaves no receipt after ``settled`` and admission at
  ``in_flight == 0``;
* a signing failure after the dispatch settles the request exactly once.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import Future

import pytest

from repro.core.accounting_enclave import WorkloadCheckpoint
from repro.core.policy import MemoryPolicy
from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.obs.events import EventLog, disable_events, enable_events
from repro.service import DeadlineExceeded, MeteringGateway, ResiliencePolicy
from repro.service.worker import execute_task

MINIC_ARRAY = """
int a[64];
int work(int n) {
  int i; int acc;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    a[i - (i / 64) * 64] = a[i - (i / 64) * 64] + i;
    acc = acc + a[i - (i / 64) * 64];
  }
  return acc;
}
"""
SLICE = 150
CONFIG = SandboxConfig(level="flow-based", memory_policy=MemoryPolicy.INTEGRAL)


class ScriptedBackend:
    """Runs each task in the thread the test chooses.

    ``eager``: inside ``submit``, so every future is done when it is
    returned.  Otherwise the task waits in :attr:`pending` until
    :meth:`resolve`.  ``on_submit(n)`` runs at the n-th submit, before the
    task is queued or run; ``trail`` records each submit in order.
    """

    kind = "scripted"

    def __init__(self, eager: bool = False, on_submit=None, trail: list | None = None):
        self.eager = eager
        self.on_submit = on_submit
        self.trail = trail if trail is not None else []
        self.pending: list = []
        self.submits = 0

    def submit(self, task) -> Future:
        self.submits += 1
        self.trail.append(("submit", self.submits))
        if self.on_submit is not None:
            self.on_submit(self.submits)
        future: Future = Future()
        if self.eager:
            future.set_result(execute_task(task))
        else:
            self.pending.append((task, future))
        return future

    def resolve(self) -> None:
        """Run the oldest pending task here and resolve its future."""
        task, future = self.pending.pop(0)
        future.set_result(execute_task(task))

    def shutdown(self, wait: bool = True) -> None:
        pass


def _gateway(backend, preempt_after=SLICE, **kwargs) -> MeteringGateway:
    gw = MeteringGateway(backend=backend, preempt_after=preempt_after, config=CONFIG, **kwargs)
    gw.register_tenant("alice", minic=MINIC_ARRAY)
    return gw


def _trail_signs(gw: MeteringGateway, trail: list, fail_checkpoint: bool = False) -> None:
    """Record each ``_sign`` in ``trail`` (and, if asked, fail every
    checkpoint signing)."""
    sign = gw._sign

    def traced(state, raw, final):
        trail.append(("sign", "final" if final else f"cp{state.checkpoints + 1}"))
        if fail_checkpoint and not final:
            raise RuntimeError("the accounting enclave refused to sign")
        return sign(state, raw, final)

    gw._sign = traced


def _serial_entries() -> list:
    sandbox = TwoWaySandbox.deploy(CONFIG)
    sandbox.submit_minic(MINIC_ARRAY)
    outcome = sandbox.snapshot("work", 100, snapshot_at=SLICE)
    while isinstance(outcome, WorkloadCheckpoint):
        outcome = sandbox.resume(outcome, snapshot_at=SLICE)
    return sandbox.log.entries


def test_a_hop_done_at_dispatch_is_accounted_after_its_checkpoint():
    trail: list = []
    with _gateway(ScriptedBackend(eager=True), preempt_after=None) as gw:
        unpreempted = gw.execute("alice", "work", 100).result
        unpreempted_totals = gw.totals("alice")
    with _gateway(ScriptedBackend(eager=True, trail=trail)) as gw:
        _trail_signs(gw, trail)
        response = gw.execute("alice", "work", 100)
        receipts = gw.ledger.receipts("alice")
        totals = gw.totals("alice")

    hops = len(receipts)
    assert hops > 3
    assert [r.request_id for r in receipts] == [
        *(f"1#cp{k}" for k in range(1, hops)), 1
    ]
    # hop k+1 goes out before checkpoint k is signed, and checkpoint k is
    # signed before hop k+1's result is accounted (its receipt is next)
    assert trail == [
        ("submit", 1),
        *(
            step
            for k in range(1, hops)
            for step in (("submit", k + 1), ("sign", f"cp{k}"))
        ),
        ("sign", "final"),
    ]
    assert totals == unpreempted_totals
    assert totals.weighted_instructions == unpreempted.vector.weighted_instructions
    assert response.result.value == unpreempted.value
    assert [r.entry.body() for r in receipts] == [e.body() for e in _serial_entries()]


def _settled(events) -> list:
    return [e for e in events if e.kind == "settled"]


def test_a_deadline_between_dispatch_and_signing_bills_nothing_after_settled():
    log = enable_events(EventLog())
    try:
        gw: MeteringGateway

        def fire_deadline(n: int) -> None:
            if n == 2:  # hop 2 is being dispatched; checkpoint 1 is unsigned
                gw._timers.shutdown()  # runs the armed deadline on this thread

        backend = ScriptedBackend(on_submit=fire_deadline)
        gw = _gateway(backend, resilience=ResiliencePolicy(deadline_s=3600.0, max_retries=0))
        future = gw.submit("alice", "work", 100)
        backend.resolve()  # hop 1: preempted
        assert isinstance(future.exception(timeout=0), DeadlineExceeded)
        assert len(backend.pending) == 1  # hop 2 went out, and is never accounted
        backend.resolve()
        gw.shutdown()
    finally:
        disable_events()
    events = log.events()
    [settled] = _settled(events)
    assert settled.fields["outcome"] == "deadline-exceeded"
    assert not [e for e in events if e.kind == "receipt" and e.seq > settled.seq]
    assert gw.ledger.receipts("alice") == []
    stats = gw.admission.stats("alice")
    assert stats["in_flight"] == 0
    assert stats["settled"] == stats["admitted"] == 1


def test_a_signing_failure_after_the_dispatch_settles_once():
    trail: list = []
    log = enable_events(EventLog())
    try:
        backend = ScriptedBackend(trail=trail)
        gw = _gateway(backend)
        _trail_signs(gw, trail, fail_checkpoint=True)
        future = gw.submit("alice", "work", 100)
        backend.resolve()  # hop 1: preempted; hop 2 dispatched, then the sign fails
        with pytest.raises(RuntimeError, match="refused to sign"):
            future.result(timeout=0)
        assert trail == [("submit", 1), ("submit", 2), ("sign", "cp1")]
        backend.resolve()  # hop 2's result lands on a settled request
        assert backend.pending == []
        gw.shutdown()
    finally:
        disable_events()
    settled = _settled(log.events())
    assert Counter(e.fields["request_id"] for e in settled) == Counter([1])
    assert settled[0].fields["outcome"] == "error"
    assert gw.ledger.receipts("alice") == []
    assert gw.admission.stats("alice")["in_flight"] == 0
