"""LifecycleRecorder: per-gateway counts under concurrent transitions.

Admission-side transitions (``fault_injected``) are recorded from client
threads while the serving loop records the rest, so the counts behind
``resilience_stats()`` must not lose updates.
"""

import sys
import threading

import pytest

from repro.obs import disable_all, get_registry
from repro.service.lifecycle import TRANSITIONS, LifecycleRecorder


@pytest.fixture(autouse=True)
def _obs_off():
    disable_all()
    yield
    get_registry().reset()


def test_counts_survive_concurrent_recording():
    recorder = LifecycleRecorder("gw-test")
    threads, per_thread = 8, 2000
    start = threading.Barrier(threads)
    faults = ("crash", "hang")
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def client(n: int) -> None:
            start.wait(timeout=30)
            for i in range(per_thread):
                recorder.record(
                    "fault_injected", f"t{n}", None,
                    {"request_id": i, "trace_id": None, "fault": faults[i % 2]},
                )
                recorder.record(
                    "retry", f"t{n}", None, {"request_id": i, "trace_id": None, "attempt": 1}
                )

        workers = [threading.Thread(target=client, args=(n,)) for n in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(previous)
    total = threads * per_thread
    assert recorder.counts() == {
        "retries": total,
        "deadline_exceeded": 0,
        "results_rejected": 0,
        "preemptions": 0,
        "faults_injected": {"crash": total // 2, "hang": total // 2},
    }


def test_every_count_key_is_reported():
    recorder = LifecycleRecorder("gw-test")
    for kind, row in TRANSITIONS.items():
        if row.count is not None:
            recorder.record(
                kind, "t", None,
                dict(request_id=1, trace_id=None, fault="crash", attempt=1,
                     checkpoint=1, snapshot_bytes=1),
            )
    counts = recorder.counts()
    assert counts == {
        "retries": 1,
        "deadline_exceeded": 1,
        "results_rejected": 1,
        "preemptions": 1,
        "faults_injected": {"crash": 1},
    }
