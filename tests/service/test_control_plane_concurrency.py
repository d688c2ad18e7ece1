"""Control-plane concurrency tests for the async gateway.

Admission state, the ledger and request-id minting each sit behind one
lock.  These tests race many submitting threads across tenants against
them: request ids stay unique and run 1..N, submits racing settles neither
leak nor double-settle an admission slot, and billing stays exactly-once.
They also cover the adaptive sizing that guards the oversubscription half
of the multi-worker cliff.
"""

import threading

import pytest

from repro.service.backends import SimulatedFaaSBackend
from repro.service.gateway import MeteringGateway
from repro.service.quota import AdmissionController, TenantQuota
from repro.service.worker import WorkerPool, cores_available

MINIC_SQUARE = "int square(int x) { return x * x; }"

TENANTS = ("alice", "bob", "carol", "dave")


def _gateway(**kwargs) -> MeteringGateway:
    kwargs.setdefault("backend", SimulatedFaaSBackend(workers=4, time_scale=0.0))
    gw = MeteringGateway(workers=2, pool="thread", **kwargs)
    for tenant in TENANTS:
        gw.register_tenant(tenant, minic=MINIC_SQUARE)
    return gw


# -- request ids under concurrent submit ---------------------------------------


def _concurrent_request_ids(gw: MeteringGateway, per_thread: int) -> list[int]:
    """Submit from two threads per tenant at once; the responses' ids."""
    futures = []
    futures_lock = threading.Lock()

    def spam(tenant: str) -> None:
        for _ in range(per_thread):
            f = gw.submit(tenant, "square", 7)
            with futures_lock:
                futures.append(f)

    threads = [
        threading.Thread(target=spam, args=(t,)) for t in TENANTS for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [future.result(timeout=30).request_id for future in futures]


def test_request_ids_unique_under_concurrent_submit():
    gw = _gateway()
    try:
        ids = _concurrent_request_ids(gw, 25)
        assert len(ids) == len(TENANTS) * 2 * 25
        assert len(set(ids)) == len(ids), "request-id collision"
    finally:
        gw.shutdown()


def test_request_ids_run_one_to_n_across_tenants():
    # one gateway-wide sequence: N admitted requests, whichever tenants and
    # threads submitted them, hold exactly the ids 1..N
    gw = _gateway()
    try:
        ids = _concurrent_request_ids(gw, 10)
        n = len(TENANTS) * 2 * 10
        assert sorted(ids) == list(range(1, n + 1))
        assert gw.stats()["requests"] == n
    finally:
        gw.shutdown()


# -- concurrent submit + settle must not race ----------------------------------


def test_concurrent_submit_and_settle_conserve_slots():
    # submits race against the settles the serving coroutines perform; the
    # old coarse _requests_lock hid (and sometimes caused) slot leaks here
    gw = _gateway()
    try:
        futures = []
        futures_lock = threading.Lock()

        def spam(tenant: str) -> None:
            for _ in range(20):
                f = gw.submit(tenant, "square", 3)
                with futures_lock:
                    futures.append(f)

        threads = [threading.Thread(target=spam, args=(t,)) for t in TENANTS]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for future in futures:
            future.result(timeout=30)

        for tenant in TENANTS:
            stats = gw.admission.stats(tenant)
            assert stats["in_flight"] == 0
            assert stats["admitted"] == stats["settled"] == 20
            # exactly-once billing survived the races
            assert gw.ledger.billed_requests(tenant) == 20
    finally:
        gw.shutdown()


def test_quota_concurrent_admit_settle_across_tenants():
    # pure admission-controller race: admits and settles from many threads
    # across tenants never leak or double-settle a slot
    admission = AdmissionController()
    for tenant in TENANTS:
        admission.register(tenant, TenantQuota(max_queue_depth=64))
    errors: list[BaseException] = []

    def churn(tenant: str) -> None:
        try:
            for _ in range(200):
                admission.admit(tenant, 0)
                admission.settle(tenant, 1000)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=churn, args=(t,)) for t in TENANTS for _ in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for tenant in TENANTS:
        stats = admission.stats(tenant)
        assert stats["in_flight"] == 0
        assert stats["admitted"] == stats["settled"] == 600


# -- adaptive worker sizing ----------------------------------------------------


def test_adaptive_process_pool_shrinks_to_cores():
    pool = WorkerPool(workers=256, kind="process")
    try:
        assert pool.requested_workers == 256
        assert pool.workers == min(256, cores_available())
    finally:
        pool.shutdown()


def test_adaptive_sizing_leaves_thread_pools_alone():
    # thread workers wait on I/O-ish futures, not cores; shrinking them
    # would serialize the modeled backend for no reason
    pool = WorkerPool(workers=9, kind="thread")
    try:
        assert pool.workers == 9
    finally:
        pool.shutdown()


def test_gateway_stats_report_worker_sizing():
    gw = MeteringGateway(workers=3, pool="thread")
    try:
        gw.register_tenant("alice", minic=MINIC_SQUARE)
        stats = gw.stats()
        workers = stats["workers"]
        assert workers["requested"] == 3
        assert workers["effective"] >= 1
        assert workers["cores_available"] == cores_available()
    finally:
        gw.shutdown()


def test_gateway_rejects_bad_seal_window():
    with pytest.raises(ValueError):
        MeteringGateway(seal_window=0)
