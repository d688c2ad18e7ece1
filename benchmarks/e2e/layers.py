"""The traced round: timing wrappers around public entry points, and the
per-layer metrics computed from their spans.

The program's own ``Tracer`` records the gateway and worker spans
(``worker.instantiate``, ``worker.invoke``, ``worker.restore``,
``worker.resume_invoke`` come back with each result).  :class:`Probe` adds
``bench.*`` spans on the same tracer by patching each entry point where its
caller looks it up — ``repro.core.resource_log.rsa_sign``, not
``repro.tcrypto.rsa.rsa_sign`` — and restores every name afterwards.
Per-request intervals are joined through ``trace_id_for(gateway_id,
request_id)``, which every span of a request carries.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

import repro.core.resource_log as resource_log
import repro.service.ledger as ledger
from repro.core.accounting_enclave import AccountingEnclave
from repro.obs.context import trace_id_for
from repro.service.quota import AdmissionController

def median(values: list[float]) -> float:
    """p50, or 0 for a layer the workload never reaches."""
    return quantile(values, 50)


def quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def covered_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _us(span) -> float:
    return span.duration_ns / 1e3


def _record_attrs(_ledger, _tenant_id, entry, request_id=None, trace_id=None):
    return {
        "request_id": str(request_id),
        "trace_id": trace_id,
        "winstr": entry.vector.weighted_instructions,
    }


class Probe:
    """``bench.*`` spans around the gateway's layers for one traced round."""

    def __init__(self, gateway, tracer, executes: bool):
        self.gateway = gateway
        self.tracer = tracer
        #: False on the modeled backend, whose ``exec_wall_s`` is a modeled
        #: service time that was never spent
        self.executes = executes
        self._saved: list[tuple] = []
        self.requests: list = []
        self.closed: list = []
        self.closed_s = 0.0

    # -- wrappers ------------------------------------------------------------------

    def _patch(self, owner, name: str, wrap) -> None:
        own = name in vars(owner)
        original = getattr(owner, name)
        self._saved.append((owner, name, original, own))
        setattr(owner, name, wrap(original))

    def _timed(self, span_name: str, attrs=None):
        tracer = self.tracer

        def wrap(original):
            def wrapper(*args, **kwargs):
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                with tracer.span(span_name, **extra):
                    return original(*args, **kwargs)

            return wrapper

        return wrap

    def _pool(self, original):
        """Span from ``backend.submit(task)`` until the pool future is done."""
        tracer, executes = self.tracer, self.executes

        def submit(task):
            task_bytes = len(pickle.dumps(task))
            trace_id, _parent, _sampled, hop = task.trace or (None, 0, False, 0)
            span = tracer.span(
                "bench.pool", detached=True, trace_id=trace_id, hop=hop,
                task_bytes=task_bytes,
            )
            future = original(task)

            def done(f) -> None:
                if not f.cancelled() and f.exception() is None:
                    exec_s = f.result().exec_wall_s if executes else 0.0
                    span.set_attribute("exec_wall_s", exec_s)
                span.end()

            future.add_done_callback(done)
            return future

        return submit

    def install(self) -> None:
        self._patch(AdmissionController, "admit", self._timed("bench.admit"))
        self._patch(
            AccountingEnclave,
            "account_span",
            self._timed("bench.account_span", lambda *a, **k: {"trace_id": k.get("trace_id")}),
        )
        self._patch(ledger.BillingLedger, "record", self._timed("bench.ledger.record", _record_attrs))
        self._patch(ledger.BillingLedger, "record_batch", self._timed("bench.ledger.record_batch"))
        for module, site in ((resource_log, "log"), (ledger, "ledger")):
            self._patch(
                module, "rsa_sign", self._timed("bench.rsa_sign", lambda *a, s=site, **k: {"site": s})
            )
            self._patch(module, "rsa_verify", self._timed("bench.rsa_verify"))
        self._patch(self.gateway.backend, "submit", self._pool)

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    def observe(self, open_reqs: list, closed_reqs: list, closed_s: float) -> None:
        """A traced round's requests, and how long its closed loop ran."""
        self.requests += [r for r in open_reqs + closed_reqs if r.ok]
        self.closed += [r for r in closed_reqs if r.ok]
        self.closed_s += closed_s

    # -- metrics -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, samples)``."""
        spans = self.tracer.finished()
        named = defaultdict(list)
        per_trace = defaultdict(lambda: defaultdict(list))
        for s in spans:
            named[s.name].append(s)
            trace_id = s.attributes.get("trace_id")
            if trace_id:
                per_trace[trace_id][s.name].append(s)

        gateway_id = self.gateway.gateway_id
        submit_us, dispatch_us, result_wait_us, unaccounted = [], [], [], []
        closed_ids = {id(r) for r in self.closed}
        busy_s = 0.0
        for req in self.requests:
            trace = per_trace[trace_id_for(gateway_id, req.future.result().request_id)]
            pools = sorted(trace["bench.pool"], key=lambda s: s.start_ns)
            accounts = sorted(trace["bench.account_span"], key=lambda s: s.start_ns)
            sent_ns, returned_ns = int(req.sent * 1e9), int(req.returned * 1e9)
            done_ns = int(req.done * 1e9)
            submit_us.append((returned_ns - sent_ns) / 1e3)
            dispatch_us.append((pools[0].start_ns - returned_ns) / 1e3)
            intervals = [(sent_ns, returned_ns), (returned_ns, pools[0].start_ns)]
            for pool, account in zip(pools, accounts):
                result_wait_us.append((account.start_ns - pool.end_ns) / 1e3)
                intervals += [
                    (pool.start_ns, pool.end_ns),
                    (pool.end_ns, account.start_ns),
                    (account.start_ns, account.end_ns),
                ]
            intervals += [(s.start_ns, s.end_ns) for s in trace["bench.ledger.record"]]
            unaccounted.append(1 - covered_ns(intervals) / max(1, done_ns - sent_ns))
            if id(req) in closed_ids:
                busy_s += sum(p.attributes.get("exec_wall_s", 0.0) for p in pools)

        pools = [s for s in named["bench.pool"] if "exec_wall_s" in s.attributes]
        exec_s = [p.attributes["exec_wall_s"] for p in pools]
        queue_ipc_us = [_us(p) - p.attributes["exec_wall_s"] * 1e6 for p in pools]
        slices = named["worker.invoke"] + named["worker.resume_invoke"]
        restores = named["worker.restore"]
        records = named["bench.ledger.record"]
        checkpoints = sum(1 for r in records if "#cp" in r.attributes["request_id"])
        finals = len(records) - checkpoints
        log_signs = sum(1 for s in named["bench.rsa_sign"] if s.attributes["site"] == "log")
        slice_s = sum(s.duration_ns for s in slices) / 1e9
        preempts = self.gateway.preempt_after is not None
        n_req = len(self.requests)

        def p50(name):
            return median([_us(s) for s in named[name]]), len(named[name])

        return {
            "quota.admit_us": p50("bench.admit"),
            "gateway.submit_us": (median(submit_us), n_req),
            "gateway.dispatch_wait_us": (median(dispatch_us), n_req),
            "gateway.dispatch_wait_p90_us": (quantile(dispatch_us, 90), n_req),
            "gateway.result_wait_us": (median(result_wait_us), len(result_wait_us)),
            "worker.task_bytes": (
                median([s.attributes["task_bytes"] for s in named["bench.pool"]]),
                len(named["bench.pool"]),
            ),
            "worker.queue_ipc_us": (median(queue_ipc_us), len(pools)),
            "worker.queue_ipc_p90_us": (quantile(queue_ipc_us, 90), len(pools)),
            "worker.exec_wall_ms": (median(exec_s) * 1e3, len(pools)),
            "worker.busy_ratio": (
                busy_s / (self.closed_s * self.gateway.effective_workers), len(self.closed)
            ),
            "worker.dispatches_per_request": (len(named["bench.pool"]) / n_req, n_req),
            "wasm.instantiate_us": p50("worker.instantiate"),
            "wasm.invoke_us": p50("worker.invoke"),
            "wasm.winstr_per_s": (
                sum(r.attributes["winstr"] for r in records) / slice_s if slice_s else 0.0,
                len(slices),
            ),
            "snapshot.restore_us": p50("worker.restore"),
            "snapshot.bytes": (
                median([s.attributes["snapshot_bytes"] for s in restores]), len(restores)
            ),
            "snapshot.slice_us": (
                median([_us(s) for s in slices]) if preempts else 0.0, len(slices)
            ),
            "snapshot.checkpoints_per_request": (checkpoints / max(1, finals), finals),
            "ae.account_us": p50("bench.account_span"),
            "ae.signatures_per_receipt": (log_signs / max(1, len(records)), len(records)),
            "rsa.sign_us": p50("bench.rsa_sign"),
            "rsa.verify_us": p50("bench.rsa_verify"),
            "ledger.record_us": p50("bench.ledger.record"),
            "ledger.record_batch_us": p50("bench.ledger.record_batch"),
            "closure.unaccounted_ratio": (median(unaccounted), n_req),
        }

    def self_times(self) -> dict:
        """Per span name: total self time (duration minus the part its
        children cover) and count, largest first."""
        spans = self.tracer.finished()
        children = defaultdict(list)
        for s in spans:
            if s.parent_id is not None:
                children[s.parent_id].append(s)
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        for s in spans:
            inner = covered_ns(
                (max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                for c in children[s.span_id]
            )
            totals[s.name][0] += s.duration_ns - inner
            totals[s.name][1] += 1
        ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])
        return {name: {"self_ms": ns / 1e6, "count": n} for name, (ns, n) in ranked}
