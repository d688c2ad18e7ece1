"""One run of one workload against a live ``MeteringGateway``.

Started by ``run.py`` in a fresh interpreter (``python -m
benchmarks.e2e.serve``), so no earlier workload's imports or allocator
residue skew this one.  It uses only the gateway's public API, checks every
answer against a serial ``TwoWaySandbox`` reference, and prints one JSON
object as its last line of output.  A mismatch exits with status 1.

A round is an open-loop phase (latency, timed from each request's
*scheduled* send time), a timed seal + audit of that phase's fixed receipt
set, and a closed-loop phase with ``OUTSTANDING`` requests in flight
(throughput).  One generator thread sends everything.

Host speed on a shared machine swings by up to 2x within seconds, so each
phase is bracketed by a fixed calibration loop and its times are scaled to
a host on which that loop takes ``REFERENCE_CALIBRATION_S``; the open-loop
schedule is stretched by the same reading, so a slow host is not also a
more loaded one.  Unscaled values are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from concurrent.futures import wait as wait_futures

from repro.core.sandbox import SandboxConfig, TwoWaySandbox
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.service.backends import SimulatedFaaSBackend
from repro.service.gateway import MeteringGateway
from repro.service.quota import AdmissionError
from repro.workloads import POLYBENCH_KERNELS

from benchmarks.e2e.calibration import Calibrator
from benchmarks.e2e.layers import Probe, quantile
from benchmarks.e2e.workloads import (
    ENGINE,
    OUTSTANDING,
    SEAL_WINDOW,
    WORKERS,
    WORKLOADS,
    Workload,
)

VECTOR_FIELDS = (
    "weighted_instructions",
    "peak_memory_bytes",
    "memory_integral_page_instructions",
    "io_bytes_in",
    "io_bytes_out",
)
#: A request still unanswered this long after its phase ends is a hang.
WAIT_TIMEOUT_S = 60.0
#: What a ``Calibrator`` reads on the fast 2-core box the seed numbers come
#: from; scaled metrics read as if measured there.
REFERENCE_CALIBRATION_S = 0.005
#: Bound on how far a slow (or fast) host stretches the arrival schedule.
MAX_DILATION = 1.5


class Mismatch(Exception):
    """A response, receipt or epoch that disagrees with the reference, or a
    request that failed before measurement started."""


def vector_of(vector) -> tuple:
    return tuple(getattr(vector, name) for name in VECTOR_FIELDS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_rss_mb() -> float:
    """Resident set size now (peak RSS cannot show growth once it is set)."""
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Request:
    """One request as the generator sent it (``perf_counter`` seconds)."""

    __slots__ = ("due", "sent", "returned", "done", "future")

    def __init__(self, due: float):
        self.due = due
        self.sent = self.returned = self.done = 0.0
        self.future = None  # stays None when admission refused the request

    def finish(self, _future) -> None:
        self.done = time.perf_counter()

    @property
    def ok(self) -> bool:
        return self.future is not None and self.future.exception() is None


class Harness:
    """A gateway serving one workload's tenants, plus its reference answers."""

    def __init__(self, workload: Workload, seed: int, tamper: bool = False):
        self.workload = workload
        self.seed = seed
        self.kernel_of = {f"tenant-{k}": k for k in workload.kernels}
        self.tenants = list(self.kernel_of)
        self.modules = {k: POLYBENCH_KERNELS[k].compile() for k in workload.kernels}
        self.reference = self._reference()
        if tamper:
            kernel = workload.kernels[0]
            value, vector = self.reference[kernel]
            self.reference[kernel] = (("tampered", value), vector)
        self.gateway: MeteringGateway | None = None
        self.ok_responses = 0
        self.attempted = 0
        self.failed = 0
        self.calibrate = Calibrator()
        self.calibration = 0.0  # the latest reading

    def _reference(self) -> dict[str, tuple]:
        """Each kernel's value and resource vector from one serial run."""
        sandbox = TwoWaySandbox.deploy(SandboxConfig(engine=ENGINE))
        reference = {}
        for kernel, module in self.modules.items():
            export, args = POLYBENCH_KERNELS[kernel].run
            result = sandbox.submit_module(module.clone()).invoke(export, *args)
            reference[kernel] = (result.value, vector_of(result.vector))
        return reference

    # -- set-up ------------------------------------------------------------------

    def set_up(self) -> tuple[float, float]:
        """Build the gateway; seconds until every tenant had a first answer,
        unscaled and scaled."""
        before = statistics.median(self.calibrate() for _ in range(3))
        started = time.perf_counter()
        w = self.workload
        backend = (
            SimulatedFaaSBackend(workers=WORKERS, time_scale=0) if w.modeled else None
        )
        self.gateway = MeteringGateway(
            workers=WORKERS,
            config=SandboxConfig(engine=ENGINE),
            backend=backend,
            preempt_after=w.preempt_after,
            seal_window=SEAL_WINDOW,
        )
        for tenant, kernel in self.kernel_of.items():
            self.gateway.register_tenant(tenant, module=self.modules[kernel].clone())
        first = [self.send(tenant) for tenant in self.tenants]
        self.settle(first)
        elapsed = time.perf_counter() - started
        self.calibration = self.calibrate()
        if self.check(first):
            raise Mismatch("a tenant's first request failed")
        scale = 2 * REFERENCE_CALIBRATION_S / (before + self.calibration)
        return elapsed, elapsed * scale

    def shut_down(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown()
        self.calibrate.close()

    # -- load generation ---------------------------------------------------------

    def send(self, tenant: str, due: float | None = None, on_done=None) -> Request:
        kernel = self.kernel_of[tenant]
        export, args = POLYBENCH_KERNELS[kernel].run
        now = time.perf_counter()
        req = Request(now if due is None else due)
        req.sent = now
        try:
            req.future = self.gateway.submit(tenant, export, *args)
        except AdmissionError:
            req.returned = req.done = time.perf_counter()
            if on_done is not None:
                on_done(None)
            return req
        req.returned = time.perf_counter()
        req.future.add_done_callback(req.finish)
        if on_done is not None:
            req.future.add_done_callback(on_done)
        return req

    def tenant_sequence(self, n: int, rng: random.Random) -> list[str]:
        """Every tenant equally often, in seeded random order."""
        sequence: list[str] = []
        while len(sequence) < n:
            block = list(self.tenants)
            rng.shuffle(block)
            sequence.extend(block)
        return sequence[:n]

    def open_loop(self, n: int, rng: random.Random, dilation: float) -> list[Request]:
        """``n`` arrivals at the workload's rate, each at a uniformly random
        moment of its own ``1/rate`` slot, the slots stretched by ``dilation``.

        Not Poisson: with the ~85 arrivals a ``faas-preempt`` run holds,
        Poisson bursts alone spread its p90 by ~19% from seed to seed.
        """
        slot = dilation / self.workload.open_rps
        tenants = self.tenant_sequence(n, rng)
        offsets = [(i + rng.random()) * slot for i in range(n)]
        start = time.perf_counter()
        reqs = []
        for offset, tenant in zip(offsets, tenants):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            reqs.append(self.send(tenant, due))
        self.settle(reqs)
        return reqs

    def closed_loop(self, n: int, rng: random.Random) -> tuple[list[Request], float]:
        """``n`` requests, ``OUTSTANDING`` at a time; returns them and the
        seconds from the first send to the last answer."""
        slots = threading.Semaphore(OUTSTANDING)
        release = lambda _f: slots.release()  # noqa: E731
        reqs = []
        for tenant in self.tenant_sequence(n, rng):
            slots.acquire()
            reqs.append(self.send(tenant, on_done=release))
        self.settle(reqs)
        return reqs, max(r.done for r in reqs) - reqs[0].sent

    def settle(self, reqs: list[Request]) -> None:
        """Wait until every request has its answer."""
        pending = [r.future for r in reqs if r.future is not None]
        _done, not_done = wait_futures(pending, timeout=WAIT_TIMEOUT_S)
        if not_done:
            raise Mismatch(f"{len(not_done)} requests unanswered after {WAIT_TIMEOUT_S}s")

    def check(self, reqs: list[Request]) -> int:
        """Compare each answer with the reference; returns how many failed."""
        preempting = self.workload.preempt_after is not None
        failed = 0
        for req in reqs:
            if not req.ok:
                failed += 1
                continue
            response = req.future.result()
            value, vector = self.reference[self.kernel_of[response.tenant_id]]
            # repr: bit-exact for floats, and NaN (trisolv) equals itself
            if response.result.trapped or repr(response.result.value) != repr(value):
                raise Mismatch(
                    f"{response.tenant_id} request {response.request_id}: value "
                    f"{response.result.value!r} != reference {value!r}"
                )
            # a preempted request's final receipt bills only the last slice;
            # its receipts are summed in final_audit instead
            if not preempting and vector_of(response.receipt.entry.vector) != vector:
                raise Mismatch(
                    f"{response.tenant_id} request {response.request_id}: signed "
                    "vector differs from the reference"
                )
            self.ok_responses += 1
        return failed

    # -- billing -------------------------------------------------------------------

    def seal(self) -> tuple[float, float]:
        """Seal the open epoch and audit it; returns (seal_s, verify_s)."""
        t0 = time.perf_counter()
        seal = self.gateway.seal_epoch()
        t1 = time.perf_counter()
        verdict = self.gateway.verify_epoch(seal)
        t2 = time.perf_counter()
        if not verdict.ok:
            raise Mismatch(f"epoch {seal.epoch} failed its audit: {verdict.errors}")
        return t1 - t0, t2 - t1

    def receipts(self) -> list:
        return [r for t in self.tenants for r in self.gateway.ledger.receipts(t)]

    def final_audit(self) -> None:
        """Exactly-once billing, and checkpoint receipts that add up."""
        self.seal()
        receipts = self.receipts()
        billed = self.gateway.ledger.billed_requests()
        if billed != len(receipts):
            raise Mismatch(f"{billed} billed request ids for {len(receipts)} receipts")
        finals = [r for r in receipts if isinstance(r.request_id, int)]
        if len(finals) != self.ok_responses:
            raise Mismatch(
                f"{len(finals)} final receipts for {self.ok_responses} OK responses"
            )
        if self.workload.preempt_after is None:
            return
        sums: dict[tuple[str, int], list[int]] = {}
        for r in receipts:
            request = int(str(r.request_id).split("#", 1)[0])
            total = sums.setdefault((r.tenant_id, request), [0] * len(VECTOR_FIELDS))
            for i, v in enumerate(vector_of(r.entry.vector)):
                total[i] += v
        for (tenant, request), total in sums.items():
            if tuple(total) != self.reference[self.kernel_of[tenant]][1]:
                raise Mismatch(
                    f"{tenant} request {request}: checkpoint + final receipts do "
                    "not sum to the reference vector"
                )

    # -- rounds --------------------------------------------------------------------

    def warm_up(self) -> None:
        """Two untimed requests per tenant, then seal them away."""
        rng = random.Random(f"{self.seed}/{self.workload.name}/warm-up")
        reqs, _elapsed = self.closed_loop(2 * len(self.tenants), rng)
        if self.check(reqs):
            raise Mismatch("a warm-up request failed")
        self.seal()
        self.calibration = self.calibrate()

    def run_round(self, index: int, round_s: float, probe: Probe | None = None) -> dict:
        """One open-loop phase, its audit, and one closed-loop phase, each
        scaled by the calibration readings taken either side of it."""
        n_open, n_closed = self.workload.round_sizes(round_s)
        rng = random.Random(f"{self.seed}/{self.workload.name}/{index}")
        c0 = self.calibration
        # the arrival rate is set for the reference host: on a slower host
        # the same rate would load the gateway more, and queueing would
        # grow faster than the scaling below can undo
        dilation = min(MAX_DILATION, max(1 / MAX_DILATION, c0 / REFERENCE_CALIBRATION_S))
        open_reqs = self.open_loop(n_open, rng, dilation)
        seal_s, verify_s = self.seal()
        c1 = self.calibrate()
        closed_start = time.perf_counter()
        closed_reqs, elapsed = self.closed_loop(n_closed, rng)
        closed_s = time.perf_counter() - closed_start
        if probe is not None:
            probe.observe(open_reqs, closed_reqs, closed_s)
        self.seal()
        self.calibration = c2 = self.calibrate()
        failed = self.check(open_reqs) + self.check(closed_reqs)
        self.attempted += len(open_reqs) + len(closed_reqs)
        self.failed += failed
        open_scale = 2 * REFERENCE_CALIBRATION_S / (c0 + c1)
        closed_scale = 2 * REFERENCE_CALIBRATION_S / (c1 + c2)
        raw_latency_ms = [(r.done - r.due) * 1e3 for r in open_reqs if r.ok]
        latency_ms = [v * open_scale for v in raw_latency_ms]
        throughput = sum(1 for r in closed_reqs if r.ok) / elapsed
        return {
            "latency_ms": latency_ms,
            "raw_latency_ms": raw_latency_ms,
            "lag_ms": [(r.sent - r.due) * 1e3 for r in open_reqs],
            # refused and failed requests miss the limit too: divided by "open"
            "slo_ok": sum(1 for v in latency_ms if v <= self.workload.slo_ms),
            "open": len(open_reqs),
            "throughput_rps": throughput / closed_scale,
            "raw_throughput_rps": throughput,
            "audit_s": (seal_s + verify_s) * open_scale,
            "raw_audit_s": seal_s + verify_s,
            "seal_s": seal_s,
            "verify_s": verify_s,
            "calibration_s": (c0, c1, c2),
        }


def timed_metrics(rounds: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """End-to-end metrics over the timed rounds, which attempted and failed
    the given numbers of requests, plus run diagnostics."""
    latency = [v for r in rounds for v in r["latency_ms"]]
    raw_latency = [v for r in rounds for v in r["raw_latency_ms"]]
    lags = [v for r in rounds for v in r["lag_ms"]]
    sent = sum(r["open"] for r in rounds)
    n_rounds = len(rounds)

    def med(key):
        return statistics.median(r[key] for r in rounds)

    metrics = {
        "latency_p50_ms": (quantile(latency, 50), len(latency)),
        "throughput_rps": (med("throughput_rps"), n_rounds),
        "slo_ok_ratio": (sum(r["slo_ok"] for r in rounds) / sent, sent),
        "ok_ratio": ((attempted - failed) / attempted, attempted),
        "audit_s": (med("audit_s"), n_rounds),
        "rss_mb": (peak_rss_mb(), 1),
    }
    diagnostics = {
        "unscaled": {
            "latency_p50_ms": quantile(raw_latency, 50),
            "latency_p90_ms": quantile(raw_latency, 90),
            "throughput_rps": med("raw_throughput_rps"),
            "audit_s": med("raw_audit_s"),
        },
        "calibration_ms": statistics.median(
            c * 1e3 for r in rounds for c in r["calibration_s"]
        ),
        # the tail is not a benchmark metric: a busy host period stalls the
        # whole process for milliseconds, which triples control-plane's p90
        "latency_p90_ms": quantile(latency, 90),
        # p99 only where at least ten samples lie beyond it
        "latency_p99_ms": quantile(latency, 99) if len(latency) >= 1000 else None,
        "gen_lag_p99_ms": quantile(lags, 99),
    }
    return metrics, diagnostics


def traced(
    harness: Harness, rounds: int, round_s: float, untraced_rps: float, trace_out: str | None
) -> dict:
    """Traced rounds after the timed ones, for per-layer numbers;
    ``untraced_rps`` is the timed rounds' ``throughput_rps``."""
    tracer = enable_tracing(Tracer(service="e2e-bench"))
    probe = Probe(harness.gateway, tracer, executes=not harness.workload.modeled)
    probe.install()
    try:
        traced_rounds = [harness.run_round(2000 + i, round_s, probe) for i in range(rounds)]
    finally:
        probe.uninstall()
        disable_tracing()
    layers = probe.metrics()
    layers["gateway.retries"] = (harness.gateway.resilience_stats()["retries"], 1)
    layers["ledger.seal_ms"] = (
        statistics.median(r["seal_s"] for r in traced_rounds) * 1e3, rounds
    )
    layers["ledger.verify_ms"] = (
        statistics.median(r["verify_s"] for r in traced_rounds) * 1e3, rounds
    )
    traced_rps = statistics.median(r["throughput_rps"] for r in traced_rounds)
    layers["trace.overhead_ratio"] = (1 - traced_rps / untraced_rps, rounds)
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    return {"layers": layers, "self_time_ms": probe.self_times()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round-seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--traced-rounds", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--tamper-reference", action="store_true")
    args = parser.parse_args(argv)

    harness = Harness(WORKLOADS[args.workload], args.seed, tamper=args.tamper_reference)
    out: dict = {"workload": args.workload, "seed": args.seed}
    try:
        out["raw_setup_s"], out["setup_s"] = harness.set_up()
        if not args.setup_only:
            rss_mb, receipts = current_rss_mb(), len(harness.receipts())
            harness.warm_up()
            rounds = [harness.run_round(i, args.round_seconds) for i in range(args.rounds)]
            out["metrics"], out["diagnostics"] = timed_metrics(
                rounds, harness.attempted, harness.failed
            )
            # state growth over the timed rounds only: the traced rounds
            # also hold every span in memory
            grown_mb = current_rss_mb() - rss_mb
            grown_by = len(harness.receipts()) - receipts
            if args.traced_rounds:
                untraced_rps = out["metrics"]["throughput_rps"][0]
                out.update(
                    traced(
                        harness, args.traced_rounds, args.round_seconds, untraced_rps,
                        args.trace_out,
                    )
                )
                out["layers"]["state.kb_per_receipt"] = (grown_mb * 1024 / grown_by, grown_by)
            harness.final_audit()
    except Mismatch as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.shut_down()
    out["attempted"] = harness.attempted
    out["failed"] = harness.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
