"""Fault injection and failure semantics for the metering gateway.

The paper's deployment targets (§4.3: FaaS providers, volunteer computing)
assume workers crash, hang and lie.  This module gives the gateway the
vocabulary to survive that:

* a **typed failure taxonomy** (:class:`GatewayFailure` and subclasses) so
  callers can distinguish "your request timed out" from "the worker lied
  about its meter readings" — the serving-layer analogue of the typed
  :class:`~repro.service.quota.AdmissionError` hierarchy;
* a :class:`ResiliencePolicy` — per-request wall-clock deadlines, bounded
  retries with exponential backoff and *deterministic* jitter (seeded, so
  chaos runs replay exactly);
* :func:`validate_raw` — sanity checks on worker-reported meter readings
  before the accounting enclave signs them (S-FaaS-style: never turn an
  implausible reading into a receipt);
* a :class:`FaultPlan` — a seedable, per-Nth-request fault schedule
  (``crash`` / ``hang`` / ``corrupt`` / ``slow``) that the gateway stamps
  onto outgoing :class:`~repro.service.worker.ExecutionTask`\\ s and the
  worker acts out, wired into ``repro loadtest --faults``.

Determinism is deliberate throughout: the same spec + seed injects the same
faults into the same request ids, and backoff jitter is a hash, not a PRNG —
a failing chaos run can be replayed bit-for-bit.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace

from repro.tcrypto.hashing import sha256
from repro.wasm.memory import PAGE_SIZE

#: Fault kinds a :class:`FaultPlan` can inject, in the order rules are matched.
FAULT_KINDS = ("crash", "hang", "corrupt", "slow")


# -- typed failure taxonomy ----------------------------------------------------


class GatewayFailure(Exception):
    """Base class for typed request failures (the post-admission analogue of
    :class:`~repro.service.quota.AdmissionError`)."""

    code = "failure"

    def to_json(self) -> dict:
        return {"code": self.code, "message": str(self)}


class DeadlineExceeded(GatewayFailure):
    """The request's wall-clock deadline elapsed before a worker result
    settled; its admission slot has been released and nothing was billed."""

    code = "deadline-exceeded"


class WorkerCrashed(GatewayFailure):
    """A worker process died while it may have been running the request.
    Transient: the gateway retries these."""

    code = "worker-crashed"


class RetriesExhausted(GatewayFailure):
    """Transient failures persisted past the retry budget."""

    code = "retries-exhausted"


class ResultRejected(GatewayFailure):
    """The worker's meter readings failed sanity validation; the accounting
    enclave never signed them.  Terminal: a lying worker is not retried."""

    code = "result-rejected"


class InjectedCrash(RuntimeError):
    """Raised worker-side by the ``crash`` fault when the worker shares the
    gateway process (threaded pool) — killing it for real would take the
    gateway down with it.  Classified as transient, like a real crash."""


#: Exception types the retry layer treats as transient worker failures.
def is_transient(exc: BaseException) -> bool:
    return isinstance(exc, (InjectedCrash, WorkerCrashed))


# -- resilience policy ---------------------------------------------------------


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the gateway behaves when workers fail.

    The defaults change nothing observable on the happy path: retries only
    trigger on transient failures, and no deadline means no watchdog — a
    fault-free run stays byte-identical to a gateway without any policy.
    """

    deadline_s: float | None = None  # per-request wall clock, watchdog-enforced
    max_retries: int = 2  # re-dispatches after the first attempt
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter_seed: int = 0
    #: Sanity-validate worker meter readings before the AE signs them.  Only
    #: ever disable this to *demonstrate* what validation prevents — the
    #: billing-drift auditor must then catch the implausible signed receipt
    #: (``repro loadtest --faults corrupt:… --no-validate --slo``).
    validate_results: bool = True

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5x, 1.0x].

        The jitter is a hash of ``(seed, request_id, attempt)`` — two
        requests retrying after one pool break spread out, yet every replay
        of the same run waits exactly as long.
        """
        base = min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))
        digest = sha256(
            f"backoff:{self.jitter_seed}:{request_id}:{attempt}".encode()
        )
        frac = int.from_bytes(digest[:4], "big") / 2**32
        return base * (0.5 + 0.5 * frac)


# -- worker-result sanity validation -------------------------------------------


def validate_raw(raw, max_instructions: int | None = None) -> list[str]:
    """Sanity-check worker-reported meter readings before accounting.

    Returns human-readable problems (empty = plausible).  A reading that
    fails here must never reach :meth:`AccountingEnclave.account_span` —
    signing it would turn a worker's lie into a cryptographic receipt.  Checks are
    necessarily one-sided (a worker under-reporting a counter is caught by
    attestation + instrumentation, not here): the counter must be a
    non-negative number the configured limit allows, and the memory story
    (initial pages, grow history, peak) must be self-consistent, exploiting
    that linear memory never shrinks.
    """
    problems: list[str] = []
    if raw.counter_value < 0:
        problems.append(f"counter is negative ({raw.counter_value})")
    if max_instructions is not None and raw.counter_value > max_instructions:
        problems.append(
            f"counter {raw.counter_value} exceeds the execution limit "
            f"{max_instructions}"
        )
    if raw.io_bytes_in < 0 or raw.io_bytes_out < 0:
        problems.append("negative I/O byte counts")
    if raw.initial_pages < 0:
        problems.append("negative initial page count")
    if raw.initial_pages > 0 and raw.peak_memory_bytes < raw.initial_pages * PAGE_SIZE:
        problems.append(
            f"peak memory {raw.peak_memory_bytes} B below the initial "
            f"{raw.initial_pages} pages"
        )
    last_at, last_pages = -1, raw.initial_pages
    for at, pages in raw.grow_history:
        if at < last_at:
            problems.append("grow history instruction indices go backwards")
            break
        if pages < last_pages:
            problems.append("grow history shrinks linear memory")
            break
        last_at, last_pages = at, pages
    if raw.grow_history and raw.peak_memory_bytes < last_pages * PAGE_SIZE:
        problems.append(
            f"peak memory {raw.peak_memory_bytes} B below the final grown "
            f"size of {last_pages} pages"
        )
    return problems


# -- fault plans ---------------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """Inject ``kind`` into every ``every``-th request, phase-shifted by a
    seed-derived offset so independent rules don't all pile onto request 0."""

    kind: str
    every: int
    phase: int

    def fires(self, request_id: int) -> bool:
        return request_id % self.every == self.phase


class FaultPlan:
    """A deterministic schedule of injected faults, keyed by request id.

    Build one from a spec string like ``"crash:7,hang:13"`` (inject a crash
    into every 7th request and a hang into every 13th).  The first matching
    rule wins when several fire on the same request.  ``seed`` shifts which
    residue class each rule hits — same spec + seed ⇒ identical schedule.
    """

    def __init__(
        self,
        rules: tuple[FaultRule, ...],
        seed: int = 0,
        hang_s: float = 3.0,
        slow_s: float = 0.2,
    ):
        self.rules = rules
        self.seed = seed
        self.hang_s = hang_s
        self.slow_s = slow_s

    @classmethod
    def parse(
        cls, spec: str, seed: int = 0, hang_s: float = 3.0, slow_s: float = 0.2
    ) -> "FaultPlan":
        """Parse ``"kind:N[,kind:N...]"`` into a plan."""
        rules = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, every_text = part.partition(":")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} (choose from {', '.join(FAULT_KINDS)})"
                )
            try:
                every = int(every_text)
            except ValueError:
                raise ValueError(f"fault {part!r} needs an integer period, e.g. crash:7")
            if every < 1:
                raise ValueError(f"fault period must be >= 1, got {every}")
            digest = sha256(f"fault:{kind}:{seed}".encode())
            phase = int.from_bytes(digest[:4], "big") % every
            rules.append(FaultRule(kind=kind, every=every, phase=phase))
        if not rules:
            raise ValueError("empty fault spec")
        return cls(tuple(rules), seed=seed, hang_s=hang_s, slow_s=slow_s)

    def fault_for(self, request_id: int) -> str | None:
        """The fault to inject into this request (None = run clean)."""
        for rule in self.rules:
            if rule.fires(request_id):
                return rule.kind
        return None

    def fault_arg(self, kind: str) -> float:
        """The numeric argument shipped with a fault (sleep seconds)."""
        if kind == "hang":
            return self.hang_s
        if kind == "slow":
            return self.slow_s
        return 0.0

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "hang_s": self.hang_s,
            "slow_s": self.slow_s,
            "rules": [
                {"kind": r.kind, "every": r.every, "phase": r.phase}
                for r in self.rules
            ],
        }


# -- worker-side fault actuation -----------------------------------------------


def perform_pre_fault(kind: str | None, arg: float) -> None:
    """Act out a pre-execution fault inside the worker.

    ``crash`` kills the worker process outright when it really is a child
    process (as a segfaulting worker would) and raises
    :class:`InjectedCrash` when the worker is a thread of the gateway
    process; a positive ``arg`` delays the crash that long, so the worker
    dies while its task is in flight.  ``hang`` and ``slow`` sleep for the shipped
    duration — distinguished only by whether the gateway's deadline
    outlasts them.  The task's slice record notes the fault, from which
    the gateway emits ``fault_performed``
    (:data:`~repro.core.slices.SLICE`).
    """
    if arg > 0:
        time.sleep(arg)
    if kind == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(13)
        raise InjectedCrash("injected worker crash")


def corrupt_raw(raw):
    """The ``corrupt`` fault: return meter readings no honest run produces
    (a negative counter), which :func:`validate_raw` must reject."""
    return replace(raw, counter_value=-raw.counter_value - 1)
