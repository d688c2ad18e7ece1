"""Per-tenant admission control for the metering gateway.

Quotas are enforced *before* dispatch — a rejected request never occupies a
worker, so one noisy tenant cannot starve the pool.  Every rejection is a
typed :class:`AdmissionError` carrying a machine-readable ``code`` and,
where the condition is transient, a ``retry_after_s`` hint (the HTTP 429 /
503 Retry-After analogue).

Four quota dimensions, mirroring what the paper's provider would sell:

* **instruction budget** — cumulative weighted instructions per epoch
  (resets when the billing ledger seals an epoch);
* **memory cap** — the workload's declared linear-memory requirement;
* **queue depth** — in-flight + queued requests per tenant;
* **request rate** — a token bucket (sustained rate plus burst).

Tenant state is **lazy and bounded** when the controller is configured for
scale: with a ``default_quota``, unseen tenants are instantiated on first
admit instead of requiring up-front registration, and with ``max_resident``
the population is capped by evicting the least-recently-admitted
*idle* lazy tenant (``in_flight == 0``; explicitly registered tenants are
pinned and never evicted).  An evicted tenant that returns is re-admitted
under a fresh default-quota state — per-epoch spend tracking restarts for
it, which is the deliberate trade for O(active) rather than O(ever-seen)
memory; evictions are counted (``acctee_quota_evictions``) so the billing
auditor can see how much history was shed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs.instruments import GATEWAY_QUEUE_DEPTH, QUOTA_EVICTIONS


class AdmissionError(Exception):
    """Base class for typed admission rejections."""

    code = "rejected"

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "message": str(self),
            "retry_after_s": self.retry_after_s,
        }


class UnknownTenant(AdmissionError):
    """Request names a tenant the gateway has never registered."""

    code = "unknown-tenant"


class QueueFull(AdmissionError):
    """The tenant's in-flight + queued request count is at its cap."""

    code = "queue-full"


class RateLimited(AdmissionError):
    """The tenant's token bucket is empty."""

    code = "rate-limited"


class InstructionBudgetExhausted(AdmissionError):
    """The tenant spent its per-epoch weighted-instruction budget."""

    code = "instruction-budget-exhausted"


class MemoryCapExceeded(AdmissionError):
    """The workload's declared memory requirement exceeds the tenant's cap."""

    code = "memory-cap-exceeded"


@dataclass(frozen=True)
class TenantQuota:
    """What one tenant bought.  ``None`` disables a dimension."""

    instruction_budget: int | None = None  # weighted instructions per epoch
    memory_cap_bytes: int | None = None
    max_queue_depth: int | None = None
    requests_per_second: float | None = None
    burst: int = 1  # token-bucket capacity when rate limiting is on


@dataclass(slots=True)
class _TenantState:
    # slots=True matters here: at scale these states are minted on the
    # admit hot path (lazy tenants churn through the resident cap), and a
    # slotted instance constructs measurably faster and ~3x smaller
    quota: TenantQuota
    in_flight: int = 0
    spent_instructions: int = 0  # this epoch
    tokens: float = 0.0
    # None = never refilled; a plain 0.0 would be indistinguishable from a
    # legitimate clock reading of zero (injected test clocks, monotonic
    # clocks near process start) and silently skip the first refill interval
    last_refill: float | None = None
    admitted: int = 0
    rejected: int = 0
    settled: int = 0
    # registered tenants are pinned (never evicted); lazily instantiated
    # default-quota tenants are fair game for the idle LRU
    pinned: bool = True

    def __post_init__(self) -> None:
        self.tokens = float(self.quota.burst)


class AdmissionController:
    """Tracks per-tenant consumption and decides admission.

    Thread-safe: one lock guards the tenant dict.  The gateway calls
    :meth:`admit` from submitting threads and :meth:`settle` from its
    front-end; ``clock`` is injectable so tests can drive the token bucket
    deterministically.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        default_quota: TenantQuota | None = None,
        max_resident: int | None = None,
    ):
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        self.default_quota = default_quota
        self.max_resident = max_resident
        self.evictions = 0

    def register(self, tenant_id: str, quota: TenantQuota) -> None:
        with self._lock:
            self._tenants[tenant_id] = _TenantState(quota=quota, pinned=True)

    def resident(self) -> int:
        """Tenant states currently held in memory."""
        with self._lock:
            return len(self._tenants)

    def _evict_idle(self, keep: str) -> None:
        """Shed the least-recently-admitted idle lazy tenant; holds the lock.

        Dict order is insertion order and :meth:`admit` re-inserts a lazy
        tenant's entry on every successful admission, so iteration order
        *is* recency order for evictable states.  Pinned or in-flight
        tenants are skipped; if everything is busy the population
        temporarily exceeds its cap rather than rejecting traffic (in-flight
        counts are bounded by queue-depth quotas, so so is the excess).
        """
        if self.max_resident is None or len(self._tenants) <= self.max_resident:
            return
        for tenant_id, state in self._tenants.items():
            if tenant_id == keep or state.pinned or state.in_flight > 0:
                continue
            del self._tenants[tenant_id]
            self.evictions += 1
            # the metric is reported in batches of 64: at scale an eviction
            # happens on nearly every tail-tenant admit, and a per-event
            # counter inc would be real hot-path overhead.  self.evictions
            # stays exact; the metric is at most a batch behind.
            if self.evictions % 64 == 0:
                QUOTA_EVICTIONS.inc(64)
            return

    def quota(self, tenant_id: str) -> TenantQuota:
        state = self._tenants.get(tenant_id)
        if state is None:
            raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
        return state.quota

    # -- admission ---------------------------------------------------------------

    def admit(self, tenant_id: str, memory_required_bytes: int = 0) -> None:
        """Admit one request or raise a typed :class:`AdmissionError`.

        On success the tenant's in-flight count is incremented; the caller
        must eventually :meth:`settle` the request (even if execution fails).
        """
        with self._lock:
            fresh = False
            state = self._tenants.get(tenant_id)
            if state is None:
                if self.default_quota is None:
                    raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
                # lazy instantiation: first contact mints a default-quota
                # state instead of demanding up-front registration
                state = self._tenants[tenant_id] = _TenantState(
                    quota=self.default_quota, pinned=False
                )
                fresh = True
                self._evict_idle(keep=tenant_id)
            quota = state.quota
            try:
                if (
                    quota.memory_cap_bytes is not None
                    and memory_required_bytes > quota.memory_cap_bytes
                ):
                    raise MemoryCapExceeded(
                        f"workload needs {memory_required_bytes} B, "
                        f"cap is {quota.memory_cap_bytes} B"
                    )
                if (
                    quota.instruction_budget is not None
                    and state.spent_instructions >= quota.instruction_budget
                ):
                    raise InstructionBudgetExhausted(
                        f"spent {state.spent_instructions} of "
                        f"{quota.instruction_budget} weighted instructions this epoch"
                    )
                if (
                    quota.max_queue_depth is not None
                    and state.in_flight >= quota.max_queue_depth
                ):
                    raise QueueFull(
                        f"{state.in_flight} requests already queued "
                        f"(cap {quota.max_queue_depth})",
                        retry_after_s=0.05,
                    )
                if quota.requests_per_second is not None:
                    self._refill(state)
                    if state.tokens < 1.0:
                        raise RateLimited(
                            f"rate cap {quota.requests_per_second}/s exceeded",
                            retry_after_s=(1.0 - state.tokens)
                            / quota.requests_per_second,
                        )
                    state.tokens -= 1.0
            except AdmissionError:
                state.rejected += 1
                raise
            state.in_flight += 1
            state.admitted += 1
            if self.max_resident is not None and not state.pinned and not fresh:
                # re-insert so dict order tracks admission recency: the LRU
                # scan in _evict_idle reads insertion order as recency (a
                # freshly minted state is already last in dict order)
                del self._tenants[tenant_id]
                self._tenants[tenant_id] = state
            if state.pinned:
                # per-tenant queue depth is only published for registered
                # tenants: for lazily minted mass tenants the series would
                # all route to the __other__ overflow key, where last-write-
                # wins depth is meaningless — exactly the unbounded-
                # cardinality telemetry the governance layer exists to shed
                GATEWAY_QUEUE_DEPTH.set(state.in_flight, tenant=tenant_id)

    def settle(self, tenant_id: str, weighted_instructions: int = 0) -> None:
        """Record one finished request: free its slot, charge its budget."""
        with self._lock:
            state = self._tenants.get(tenant_id)
            if state is None:
                raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
            state.in_flight = max(0, state.in_flight - 1)
            state.spent_instructions += weighted_instructions
            state.settled += 1
            if state.pinned:
                GATEWAY_QUEUE_DEPTH.set(state.in_flight, tenant=tenant_id)

    def reset_epoch(self) -> None:
        """Start a new accounting epoch: instruction budgets reset."""
        with self._lock:
            for state in self._tenants.values():
                state.spent_instructions = 0

    def _refill(self, state: _TenantState) -> None:
        now = self._clock()
        rate = state.quota.requests_per_second or 0.0
        if state.last_refill is not None:
            state.tokens = min(
                float(state.quota.burst),
                state.tokens + (now - state.last_refill) * rate,
            )
        state.last_refill = now

    # -- introspection -----------------------------------------------------------

    def stats(self, tenant_id: str) -> dict[str, int]:
        # snapshot under the lock: admit()/settle() mutate these fields
        # from other threads, and callers rely on the counters being
        # mutually consistent (admitted - in_flight == settled at all times)
        with self._lock:
            state = self._tenants.get(tenant_id)
            if state is None:
                raise UnknownTenant(f"tenant {tenant_id!r} is not registered")
            return {
                "admitted": state.admitted,
                "rejected": state.rejected,
                "in_flight": state.in_flight,
                "settled": state.settled,
                "spent_instructions": state.spent_instructions,
            }
