"""Bounded-memory streaming summaries for tenant-scale telemetry.

The observability stack's per-tenant structures (metric labelsets, quota
states) are exact dicts — O(ever-seen tenants).  At 10^6
tenants that is the memory bill nobody ordered.  This module provides the
bounded-memory substitutes:

* :class:`SpaceSaving` — top-K heavy hitters (Metwally, Agrawal, El Abbadi,
  "Efficient computation of frequent and top-k elements in data streams").
  ``k`` counters total.  Guarantees, with ``N`` the stream total:

  - **bounded error**: every tracked key's ``(count, error)`` brackets its
    true frequency, ``count - error <= true <= count``, and
    ``error <= N / k``;
  - **absent keys are light**: once the summary is full, no untracked key
    truly occurs more often than the minimum tracked count;
  - **guaranteed heavy hitters**: any key with ``true(x) > N / k`` is
    present in the summary.

* :class:`HyperLogLog` — distinct-count estimation in ``2^p`` one-byte
  registers (Flajolet et al.), relative error ``~1.04 / sqrt(2^p)``.
  Hashing is deterministic (BLAKE2b with a fixed salt), never Python's
  randomized ``hash()``, so estimates agree across processes and replays.

:class:`TenantSpill` packages the governance policy built from these
parts: the first ``budget`` distinct keys stay exact, everything later
routes to the single ``OVERFLOW_KEY`` series while one Space-Saving
summary ranks the spilled keys.

Nothing here imports the metrics registry, so :mod:`repro.obs.metrics`
can depend on this module without a cycle.

None of the classes are thread-safe on their own; callers (metric
instruments) wrap access in their own locks.
"""

from __future__ import annotations

import hashlib
import heapq
import math

#: The single series that absorbs every over-budget tenant's observations.
OVERFLOW_KEY = "__other__"


class SpaceSaving:
    """Top-K heavy-hitter summary in at most ``k`` counters.

    Each tracked key carries ``(count, error)``: ``count`` is an
    overestimate of the key's true frequency and ``error`` bounds the
    overestimation (``count - error <= true <= count``).  When a new key
    arrives with all ``k`` counters occupied, the minimum counter is
    evicted and the newcomer inherits its count as error — that is the
    whole algorithm, and the source of the ``N/k`` max-error bound.
    """

    __slots__ = ("k", "total", "_counters", "_heap")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.total = 0  # stream weight offered so far
        self._counters: dict[str, list[int]] = {}  # key -> [count, error]
        # lazy min-heap over (count, key): entries go stale when a tracked
        # key's count grows (we do not re-push on every offer); the heap
        # invariant is one entry per tracked key, refreshed at pop time.
        # Counts only ever increase, so a refreshed entry sinks and the
        # amortized victim lookup is O(log k) instead of the O(k) min-scan
        # that dominates profiles at 10^6-tenant spill rates.
        self._heap: list[tuple[int, str]] = []

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def offer(self, key: str, amount: int = 1) -> None:
        """Fold ``amount`` occurrences of ``key`` into the summary."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        self.total += amount
        entry = self._counters.get(key)
        if entry is not None:
            entry[0] += amount
            return
        if len(self._counters) < self.k:
            self._counters[key] = [amount, 0]
            heapq.heappush(self._heap, (amount, key))
            return
        floor, victim_key = self._min_entry()
        del self._counters[victim_key]
        self._counters[key] = [floor + amount, floor]
        heapq.heapreplace(self._heap, (floor + amount, key))

    def _min_entry(self) -> tuple[int, str]:
        """Accurate ``(count, key)`` minimum; settles stale heap entries.

        Pops the heap until its top matches the live counter: stale tops
        (count grew since push) are re-pushed with their current count via
        ``heapreplace``.  Counts never decrease, so every settle moves an
        entry strictly down and the loop terminates.
        """
        heap = self._heap
        counters = self._counters
        while True:
            count, key = heap[0]
            current = counters[key][0]
            if current == count:
                return count, key
            heapq.heapreplace(heap, (current, key))

    def top(self) -> list[tuple[str, int, int]]:
        """``(key, count, error)`` rows, highest estimate first.

        Ties break on the key so the ordering is deterministic across
        processes (dict order is insertion order, which differs per run).
        """
        return sorted(
            ((key, entry[0], entry[1]) for key, entry in self._counters.items()),
            key=lambda row: (-row[1], row[0]),
        )


class HyperLogLog:
    """Distinct-count estimator over ``2^p`` registers.

    Standard error is ``~1.04 / sqrt(2^p)`` — the default ``p=12`` (4 KiB)
    lands around 1.6%.  Small cardinalities use the linear-counting
    correction, so exact-ish answers come back in the range the governance
    budget cares about, and estimates only matter past it.
    """

    __slots__ = ("p", "m", "_registers", "_inv_sum", "_zeros")

    _SALT = b"acctee-hll"

    def __init__(self, p: int = 12):
        if not 4 <= p <= 16:
            raise ValueError("p must be in [4, 16]")
        self.p = p
        self.m = 1 << p
        self._registers = bytearray(self.m)
        # running sum(2^-register) and zero-register count, maintained
        # incrementally so estimate() is O(1) — the governance layer reads
        # it on every newly seen tenant
        self._inv_sum = float(self.m)
        self._zeros = self.m

    def add(self, key: str) -> None:
        h = int.from_bytes(
            hashlib.blake2b(
                key.encode("utf-8"), digest_size=8, salt=self._SALT
            ).digest(),
            "big",
        )
        index = h >> (64 - self.p)
        tail = h & ((1 << (64 - self.p)) - 1)
        # rank = position of the leftmost 1-bit in the (64-p)-bit tail
        rank = (64 - self.p) - tail.bit_length() + 1
        current = self._registers[index]
        if rank > current:
            self._registers[index] = rank
            self._inv_sum += 2.0**-rank - 2.0**-current
            if current == 0:
                self._zeros -= 1

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        raw = alpha * m * m / self._inv_sum
        if raw <= 2.5 * m and self._zeros:
            return m * math.log(m / self._zeros)  # linear counting
        return raw


class TenantSpill:
    """Cardinality governor: exact series for the first ``budget`` keys,
    ``OVERFLOW_KEY`` routing for the rest.

    :meth:`admit` is the one hot-path call.  It returns the series a key's
    observations should land in — the key itself while the exact budget
    has room (or the key is already tracked), ``OVERFLOW_KEY`` once it
    does not.  Weighed spilled observations fold into one Space-Saving
    summary of ``top_k`` counters, so heavy tenants remain identifiable
    and nothing is silently lost: the overflow series conserves totals,
    :meth:`top` ranks spilled keys within the summary's bounds, and
    :attr:`spills` counts the spilled labelsets' entries into the summary.
    A labelset the summary evicted enters again when it returns, so with
    more than ``top_k`` spilled labelsets in rotation ``spills`` exceeds
    their distinct number (100 tenants cycled three times through
    ``budget=4, top_k=8`` give 288 for 96); counting them exactly would
    need state for every labelset ever seen.
    """

    __slots__ = ("budget", "top_k", "_tracked", "_heavy", "_hll", "_spill_events")

    # _tracked maps tracked key -> exact offered weight, so a *global*
    # top-K (exact in-budget rows beside sketched over-budget rows) is
    # answerable when the caller offers every observation (instruments
    # offer only a series' first one, and rank their exact rows from their
    # own values).

    def __init__(self, budget: int = 512, top_k: int = 64):
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.budget = budget
        self.top_k = top_k
        self._tracked: dict[str, int] = {}
        self._heavy = SpaceSaving(top_k)
        self._hll = HyperLogLog()
        self._spill_events = 0  # entries of spilled keys into the summary

    @property
    def spills(self) -> int:
        """Entries of labelsets denied an exact series into the spill
        summary; one evicted from it and seen again counts again."""
        return self._spill_events

    def admit(self, key: str, amount: int = 1) -> str:
        """Route one observation: returns ``key`` (exact) or ``OVERFLOW_KEY``.

        ``amount=0`` routes without weighing: the key still claims a budget
        slot if one is free (and counts toward cardinality), but a spilled
        zero-weight observation skips the summary entirely — use it for
        observations that should follow a tenant's series without counting
        toward its ranking (gauges and histograms weigh nothing, since no
        reader ranks their spilled tenants).
        """
        count = self._tracked.get(key)
        if count is not None:
            self._tracked[key] = count + amount
            return key
        if len(self._tracked) < self.budget:
            self._tracked[key] = amount
            self._hll.add(key)
            return key
        if amount == 0:
            return OVERFLOW_KEY  # route only: no summary maintenance
        heavy = self._heavy
        if key not in heavy:
            self._hll.add(key)
            self._spill_events += 1
        heavy.offer(key, amount)
        return OVERFLOW_KEY

    def tracked(self) -> frozenset[str]:
        return frozenset(self._tracked)

    def tracked_count(self) -> int:
        return len(self._tracked)

    def top(self, n: int | None = None) -> list[tuple[str, int, int, bool]]:
        """Global top rows ``(key, count, error, exact)``.

        Exact rows come from the tracked dict (error 0); sketched rows
        from the Space-Saving summary.  Valid as a *global* ranking only
        when every observation was routed through :meth:`admit` with its
        true weight.
        """
        rows = [(key, count, 0, True) for key, count in self._tracked.items()]
        rows.extend(
            (key, count, error, False) for key, count, error in self._heavy.top()
        )
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows if n is None else rows[:n]

    def cardinality(self) -> int:
        """Approximate distinct keys ever admitted (exact below the budget)."""
        return max(len(self._tracked), round(self._hll.estimate()))

    def spilled_total(self) -> int:
        """Total weighed observation weight routed to the overflow series."""
        return self._heavy.total

    def to_json(self) -> dict:
        return {
            "budget": self.budget,
            "tracked": len(self._tracked),
            "cardinality": self.cardinality(),
            "spilled_labelsets": self.spills,
            "spilled_total": self.spilled_total(),
            "top_k": self.top_k,
        }
