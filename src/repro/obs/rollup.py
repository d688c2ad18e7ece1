"""Rolling-window aggregation over the telemetry event stream.

A :class:`RollingAggregator` subscribes to the event log and maintains a ring
of fixed-width time slices (default: 120 slices of one second).  Each slice
holds per-key event counts plus one log-bucket latency histogram; window
queries (``rate``, ``count``, ``quantile``) merge the slices covering the
requested trailing window.  Memory is O(slices × keys) regardless of event
rate, and advancing the ring is O(1) per event — the aggregator can watch a
gateway at full load without growing.

Time comes from the *events*, never from a wall clock read at query time by
default: the aggregator's notion of "now" is the newest event timestamp it
has seen.  That makes live evaluation and offline replay
(``repro alerts --replay events.jsonl``) produce identical answers for the
same stream — the SLO engine evaluates against replayed time, not against
whenever the operator happened to rerun the file.

Counting keys are tuples: ``(kind,)`` for every event, ``(kind, sub)`` when
the event carries a discriminating field (``outcome``, ``code``, ``fault``),
and ``(kind, "tenant", tenant)`` for per-tenant break-downs.  Latency
observations come from ``settled`` events with ``outcome == "ok"`` and use the
same log-scale buckets (and the same :func:`~repro.obs.metrics.bucket_index`
edge semantics) as the metrics registry's histograms.

The per-tenant dimension is **cardinality-governed**: only the first
``tenant_budget`` distinct tenants get exact ``(kind, "tenant", t)`` keys.
Later tenants fold into ``(kind, "tenant", "__other__")`` while one
Space-Saving summary keeps the heaviest of them recoverable within
documented bounds.  :meth:`top_tenants` ranks exact rows beside the
summary's sketched rows, so ``repro top`` and the SLO engine evaluate
top-K plus one overflow series instead of 10^6 keys, and window memory
stays O(slices × (kinds + budget)) no matter how many tenants ever appear.
"""

from __future__ import annotations

import threading

from repro.obs.events import Event
from repro.obs.metrics import LATENCY_BUCKETS, bucket_index
from repro.obs.sketch import OVERFLOW_KEY, TenantSpill

#: Event fields that become ``(kind, value)`` counting sub-keys.
SUBKEY_FIELDS = ("outcome", "code", "fault")

#: Event kinds that weigh into the tenant spill summary.  Every
#: tenant-carrying event still *routes* through the governor (so the ring
#: key folds to the overflow series consistently), but only request-level
#: events count toward a tenant's sketched weight: the top-K ranking then
#: reads "admission attempts per tenant" instead of a mixed event tally,
#: and the spill path does summary maintenance once per request rather
#: than once per narrative event.
WEIGHED_KINDS = frozenset({"admit", "reject"})

#: Default exact-tenant budget for the window ring (see module docstring).
DEFAULT_TENANT_BUDGET = 512

#: Space-Saving counters per ranked row: the spill summary holds
#: ``SPILL_COUNTERS_PER_ROW * top_k`` counters.  A summary barely larger
#: than the rows it reports misses most of the true heaviest tenants; at
#: 8x the top rows of a Zipf(1.1) tail come back with near-exact counts.
SPILL_COUNTERS_PER_ROW = 8


class _Slice:
    """One ring slot: a slice id, per-key counts and a latency histogram."""

    __slots__ = ("slice_id", "counts", "lat_counts", "lat_sum", "lat_n")

    def __init__(self, n_buckets: int):
        self.slice_id = -1
        self.counts: dict[tuple, int] = {}
        self.lat_counts = [0] * n_buckets
        self.lat_sum = 0.0
        self.lat_n = 0

    def reset(self, slice_id: int) -> None:
        self.slice_id = slice_id
        self.counts.clear()
        for i in range(len(self.lat_counts)):
            self.lat_counts[i] = 0
        self.lat_sum = 0.0
        self.lat_n = 0


class RollingAggregator:
    """Ring-buffer windows over event counts and latency histograms."""

    def __init__(
        self,
        slice_s: float = 1.0,
        slices: int = 120,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        tenant_budget: int = DEFAULT_TENANT_BUDGET,
        top_k: int = 64,
    ):
        if slice_s <= 0:
            raise ValueError("slice_s must be positive")
        if slices < 2:
            raise ValueError("need at least two slices")
        self.slice_s = float(slice_s)
        self.slices = slices
        self.buckets = tuple(float(b) for b in buckets)
        self._ring = [_Slice(len(self.buckets) + 1) for _ in range(slices)]
        self._lock = threading.Lock()
        self.now = 0.0  # newest event timestamp observed
        self.events_seen = 0
        self.tenant_budget = tenant_budget
        self.top_k = top_k
        self._tenants = TenantSpill(
            budget=tenant_budget, top_k=SPILL_COUNTERS_PER_ROW * top_k
        )

    # -- ingestion ---------------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Fold one event into its time slice (the log-subscriber entry point)."""
        keys = [(event.kind,)]
        fields = event.fields
        for sub in SUBKEY_FIELDS:
            value = fields.get(sub)
            if value is not None:
                keys.append((event.kind, str(value)))
        tenant = fields.get("tenant")
        latency = None
        if event.kind == "settled" and fields.get("outcome") == "ok":
            latency = fields.get("latency_s")
        with self._lock:
            if tenant is not None:
                # over-budget tenants fold into the single overflow key;
                # the spill summary ranks the heaviest of them
                # (weighed by request-level events only, see WEIGHED_KINDS)
                routed = self._tenants.admit(
                    str(tenant), 1 if event.kind in WEIGHED_KINDS else 0
                )
                keys.append((event.kind, "tenant", routed))
            if event.ts_s > self.now:
                self.now = event.ts_s
            self.events_seen += 1
            slot = self._slot(event.ts_s)
            if slot is None:
                return  # older than the ring's horizon: nothing to fold into
            for key in keys:
                slot.counts[key] = slot.counts.get(key, 0) + 1
            if latency is not None:
                slot.lat_counts[bucket_index(self.buckets, float(latency))] += 1
                slot.lat_sum += float(latency)
                slot.lat_n += 1

    def _slot(self, ts_s: float) -> _Slice | None:
        """The (possibly recycled) slot for a timestamp; caller holds the lock."""
        slice_id = int(ts_s // self.slice_s)
        newest = int(self.now // self.slice_s)
        if slice_id <= newest - self.slices:
            return None
        slot = self._ring[slice_id % self.slices]
        if slot.slice_id != slice_id:
            slot.reset(slice_id)
        return slot

    # -- window queries ----------------------------------------------------------

    def _window_slots(self, window_s: float, now: float | None) -> list[_Slice]:
        at = self.now if now is None else now
        newest = int(at // self.slice_s)
        span = max(1, min(self.slices, int(round(window_s / self.slice_s))))
        oldest = newest - span + 1
        return [
            slot for slot in self._ring if oldest <= slot.slice_id <= newest
        ]

    def count(self, key: tuple | str, window_s: float, now: float | None = None) -> int:
        """Events matching ``key`` in the trailing window ending at ``now``."""
        if isinstance(key, str):
            key = (key,)
        with self._lock:
            return sum(s.counts.get(key, 0) for s in self._window_slots(window_s, now))

    def rate(self, key: tuple | str, window_s: float, now: float | None = None) -> float:
        """Per-second event rate over the trailing window."""
        return self.count(key, window_s, now) / max(window_s, self.slice_s)

    def latency_stats(
        self, window_s: float, now: float | None = None
    ) -> tuple[list[int], float, int]:
        """Merged (bucket counts, sum, n) of the window's latency histogram."""
        with self._lock:
            slots = self._window_slots(window_s, now)
            counts = [0] * (len(self.buckets) + 1)
            total, n = 0.0, 0
            for slot in slots:
                for i, c in enumerate(slot.lat_counts):
                    counts[i] += c
                total += slot.lat_sum
                n += slot.lat_n
            return counts, total, n

    def quantile(self, q: float, window_s: float, now: float | None = None) -> float:
        """An upper bound on the q-quantile latency over the window.

        Returns the smallest bucket bound whose cumulative count reaches
        ``q`` of the observations — deterministic, and conservative the way
        an alert wants (never *under*-reports the tail).  ``inf`` when the
        quantile lands in the overflow bucket; ``0.0`` with no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        counts, _total, n = self.latency_stats(window_s, now)
        if n == 0:
            return 0.0
        need = q * n
        cumulative = 0
        for bound, c in zip(self.buckets, counts):
            cumulative += c
            if cumulative >= need:
                return bound
        return float("inf")

    def mean_latency(self, window_s: float, now: float | None = None) -> float:
        _counts, total, n = self.latency_stats(window_s, now)
        return total / n if n else 0.0

    def ratio(
        self,
        numerator: tuple | str,
        denominators: list,
        window_s: float,
        now: float | None = None,
    ) -> float:
        """``count(numerator) / sum(count(d) for d in denominators)``; 0 when empty."""
        denom = sum(self.count(d, window_s, now) for d in denominators)
        if denom == 0:
            return 0.0
        return self.count(numerator, window_s, now) / denom

    # -- tenant governance queries -------------------------------------------------

    def key_census(self) -> dict:
        """Distinct keys held across the whole ring (boundedness probe).

        ``tenant_keys`` can never exceed ``tenant_budget + 1`` distinct
        tenants (the exact series plus the overflow key) times the event
        kinds — the invariant the scale soak and the cardinality
        regression test assert.
        """
        keys: set[tuple] = set()
        tenants: set[str] = set()
        with self._lock:
            for slot in self._ring:
                for key in slot.counts:
                    keys.add(key)
                    if len(key) == 3 and key[1] == "tenant":
                        tenants.add(key[2])
        return {"total_keys": len(keys), "tenant_keys": len(tenants)}

    def overflow_ratio(self, window_s: float, now: float | None = None) -> float:
        """Fraction of the window's tenant-keyed events in the overflow series.

        0.0 means every active tenant has an exact series; climbing toward
        1.0 means the exact budget no longer covers the traffic mix and
        per-tenant answers increasingly come from the spill summary.
        """
        overflow = 0
        total = 0
        with self._lock:
            for slot in self._window_slots(window_s, now):
                for key, c in slot.counts.items():
                    if len(key) == 3 and key[1] == "tenant":
                        total += c
                        if key[2] == OVERFLOW_KEY:
                            overflow += c
        return overflow / total if total else 0.0

    def tenant_cardinality(self) -> int:
        """Approximate distinct tenants ever observed (exact below budget)."""
        with self._lock:
            return self._tenants.cardinality()

    def top_tenants(self, n: int | None = None) -> list[dict]:
        """Global top-N tenants by lifetime request count (``WEIGHED_KINDS``).

        Exact rows (in-budget tenants, ``error == 0``) rank beside sketched
        rows from the Space-Saving summary, whose ``events - error <= true
        <= events`` bracket each spilled tenant — the rollup that replaces
        iterating every tenant key.  The ``events`` field counts admission
        attempts, the one-per-request weight the spill summary folds.
        """
        with self._lock:
            rows = self._tenants.top(n)
        return [
            {"tenant": key, "events": count, "error": error, "exact": exact}
            for key, count, error, exact in rows
        ]

    def tenant_spill_info(self) -> dict:
        """Governance counters for the snapshot / ``repro top`` footer."""
        with self._lock:
            return self._tenants.to_json()

    def snapshot(self, window_s: float, now: float | None = None) -> dict:
        """A JSON-friendly window summary (what ``repro top`` renders)."""
        with self._lock:
            slots = self._window_slots(window_s, now)
            counts: dict[tuple, int] = {}
            for slot in slots:
                for key, c in slot.counts.items():
                    counts[key] = counts.get(key, 0) + c
            spill = self._tenants.to_json()
        return {
            "window_s": window_s,
            "now": self.now if now is None else now,
            "events_seen": self.events_seen,
            "counts": {":".join(key): c for key, c in sorted(counts.items())},
            "latency_s": {
                "p50": self.quantile(0.50, window_s, now),
                "p95": self.quantile(0.95, window_s, now),
                "p99": self.quantile(0.99, window_s, now),
                "mean": self.mean_latency(window_s, now),
            },
            "throughput_rps": self.rate(("settled", "ok"), window_s, now),
            "tenants": {
                "cardinality": spill["cardinality"],
                "tracked": spill["tracked"],
                "spilled_labelsets": spill["spilled_labelsets"],
                "budget": spill["budget"],
                "top": self.top_tenants(self.top_k),
            },
        }
