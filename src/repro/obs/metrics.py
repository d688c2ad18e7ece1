"""Metrics registry: Counter, Gauge and Histogram with OpenMetrics export.

A :class:`MetricsRegistry` holds named instruments; observation sites call
``metric.inc(...)`` / ``.set(...)`` / ``.observe(...)`` with free-form label
keywords (``tenant="tenant-atax"``, ``code="queue-full"``).  Histograms use
**fixed log-scale buckets** (powers of four), so the same bucket layout
covers microsecond span costs and multi-second epoch seals without
per-deployment tuning.

Export formats:

* :meth:`MetricsRegistry.render_openmetrics` — Prometheus/OpenMetrics text
  (``# TYPE``/``# HELP`` headers, ``_total``/``_bucket``/``_sum``/``_count``
  samples, terminated by ``# EOF``);
* :meth:`MetricsRegistry.snapshot` — a JSON-friendly dict, what
  ``repro loadtest --metrics-out`` persists.

Recording is **off by default**: every mutator checks its registry's flag
(:func:`enable_metrics` / :func:`disable_metrics` switch the process-wide
one), so instrumented call sites cost two attribute reads and a branch
when metrics are disabled.  The
instrument *objects* always exist — declaring them is free — which keeps
the metric-name contract (``metric_names.txt``) checkable without running
any workload.

**Cardinality governance**: labelsets carrying a ``tenant`` label are the
one unbounded dimension (everything else — outcomes, codes, engines — is a
small enum).  Each instrument therefore runs its tenant labelsets through a
:class:`~repro.obs.sketch.TenantSpill` governor: the first
:func:`tenant_budget` distinct tenants get exact series, later ones are
folded into a single ``tenant="__other__"`` overflow series; a counter's
governor also offers each spilled observation to a Space-Saving summary
and counts each spilled labelset's entry into it (one the summary evicted
counts again when it returns, so the count is at least the number of
distinct labelsets shed, not that number).  Totals are conserved (the
overflow series absorbs every spilled observation) and nothing is
silently lost: governance state is reported through the hook installed
by :mod:`repro.obs.instruments` as the ``acctee_tenant_cardinality``
gauge and ``acctee_label_sets_evicted`` counter.  Already-materialised
series are a dict hit away, so the governed hot path costs the same as
before for in-budget tenants.

**Windows**: an instrument declared ``windowed`` also keeps a ring of
:data:`WINDOW_SLICES` one-second slices of deltas for the SLO signals
(:mod:`repro.obs.slo`), keyed by the labelset *without* its tenant plus an
``__other__`` count, so a window holds a handful of keys at any tenant
count and costs no governor call.  Slices follow the registry's clock
(``time.time`` unless a test, the soak or an event replay sets its own).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

from repro.obs.sketch import OVERFLOW_KEY, TenantSpill


#: Log-scale (powers of 4) latency buckets: 1 µs … ~67 s.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-6 * 4**i for i in range(14))

#: Log-scale (powers of 4) size buckets: 1 B … 1 GiB.
BYTES_BUCKETS: tuple[float, ...] = tuple(float(4**i) for i in range(16))


def bucket_index(buckets: tuple[float, ...], value: float) -> int:
    """The bucket an observation lands in: the first bound ``>= value``.

    Deterministic at the edges — a value exactly on a bound belongs to that
    bound's ``le`` bucket, and anything at or below the first bound
    (including zero and negative observations) lands in bucket 0.  Index
    ``len(buckets)`` is the implicit ``+Inf`` overflow bucket.  A
    histogram's window counts each observation into the same bucket as its
    cumulative series.
    """
    return bisect_left(buckets, value)


#: Width of one window slice, and the slices a window ring keeps: the
#: horizon covers the longest shipped SLO rule window (600 s).
WINDOW_SLICE_S = 1.0
WINDOW_SLICES = 600
WINDOW_HORIZON_S = WINDOW_SLICE_S * WINDOW_SLICES


class _State:
    """One registry's on/off switch, window clock and governance hook."""

    __slots__ = ("enabled", "clock", "hook")

    def __init__(self, enabled: bool = False, clock=time.time) -> None:
        self.enabled = enabled
        self.clock = clock
        # called *outside* instrument locks as hook(metric_name,
        # cardinality, evicted_delta) whenever a governor's state changes
        self.hook = None


#: The process-wide registry's state (the switch below flips it).
_STATE = _State()


def enable_metrics() -> None:
    _STATE.enabled = True


def disable_metrics() -> None:
    _STATE.enabled = False


def metrics_enabled() -> bool:
    return _STATE.enabled


#: Default per-instrument budget of exact tenant labelsets.  Generous on
#: purpose: workloads below it behave exactly as before governance existed.
DEFAULT_TENANT_BUDGET = 1024

_TENANT_BUDGET = DEFAULT_TENANT_BUDGET
_SPILL_TOP_K = 64


def set_tenant_budget(budget: int, top_k: int | None = None) -> int:
    """Set the exact-series budget for instruments' *future* governors.

    Returns the previous budget.  Applies to governors created after the
    call (each instrument builds its governor lazily on the first tenant
    labelset, and :meth:`Metric.reset` discards it), so tests and the soak
    harness set the budget up front and ``reset()`` between runs.
    """
    global _TENANT_BUDGET, _SPILL_TOP_K
    if budget < 0:
        raise ValueError("budget must be >= 0")
    previous = _TENANT_BUDGET
    _TENANT_BUDGET = budget
    if top_k is not None:
        _SPILL_TOP_K = top_k
    return previous


def tenant_budget() -> int:
    return _TENANT_BUDGET


def set_governance_hook(hook) -> None:
    """Install the process-wide registry's observer for governance state
    changes (or ``None``); :mod:`repro.obs.instruments` installs it."""
    _STATE.hook = hook


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_labels(key: tuple) -> str:
    if not key:
        return ""
    parts = []
    for name, value in key:
        escaped = (
            str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        parts.append(f'{name}="{escaped}"')
    return "{" + ",".join(parts) + "}"


_OVERFLOW_ITEM = ("tenant", OVERFLOW_KEY)


class _Window:
    """A ring of :data:`WINDOW_SLICES` slices, each mapping a labelset
    without its tenant to a *cell* of ``width`` numbers the instrument folds
    observations into (the last counts the ``__other__`` series).  The
    owning instrument holds its lock around every call."""

    __slots__ = ("_state", "_width", "_ids", "_slices", "_newest", "_keys")

    def __init__(self, state: _State, width: int):
        self._state = state
        self._width = width
        self._ids = [-1] * WINDOW_SLICES  # slice id each slot holds
        self._slices: list[dict[tuple, list]] = [{} for _ in range(WINDOW_SLICES)]
        self._newest = -1  # newest slice id observed
        self._keys: dict[tuple, tuple] = {}  # series key -> window key

    def cell(self, key: tuple) -> list | None:
        """The current slice's cell for a series key, or ``None`` when the
        clock reads a time older than the ring holds."""
        slice_id = int(self._state.clock() // WINDOW_SLICE_S)
        slot = slice_id % WINDOW_SLICES
        if self._ids[slot] != slice_id:
            if slice_id <= self._newest - WINDOW_SLICES:
                return None  # older than the horizon: nothing to fold into
            self._newest = max(self._newest, slice_id)
            self._ids[slot] = slice_id
            self._slices[slot] = {}
        cells = self._slices[slot]
        window_key = self._keys.get(key)
        if window_key is None:  # series keys are governed, so this stays small
            window_key = self._keys[key] = tuple(i for i in key if i[0] != "tenant")
        cell = cells.get(window_key)
        if cell is None:
            cell = cells[window_key] = [0] * self._width
        return cell

    def merged(self, window_s: float, now: float | None) -> dict[tuple, list]:
        """Every cell of the trailing ``window_s`` ending at ``now`` (the
        clock by default), summed per key."""
        span = round(window_s / WINDOW_SLICE_S)
        if span > WINDOW_SLICES:
            raise ValueError(
                f"window {window_s:g}s is longer than the "
                f"{WINDOW_HORIZON_S:g}s horizon"
            )
        newest = int((self._state.clock() if now is None else now) // WINDOW_SLICE_S)
        oldest = newest - max(1, span) + 1
        merged: dict[tuple, list] = {}
        for slice_id, cells in zip(self._ids, self._slices):
            if oldest <= slice_id <= newest:
                for key, cell in cells.items():
                    total = merged.setdefault(key, [0] * len(cell))
                    for i, value in enumerate(cell):
                        total[i] += value
        return merged

    def keys(self) -> set[tuple]:
        return {key for cells in self._slices for key in cells}


class Metric:
    """Base: a named instrument with per-labelset values."""

    kind = "untyped"

    #: Spills are reported to the governance hook in batches of this many —
    #: per-spill notification is measurable overhead at 10^6-tenant spill
    #: rates, and the evicted counter tolerates being up to a batch behind.
    _NOTIFY_BATCH = 64

    #: Numbers in one window cell (see :class:`_Window`).
    _window_width = 2

    def __init__(self, name: str, help: str, state: _State = _STATE, windowed=False):
        self.name = name
        self.help = help
        self._state = state
        self._windowed = windowed
        self._window = self._new_window()
        self._lock = threading.Lock()
        self._spill: TenantSpill | None = None  # lazy tenant-cardinality governor
        self._spill_reported = 0  # spills already delivered to the hook

    def _new_window(self) -> _Window | None:
        return _Window(self._state, self._window_width) if self._windowed else None

    def window(self, window_s: float, now: float | None = None) -> dict[tuple, list]:
        """Cells of the trailing window, keyed by labelset without tenant: a
        counter's is ``[value, overflow]``, a histogram's its bucket counts,
        ``sum``, ``overflow``.  ``ValueError`` past :data:`WINDOW_HORIZON_S`."""
        if self._window is None:
            raise ValueError(f"metric {self.name!r} keeps no window")
        with self._lock:
            return self._window.merged(window_s, now)

    def window_keys(self) -> int:
        """Distinct keys held across the window ring (0 without one)."""
        with self._lock:
            return 0 if self._window is None else len(self._window.keys())

    def governance(self) -> dict:
        """The tenant governor's state (budget, tracked, cardinality, ...)."""
        with self._lock:
            return (self._spill or TenantSpill(_TENANT_BUDGET, _SPILL_TOP_K)).to_json()

    def _govern(self, key: tuple, labels: dict, weight: int):
        """Route a *new* labelset through the tenant budget.

        Caller holds ``self._lock`` and has already missed the values dict
        — in-budget tenants only pay this once, at series creation.
        ``weight`` is what a spilled observation adds to the governor's
        summary: 1 for counters, 0 (route only, see
        :meth:`~repro.obs.sketch.TenantSpill.admit`) for gauges, whose sets
        are not additive, and histograms, whose spilled tenants nothing
        ranks.  Returns ``(key, notify)``: the (possibly overflow-rewritten)
        series key, and ``None`` or ``(cardinality, evicted_delta)`` to
        hand to :func:`_notify` after the lock is released.  Spill deltas are
        batched (:data:`_NOTIFY_BATCH`); tracked-set growth notifies
        immediately.
        """
        tenant = labels.get("tenant")
        if tenant is None:
            return key, None
        spill = self._spill
        if spill is None:
            spill = self._spill = TenantSpill(_TENANT_BUDGET, _SPILL_TOP_K)
        tenant = str(tenant)
        tracked_before = spill.tracked_count()
        routed = spill.admit(tenant, weight)
        if routed is not tenant and routed != tenant:
            # key is already the sorted labelset tuple; swap the tenant
            # element in place instead of rebuilding + re-sorting the dict
            key = tuple(
                (name, OVERFLOW_KEY) if name == "tenant" else (name, value)
                for name, value in key
            )
        pending = spill.spills - self._spill_reported
        if spill.tracked_count() != tracked_before or pending >= self._NOTIFY_BATCH:
            self._spill_reported = spill.spills
            return key, (spill.cardinality(), pending)
        return key, None

    def _notify(self, notify) -> None:
        """Report a governance change to the instruments hook (lock-free)."""
        if notify is None:
            return
        hook = self._state.hook
        if hook is not None:
            hook(self.name, notify[0], notify[1])

    def reset(self) -> None:
        """Drop every recorded value, the window and the governor."""
        with self._lock:
            self._clear()
            self._window = self._new_window()
            self._spill = None
            self._spill_reported = 0

    def _clear(self) -> None:
        raise NotImplementedError

    def samples(self) -> list[str]:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (rendered with the ``_total`` suffix)."""

    kind = "counter"

    def __init__(self, name: str, help: str, **kwargs):
        super().__init__(name, help, **kwargs)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._state.enabled:
            return
        key = _label_key(labels)
        notify = None
        with self._lock:
            if key in self._values:
                self._values[key] += amount
            else:
                key, notify = self._govern(key, labels, 1)
                self._values[key] = self._values.get(key, 0.0) + amount
            if self._window is not None:
                cell = self._window.cell(key)
                if cell is not None:
                    cell[0] += amount
                    if _OVERFLOW_ITEM in key:
                        cell[1] += amount
        self._notify(notify)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def top_tenants(self, n: int | None = None) -> list[dict]:
        """Global top-``n`` tenants by counted value.

        Exact rows (``error == 0``) sum an in-budget tenant's series;
        sketched rows come from the governor's Space-Saving summary, whose
        ``events - error <= true <= events`` bracket each spilled tenant.
        """
        with self._lock:
            exact: dict[str, float] = {}
            for key, value in self._values.items():
                tenant = dict(key).get("tenant")
                if tenant is not None and tenant != OVERFLOW_KEY:
                    exact[tenant] = exact.get(tenant, 0.0) + value
            sketched = [] if self._spill is None else self._spill.top()
        rows = [(tenant, int(value), 0, True) for tenant, value in exact.items()]
        rows.extend(row for row in sketched if not row[3])
        rows.sort(key=lambda row: (-row[1], row[0]))
        return [
            {"tenant": tenant, "events": count, "error": error, "exact": is_exact}
            for tenant, count, error, is_exact in rows[:n]
        ]

    def _clear(self) -> None:
        self._values.clear()

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}_total{_render_labels(key)} {_format_number(value)}"
            for key, value in items
        ]

    def to_json(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "{}": value
                for key, value in sorted(self._values.items())
            }


class Gauge(Metric):
    """A value that goes up and down (queue depth, pool utilisation)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, **kwargs):
        super().__init__(name, help, **kwargs)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        if not self._state.enabled:
            return
        key = _label_key(labels)
        notify = None
        with self._lock:
            if key not in self._values:
                key, notify = self._govern(key, labels, 0)
            # an over-budget gauge series is last-write-wins on the single
            # overflow labelset: bounded, and still shows recent activity
            self._values[key] = float(value)
        self._notify(notify)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._state.enabled:
            return
        key = _label_key(labels)
        notify = None
        with self._lock:
            if key in self._values:
                self._values[key] += amount
            else:
                key, notify = self._govern(key, labels, 0)
                self._values[key] = self._values.get(key, 0.0) + amount
        self._notify(notify)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def _clear(self) -> None:
        self._values.clear()

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_render_labels(key)} {_format_number(value)}"
            for key, value in items
        ]

    def to_json(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "{}": value
                for key, value in sorted(self._values.items())
            }


class Histogram(Metric):
    """A distribution over fixed log-scale buckets.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything above.  Per-labelset state is (bucket counts, sum,
    count), exported cumulatively as OpenMetrics requires.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: tuple[float, ...] = LATENCY_BUCKETS, **kwargs
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)
        # bucket counts (with +Inf), sum, overflow
        self._window_width = len(self.buckets) + 3
        super().__init__(name, help, **kwargs)
        self._series: dict[tuple, list] = {}  # key -> [counts, sum, count]
        # key -> bucket index -> (trace_id, value): the last sampled
        # observation that landed in each bucket, OpenMetrics-exemplar style,
        # so a latency bucket links straight to a concrete stitched trace
        self._exemplars: dict[tuple, dict[int, tuple[str, float]]] = {}

    def observe(self, value: float, exemplar: str | None = None, **labels) -> None:
        if not self._state.enabled:
            return
        key = _label_key(labels)
        index = bucket_index(self.buckets, value)
        notify = None
        with self._lock:
            series = self._series.get(key)
            if series is None:
                # a spilled tenant's observations fold fully into the
                # __other__ series' buckets (distribution conserved); the
                # counters rank spilled tenants, so a histogram routes
                # without weighing
                key, notify = self._govern(key, labels, 0)
                series = self._series.get(key)
            if series is None:
                series = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
            series[0][index] += 1
            series[1] += value
            series[2] += 1
            if self._window is not None:
                cell = self._window.cell(key)
                if cell is not None:
                    cell[index] += 1
                    cell[-2] += value
                    if _OVERFLOW_ITEM in key:
                        cell[-1] += 1
            if exemplar is not None:
                # last-write-wins per bucket: the freshest trace is the one
                # an operator drilling into a bucket wants to open
                self._exemplars.setdefault(key, {})[index] = (exemplar, value)
        self._notify(notify)

    def exemplar(self, bucket: int, **labels) -> tuple[str, float] | None:
        """The (trace_id, value) exemplar recorded for one bucket index."""
        with self._lock:
            return self._exemplars.get(_label_key(labels), {}).get(bucket)

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[2] if series else 0

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series[1] if series else 0.0

    def _clear(self) -> None:
        self._series.clear()
        self._exemplars.clear()

    def samples(self) -> list[str]:
        with self._lock:
            items = sorted((k, (list(v[0]), v[1], v[2])) for k, v in self._series.items())
            exemplars = {k: dict(v) for k, v in self._exemplars.items()}
        lines = []
        for key, (counts, total, count) in items:
            cumulative = 0
            for index, (bound, n) in enumerate(zip(self.buckets, counts)):
                cumulative += n
                le_key = key + (("le", _format_number(bound)),)
                line = f"{self.name}_bucket{_render_labels(le_key)} {cumulative}"
                ex = exemplars.get(key, {}).get(index)
                if ex is not None:
                    line += f' # {{trace_id="{ex[0]}"}} {_format_number(ex[1])}'
                lines.append(line)
            cumulative += counts[-1]
            inf_key = key + (("le", "+Inf"),)
            line = f"{self.name}_bucket{_render_labels(inf_key)} {cumulative}"
            ex = exemplars.get(key, {}).get(len(self.buckets))
            if ex is not None:
                line += f' # {{trace_id="{ex[0]}"}} {_format_number(ex[1])}'
            lines.append(line)
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format_number(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def to_json(self) -> dict:
        with self._lock:
            return {
                _render_labels(key) or "{}": {
                    "buckets": dict(zip(map(_format_number, self.buckets), series[0])),
                    "overflow": series[0][-1],
                    "sum": series[1],
                    "count": series[2],
                    **(
                        {
                            "exemplars": {
                                str(index): {"trace_id": ex[0], "value": ex[1]}
                                for index, ex in sorted(
                                    self._exemplars[key].items()
                                )
                            }
                        }
                        if key in self._exemplars
                        else {}
                    ),
                }
                for key, series in sorted(self._series.items())
            }

    def snapshot(self, **labels) -> dict:
        """One labelset's state as a value snapshot.

        ``counts`` has ``len(buckets) + 1`` entries (the last is the
        ``+Inf`` overflow); ``buckets`` records the bounds they count in.
        """
        with self._lock:
            series = self._series.get(_label_key(labels))
            counts = list(series[0]) if series else [0] * (len(self.buckets) + 1)
            return {
                "buckets": list(self.buckets),
                "counts": counts,
                "sum": series[1] if series else 0.0,
                "count": series[2] if series else 0,
            }


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Holds instruments by name; renders OpenMetrics text and JSON snapshots.

    A registry made here is *on* and follows ``clock``: the shape an
    offline replay wants.  The process-wide one (:func:`get_registry`) is
    off until :func:`enable_metrics`.
    """

    def __init__(self, clock=time.time, state: _State | None = None):
        self._state = _State(True, clock) if state is None else state
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def now(self) -> float:
        """The registry clock's reading, where windows end by default."""
        return self._state.clock()

    def set_clock(self, clock):
        """Substitute the windows' clock; returns the previous one."""
        previous, self._state.clock = self._state.clock, clock
        return previous

    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as {existing.kind}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str, windowed: bool = False) -> Counter:
        return self._register(  # type: ignore[return-value]
            Counter(name, help, state=self._state, windowed=windowed)
        )

    def gauge(self, name: str, help: str) -> Gauge:
        return self._register(Gauge(name, help, state=self._state))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        windowed: bool = False,
    ) -> Histogram:
        return self._register(  # type: ignore[return-value]
            Histogram(name, help, buckets, state=self._state, windowed=windowed)
        )

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every instrument's recorded values (names stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def window_keys(self) -> int:
        """Distinct (instrument, key) pairs held across every window ring."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sum(metric.window_keys() for metric in metrics)

    def render_openmetrics(self) -> str:
        """Prometheus/OpenMetrics exposition text, ``# EOF``-terminated."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.extend(metric.samples())
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument's current values."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {
            metric.name: {"kind": metric.kind, "values": metric.to_json()}
            for metric in metrics
        }


#: The process-wide default registry; the instruments in
#: :mod:`repro.obs.instruments` all live here.
_DEFAULT = MetricsRegistry(state=_STATE)


def get_registry() -> MetricsRegistry:
    return _DEFAULT
