"""Declarative SLO rules evaluated over the metrics registry's windows.

Rules are plain JSON (see ``examples/slo_rules.json``) so the same file drives
``repro top`` (live), ``repro loadtest --slo``, offline replay of a recorded
event stream (``repro alerts --rules R --replay E``) and the CI
fault-injection gate.  Two rule kinds:

``threshold``
    Fires when a *signal* read over one trailing window crosses an operator
    bound — e.g. ``latency_p99_s > 0.5 over 30s``.

``burn_rate``
    Google-SRE-style multi-window burn-rate alert on a bad-event ratio.
    Given an error budget (``budget``, the tolerated bad fraction), it fires
    only when the ratio is burning at ≥ ``fast_burn``× budget over the short
    window **and** ≥ ``slow_burn``× budget over the long window — the short
    window gives fast detection, the long window keeps one spike from paging.

Signals read the windowed gateway instruments
(:class:`~repro.obs.instruments.GatewayMetrics`)::

    latency_p50_s | latency_p95_s | latency_p99_s | latency_mean_s  (ok requests)
    count:<kind>[:<sub>]  rate:<kind>[:<sub>]   kinds: settled[:<outcome>],
                              reject[:<code>], retry, fault_injected[:<fault>]
    rejection_ratio           rejected requests / all requests
    failure_ratio             non-ok settlements / all settlements
    tenant_cardinality        approx. distinct tenants ever seen (window-free)
    overflow_ratio            requests in the __other__ series / all requests

No window is keyed by tenant, so the tenant signals (the requests counter's
governor, its windows' overflow counts) cost the same at any tenant count.
A rule naming an unknown signal, or a window longer than
:data:`~repro.obs.metrics.WINDOW_HORIZON_S`, is refused when it loads.

Alerts are **edge-triggered**: a rule that stays breached across consecutive
evaluations produces one :class:`Alert` when it starts firing (and the engine
tracks when it clears), not one per tick — the count of alerts then means
"incidents", not "evaluation cycles spent in breach".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs.events import Event
from repro.obs.events import emit as emit_event
from repro.obs.instruments import SLO_ALERTS, GatewayMetrics
from repro.obs.metrics import WINDOW_HORIZON_S, WINDOW_SLICE_S, MetricsRegistry

#: Severities in escalation order; ``page`` and above fail a gated run.
SEVERITIES = ("info", "warn", "page", "critical")

#: Minimum severity that makes ``repro loadtest --slo`` / ``repro alerts``
#: exit non-zero.
GATING_SEVERITY = "page"

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class Alert:
    """One rule firing: which rule, how bad, and the value that tripped it."""

    rule: str
    severity: str
    signal: str
    value: float
    threshold: float
    window_s: float
    at_s: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "signal": self.signal,
            "value": self.value,
            "threshold": self.threshold,
            "window_s": self.window_s,
            "at_s": self.at_s,
            "detail": self.detail,
        }

    @property
    def gating(self) -> bool:
        return SEVERITIES.index(self.severity) >= SEVERITIES.index(GATING_SEVERITY)


#: ``count:``/``rate:`` kinds -> whether they take a ``:<sub>``.
COUNT_KINDS = {"settled": True, "reject": True, "retry": False, "fault_injected": True}


def window_counts(m: GatewayMetrics, window_s: float, now=None) -> dict[str, float]:
    """The window's counts keyed in the ``count:`` vocabulary: each kind of
    :data:`COUNT_KINDS`, plus ``<kind>:<sub>`` for every sub seen."""
    counts = dict.fromkeys(COUNT_KINDS, 0.0)
    for key, cell in sorted(m.requests.window(window_s, now).items()):
        outcome = dict(key)["outcome"]
        kind = "reject" if outcome.startswith("rejected:") else "settled"
        counts[kind] += cell[0]
        counts[f"{kind}:{outcome.removeprefix('rejected:')}"] = cell[0]
    for cell in m.retries.window(window_s, now).values():
        counts["retry"] += cell[0]
    for key, cell in sorted(m.faults.window(window_s, now).items()):
        counts["fault_injected"] += cell[0]
        counts[f"fault_injected:{dict(key)['fault']}"] = cell[0]
    return counts


def latency_stats(
    m: GatewayMetrics, window_s: float, now: float | None = None
) -> tuple[list, float, int]:
    """Merged (bucket counts, sum, n) of the window's latency histogram."""
    counts = [0] * (len(m.latency.buckets) + 1)
    total = 0.0
    for cell in m.latency.window(window_s, now).values():
        for i in range(len(counts)):
            counts[i] += cell[i]
        total += cell[-2]
    return counts, total, sum(counts)


def quantile(m: GatewayMetrics, q: float, window_s: float, now: float | None = None) -> float:
    """An upper bound on the q-quantile latency over the window.

    Returns the smallest bucket bound whose cumulative count reaches ``q``
    of the observations — deterministic, and conservative the way an alert
    wants (never *under*-reports the tail).  ``inf`` when the quantile
    lands in the overflow bucket; ``0.0`` with no observations.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    counts, _total, n = latency_stats(m, window_s, now)
    if n == 0:
        return 0.0
    cumulative = 0
    for bound, c in zip(m.latency.buckets, counts):
        cumulative += c
        if cumulative >= q * n:
            return bound
    return float("inf")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _rejection_ratio(m: GatewayMetrics, window_s: float, now) -> float:
    counts = window_counts(m, window_s, now)
    return _ratio(counts["reject"], counts["reject"] + counts["settled"])


def _failure_ratio(m: GatewayMetrics, window_s: float, now) -> float:
    counts = window_counts(m, window_s, now)
    return _ratio(counts["settled"] - counts.get("settled:ok", 0.0), counts["settled"])


def _overflow_ratio(m: GatewayMetrics, window_s: float, now) -> float:
    cells = m.requests.window(window_s, now).values()
    return _ratio(sum(cell[1] for cell in cells), sum(cell[0] for cell in cells))


_SIGNALS = {
    "latency_p50_s": lambda m, w, now: quantile(m, 0.50, w, now),
    "latency_p95_s": lambda m, w, now: quantile(m, 0.95, w, now),
    "latency_p99_s": lambda m, w, now: quantile(m, 0.99, w, now),
    "latency_mean_s": lambda m, w, now: _ratio(*latency_stats(m, w, now)[1:]),
    "rejection_ratio": _rejection_ratio,
    "failure_ratio": _failure_ratio,
    "tenant_cardinality": lambda m, w, now: float(
        m.requests.governance()["cardinality"]
    ),
    "overflow_ratio": _overflow_ratio,
}


def _signal_reader(signal: str):
    """``(metrics, window_s, now) -> float`` for a signal; ``ValueError`` if unknown."""
    if signal in _SIGNALS:
        return _SIGNALS[signal]
    prefix, _, name = signal.partition(":")
    kind, colon, sub = name.partition(":")
    if (
        prefix in ("count", "rate")
        and kind in COUNT_KINDS
        and (not colon or (COUNT_KINDS[kind] and sub and ":" not in sub))
    ):
        if prefix == "count":
            return lambda m, w, now: window_counts(m, w, now).get(name, 0.0)
        return lambda m, w, now: window_counts(m, w, now).get(name, 0.0) / max(
            w, WINDOW_SLICE_S
        )
    raise ValueError(f"unknown SLO signal {signal!r}")


def resolve_signal(m: GatewayMetrics, signal: str, window_s: float, now=None) -> float:
    """Read one named signal off the gateway windows over a trailing window."""
    return _signal_reader(signal)(m, window_s, now)


def snapshot(m: GatewayMetrics, window_s: float) -> dict:
    """A JSON-friendly summary of the window ending now (what ``repro top``
    renders)."""
    return {
        "window_s": window_s,
        "counts": window_counts(m, window_s),
        "latency_s": {
            "p50": quantile(m, 0.50, window_s),
            "p95": quantile(m, 0.95, window_s),
            "p99": quantile(m, 0.99, window_s),
            "mean": resolve_signal(m, "latency_mean_s", window_s),
        },
        "throughput_rps": resolve_signal(m, "rate:settled:ok", window_s),
    }


@dataclass(frozen=True)
class Rule:
    """One parsed rule; ``evaluate`` returns an :class:`Alert` or ``None``."""

    name: str
    kind: str  # "threshold" | "burn_rate"
    severity: str
    signal: str
    op: str = ">"
    threshold: float = 0.0
    window_s: float = 30.0
    # burn_rate-only knobs:
    budget: float = 0.0
    fast_window_s: float = 10.0
    slow_window_s: float = 60.0
    fast_burn: float = 10.0
    slow_burn: float = 2.0

    @classmethod
    def from_json(cls, obj: dict) -> "Rule":
        kind = obj.get("kind", "threshold")
        if kind not in ("threshold", "burn_rate"):
            raise ValueError(f"rule {obj.get('name')!r}: unknown kind {kind!r}")
        severity = obj.get("severity", "warn")
        if severity not in SEVERITIES:
            raise ValueError(
                f"rule {obj.get('name')!r}: severity must be one of {SEVERITIES}"
            )
        if "name" not in obj or "signal" not in obj:
            raise ValueError("every rule needs 'name' and 'signal'")
        try:
            _signal_reader(obj["signal"])
        except ValueError as exc:
            raise ValueError(f"rule {obj['name']!r}: {exc}") from None
        longest = max(
            float(obj.get(key, 0.0)) for key in ("window_s", "fast_window_s", "slow_window_s")
        )
        if longest > WINDOW_HORIZON_S:
            raise ValueError(
                f"rule {obj['name']!r}: window {longest:g}s is longer than "
                f"the {WINDOW_HORIZON_S:g}s the registry windows hold"
            )
        if kind == "threshold":
            op = obj.get("op", ">")
            if op not in _OPS:
                raise ValueError(f"rule {obj['name']!r}: unknown op {op!r}")
            return cls(
                name=obj["name"],
                kind=kind,
                severity=severity,
                signal=obj["signal"],
                op=op,
                threshold=float(obj["threshold"]),
                window_s=float(obj.get("window_s", 30.0)),
            )
        budget = float(obj.get("budget", 0.0))
        if budget <= 0:
            raise ValueError(f"rule {obj['name']!r}: burn_rate needs budget > 0")
        return cls(
            name=obj["name"],
            kind=kind,
            severity=severity,
            signal=obj["signal"],
            budget=budget,
            fast_window_s=float(obj.get("fast_window_s", 10.0)),
            slow_window_s=float(obj.get("slow_window_s", 60.0)),
            fast_burn=float(obj.get("fast_burn", 10.0)),
            slow_burn=float(obj.get("slow_burn", 2.0)),
        )

    def evaluate(self, m: GatewayMetrics, now: float | None = None) -> Alert | None:
        at = m.registry.now() if now is None else now
        if self.kind == "threshold":
            value = resolve_signal(m, self.signal, self.window_s, now)
            if _OPS[self.op](value, self.threshold):
                return Alert(
                    rule=self.name,
                    severity=self.severity,
                    signal=self.signal,
                    value=value,
                    threshold=self.threshold,
                    window_s=self.window_s,
                    at_s=at,
                    detail=f"{self.signal} {self.op} {self.threshold:g} over {self.window_s:g}s",
                )
            return None
        # burn_rate: both windows must be burning budget too fast
        fast = resolve_signal(m, self.signal, self.fast_window_s, now)
        slow = resolve_signal(m, self.signal, self.slow_window_s, now)
        fast_limit = self.budget * self.fast_burn
        slow_limit = self.budget * self.slow_burn
        if fast >= fast_limit and slow >= slow_limit:
            return Alert(
                rule=self.name,
                severity=self.severity,
                signal=self.signal,
                value=fast,
                threshold=fast_limit,
                window_s=self.fast_window_s,
                at_s=at,
                detail=(
                    f"burn-rate: {self.signal}={fast:.4f} over {self.fast_window_s:g}s "
                    f"(≥{fast_limit:.4f}) and {slow:.4f} over {self.slow_window_s:g}s "
                    f"(≥{slow_limit:.4f}), budget={self.budget:g}"
                ),
            )
        return None


def load_rules(path: str) -> list[Rule]:
    """Parse a JSON rule file: ``{"rules": [...]}`` or a bare list."""
    with open(path) as handle:
        obj = json.load(handle)
    raw = obj["rules"] if isinstance(obj, dict) else obj
    rules = [Rule.from_json(r) for r in raw]
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate rule names: {dupes}")
    return rules


class SLOEngine:
    """Evaluates a rule set against the gateway windows with edge-triggered firing."""

    def __init__(self, rules: list[Rule]):
        self.rules = list(rules)
        self.alerts: list[Alert] = []
        self._firing: dict[str, Alert] = {}
        self._cleared: list[dict] = []

    def evaluate(self, m: GatewayMetrics, now: float | None = None) -> list[Alert]:
        """One evaluation tick; returns only *newly fired* alerts."""
        new: list[Alert] = []
        for rule in self.rules:
            alert = rule.evaluate(m, now)
            if alert is not None:
                if rule.name not in self._firing:  # rising edge
                    self._firing[rule.name] = alert
                    self.alerts.append(alert)
                    new.append(alert)
                    SLO_ALERTS.inc(rule=rule.name, severity=rule.severity)
                    emit_event(
                        "alert",
                        rule=rule.name,
                        severity=rule.severity,
                        value=alert.value,
                        threshold=alert.threshold,
                    )
            elif rule.name in self._firing:  # falling edge
                started = self._firing.pop(rule.name)
                at = m.registry.now() if now is None else now
                self._cleared.append(
                    {"rule": rule.name, "fired_at_s": started.at_s, "cleared_at_s": at}
                )
        return new

    @property
    def firing(self) -> list[Alert]:
        return list(self._firing.values())

    def worst_severity(self) -> str | None:
        if not self.alerts:
            return None
        return max(self.alerts, key=lambda a: SEVERITIES.index(a.severity)).severity

    def gating_alerts(self) -> list[Alert]:
        """Alerts severe enough to fail a gated run (``page``/``critical``)."""
        return [a for a in self.alerts if a.gating]

    def report(self) -> dict:
        return {
            "rules": len(self.rules),
            "alerts": [a.to_json() for a in self.alerts],
            "cleared": list(self._cleared),
            "still_firing": [a.rule for a in self.firing],
            "worst_severity": self.worst_severity(),
            "gating": bool(self.gating_alerts()),
        }


class EventReplay:
    """A fresh registry of gateway instruments filled from recorded events:
    :meth:`record` runs an event's lifecycle transition row
    (:data:`repro.service.lifecycle.TRANSITIONS`) with the registry clock at
    the event's ``ts_s``, so the windows hold what the live registry's did.
    """

    def __init__(self):
        # the service layer imports repro.obs, so not at module level
        from repro.service.lifecycle import TRANSITIONS

        self._transitions = TRANSITIONS
        self.now = 0.0
        self.metrics = GatewayMetrics(MetricsRegistry(clock=lambda: self.now))

    def record(self, event: Event) -> None:
        self.now = event.ts_s
        row = self._transitions.get(event.kind)
        if row is not None and row.metric is not None:
            row.metric(self.metrics, event.fields)


def replay(
    events, rules: list[Rule], eval_every_s: float = 1.0
) -> tuple[SLOEngine, GatewayMetrics]:
    """Run a recorded event stream through an :class:`EventReplay` + engine.

    Evaluation happens on replayed time — after each ``eval_every_s`` of
    *event* timestamps, plus once at the end — so offline answers match what
    live evaluation at the same cadence would have produced.
    """
    replayed = EventReplay()
    engine = SLOEngine(rules)
    next_eval: float | None = None
    for event in events:
        replayed.record(event)
        if next_eval is None:
            next_eval = event.ts_s + eval_every_s
        while event.ts_s >= next_eval:
            engine.evaluate(replayed.metrics, now=next_eval)
            next_eval += eval_every_s
    engine.evaluate(replayed.metrics)
    return engine, replayed.metrics
