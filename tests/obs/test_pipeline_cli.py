"""CLI surfacing of the telemetry pipeline: loadtest gates, alerts, top."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.events import EventLog, disable_events
from repro.obs.soak import MAX_WINDOW_KEYS

RULES = str(pathlib.Path(__file__).parents[2] / "examples" / "slo_rules.json")


@pytest.fixture(autouse=True)
def _events_off():
    disable_events()
    yield
    disable_events()


def _write_events(path, specs) -> None:
    """specs: [(ts, kind, fields), ...] recorded through a real EventLog."""

    class _Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = _Clock()
    log = EventLog(clock=clock)
    for ts, kind, fields in specs:
        clock.now = ts
        log.emit(kind, **fields)
    log.write_jsonl(str(path))


def _page_rule(path) -> str:
    path.write_text(json.dumps({"rules": [{
        "name": "any-retry-pages", "kind": "threshold", "signal": "count:retry",
        "op": ">=", "threshold": 1, "window_s": 60, "severity": "page",
    }]}))
    return str(path)


# -- repro alerts (offline replay) ---------------------------------------------


def test_alerts_replay_exits_nonzero_on_gating_alert(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    _write_events(events, [
        (0.0, "admit", {"tenant": "t0"}),
        (5.0, "retry", {"tenant": "t0", "attempt": 1}),
    ])
    rules = _page_rule(tmp_path / "rules.json")
    assert main(["alerts", "--rules", rules, "--replay", str(events)]) == 1
    out = capsys.readouterr().out
    assert "any-retry-pages" in out
    assert "gate: FAIL" in out


def test_alerts_replay_exits_zero_when_quiet(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    _write_events(events, [
        (0.0, "admit", {"tenant": "t0"}),
        (0.3, "settled", {"tenant": "t0", "outcome": "ok", "latency_s": 0.01}),
    ])
    rules = _page_rule(tmp_path / "rules.json")
    assert main(["alerts", "--rules", rules, "--replay", str(events)]) == 0
    out = capsys.readouterr().out
    assert "no alerts fired" in out
    assert "gate: pass" in out


def test_alerts_json_report(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    _write_events(events, [(5.0, "retry", {"tenant": "t0", "attempt": 1})])
    rules = _page_rule(tmp_path / "rules.json")
    assert main(["alerts", "--rules", rules, "--replay", str(events),
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["gating"] is True
    assert report["meta"]["kind"] == "_meta"
    [alert] = report["alerts"]
    assert alert["rule"] == "any-retry-pages"
    assert alert["severity"] == "page"


def test_alerts_against_the_shipped_rule_file(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    _write_events(events, [
        (1.0, "fault_injected", {"tenant": "t0", "request_id": 1,
                                 "fault": "corrupt"}),
        (1.5, "settled", {"tenant": "t0", "outcome": "ok", "latency_s": 0.02}),
    ])
    # only the info-severity liveness probe fires: informative, not gating
    assert main(["alerts", "--rules", RULES, "--replay", str(events)]) == 0
    out = capsys.readouterr().out
    assert "faults-observed" in out
    assert "gate: pass" in out


# -- repro loadtest: --events-out / --slo / --slo-out --------------------------


def _loadtest(tmp_path, *extra):
    return [
        "loadtest", "--workers", "1", "--requests", "6", "--pool", "thread",
        "--backend", "modeled", "--time-scale", "0", "--no-serial",
        "--out", str(tmp_path / "bench.json"), *extra,
    ]


def test_loadtest_writes_events_and_slo_report(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    slo_out = tmp_path / "slo.json"
    assert main(_loadtest(
        tmp_path, "--events-out", str(events), "--slo", RULES,
        "--slo-out", str(slo_out),
    )) == 0
    out = capsys.readouterr().out
    assert "[modeled] gates: epoch=pass drift=pass slo=pass quota_probe=pass" in out
    assert events.exists()
    first = json.loads(events.read_text().splitlines()[0])
    assert first["kind"] == "_meta"
    report = json.loads(slo_out.read_text())
    assert report["modeled"]["drift_ok"] is True
    assert report["modeled"]["slo"]["gating"] is False
    # the recorded stream replays through `repro alerts` with the same verdict
    capsys.readouterr()
    assert main(["alerts", "--rules", RULES, "--replay", str(events)]) == 0


def test_loadtest_slo_gate_fails_on_page_alert(tmp_path, capsys):
    # a rule that pages whenever anything settles: must fail the run
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{
        "name": "everything-pages", "kind": "threshold",
        "signal": "count:settled", "op": ">=", "threshold": 1,
        "window_s": 600, "severity": "page",
    }]))
    assert main(_loadtest(tmp_path, "--slo", str(rules))) == 1
    out = capsys.readouterr().out
    assert "drift=pass slo=FAIL" in out


def test_loadtest_without_pipeline_flags_reports_no_telemetry(tmp_path, capsys):
    assert main(_loadtest(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "[modeled] gates: epoch=pass quota_probe=pass" in out  # pipeline stayed off
    report = json.loads((tmp_path / "bench.json").read_text())
    assert "telemetry" not in report["sweeps"]["modeled"]


# -- repro top -----------------------------------------------------------------


def test_top_plain_renders_frames_and_summary(tmp_path, capsys):
    events = tmp_path / "top-events.jsonl"
    assert main([
        "top", "--plain", "--duration", "1.2", "--interval", "0.4",
        "--workers", "2", "--backend", "modeled", "--time-scale", "0",
        "--kernels", "trisolv", "--rules", RULES,
        "--events-out", str(events),
    ]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out
    assert "throughput" in out
    assert "counts in window:" in out
    assert "rules armed" in out or "ALERTS FIRING" in out
    assert events.exists()
    meta = json.loads(events.read_text().splitlines()[0])
    assert meta["kind"] == "_meta"
    assert meta["emitted"] > 0


def test_top_runs_with_the_event_log_off(monkeypatch, capsys):
    emitted = []
    monkeypatch.setattr(EventLog, "emit", lambda self, kind, **f: emitted.append(kind))
    assert main([
        "top", "--plain", "--duration", "1.2", "--interval", "0.4",
        "--workers", "2", "--backend", "modeled", "--time-scale", "0",
        "--kernels", "trisolv", "--tenants", "3",
    ]) == 0
    assert emitted == []
    out = capsys.readouterr().out
    final = out[out.rindex("repro top"):]
    throughput = float(final.split("throughput")[1].split()[0])
    assert throughput > 0
    assert "p50" in final and "p99" in final
    assert "settled:ok" in final
    rows = [line for line in final.splitlines()
            if line.startswith("    tenant-trisolv-")]
    assert len(rows) == 3 and all(line.endswith("exact") for line in rows)


def test_top_rules_read_the_whole_600s_horizon():
    """A 600 s rule in ``repro top`` counts what happened 300 s ago: the
    dashboard evaluates the process registry's windows, not a shorter ring."""
    from repro.obs.instruments import GATEWAY
    from repro.obs.metrics import disable_metrics, enable_metrics
    from repro.obs.slo import SLOEngine, load_rules
    from repro.service.lifecycle import LifecycleRecorder

    now = [10_000.0]
    registry = GATEWAY.registry
    previous = registry.set_clock(lambda: now[0])
    registry.reset()
    enable_metrics()
    try:
        LifecycleRecorder("gw").record(
            "fault_injected", "t0", None,
            {"request_id": 1, "fault": "crash", "trace_id": None},
        )
        now[0] += 300.0
        engine = SLOEngine(load_rules(RULES))
        engine.evaluate(GATEWAY)
        fired = {alert.rule: alert for alert in engine.alerts}
        assert fired["faults-observed"].window_s == 600
        assert fired["faults-observed"].value == 1.0
    finally:
        disable_metrics()
        registry.set_clock(previous)
        registry.reset()


def test_top_tenant_table_renders_sorted_rows_and_footer(tmp_path, capsys):
    assert main([
        "top", "--plain", "--duration", "1.0", "--interval", "0.4",
        "--workers", "2", "--backend", "modeled", "--time-scale", "0",
        "--kernels", "trisolv", "--tenants", "9", "--top-k", "4",
        "--sort", "tenant",
    ]) == 0
    out = capsys.readouterr().out
    assert "top tenants by tenant" in out
    # only --top-k rows are ranked; the rest are summarised, never dropped
    assert "(+5 more tenants)" in out
    # sorted by the chosen column: each frame's rows appear in tenant
    # order (examine the final summary frame only — frames repeat)
    final = out[out.rindex("top tenants by tenant"):]
    rows = [line for line in final.splitlines()
            if line.startswith("    tenant-trisolv-")]
    assert rows and rows == sorted(rows)


def test_tenant_table_truncates_to_terminal_height(monkeypatch):
    from repro.cli import _tenant_table_lines
    from repro.obs.events import Event
    from repro.obs.slo import EventReplay

    replayed = EventReplay()
    for i in range(40):
        replayed.record(Event(seq=i, ts_s=1.0, kind="reject",
                              fields={"tenant": "t%02d" % i, "code": "queue-full"}))
    agg = replayed.metrics
    monkeypatch.setenv("LINES", "12")
    monkeypatch.setenv("COLUMNS", "80")
    lines = _tenant_table_lines(agg, top_k=40, sort="events",
                                plain=False, reserved_lines=4)
    assert len(lines) <= 12 - 4
    assert lines[-1].strip().startswith("(+")
    assert lines[-1].strip().endswith("more tenants)")
    # --plain skips height truncation (frames go to pipes)
    plain_lines = _tenant_table_lines(agg, top_k=40, sort="events",
                                      plain=True, reserved_lines=4)
    assert len(plain_lines) == 1 + 40


# -- repro soak ----------------------------------------------------------------


def test_soak_cli_writes_gated_bench_json(tmp_path, capsys):
    out = tmp_path / "scale.json"
    assert main([
        "soak", "--tenants", "200,2000", "--requests", "1500",
        "--no-isolate", "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "overhead ratio" in printed
    assert "gates:" in printed
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert [p["tenants"] for p in report["points"]] == [200, 2000]
    for point in report["points"]:
        assert point["structures"]["window_keys"] <= MAX_WINDOW_KEYS
        assert point["per_request_us_norm"] > 0


def test_soak_cli_exits_nonzero_on_gate_failure(tmp_path, capsys):
    out = tmp_path / "scale.json"
    # an impossible flatness bound forces the overhead gate to fail
    assert main([
        "soak", "--tenants", "200,2000", "--requests", "800",
        "--no-isolate", "--max-overhead-ratio", "0.01", "--out", str(out),
    ]) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    assert report["gates"]["overhead_ok"] is False
