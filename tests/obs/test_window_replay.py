"""Differential: the registry windows of a live chaos run vs a replay of its
event log into a fresh registry.

Live, every lifecycle transition records straight into the process-wide
registry.  Offline (``repro alerts --replay``, ``loadtest --slo``) the
recorded events are pushed through the same transition rows into a fresh
registry whose clock is each event's timestamp.  Both must hold the same
per-outcome counts, retries, faults and latency buckets; deadline-exceeded
and result-rejected requests reach the metrics only as ``settled``
outcomes, live and replayed alike.
"""

from repro.obs import disable_all, enable_metrics, get_registry
from repro.obs.events import read_jsonl
from repro.obs.instruments import GATEWAY
from repro.obs.metrics import WINDOW_HORIZON_S
from repro.obs.slo import EventReplay
from repro.service.load import run_loadtest


def test_replayed_windows_match_the_live_registry(tmp_path):
    events_path = tmp_path / "events.jsonl"
    disable_all()
    get_registry().reset()
    enable_metrics()
    try:
        result = run_loadtest(
            worker_counts=(2,), requests=12, pool="thread", backend="wasm",
            kernels=("trisolv",), verify_serial=False, quota_probe=False,
            faults="crash:5,hang:7,corrupt:3", fault_seed=1,
            deadline_s=0.5, hang_s=1.0, events_out=str(events_path),
        )
        _meta, events = read_jsonl(str(events_path))
        replayed = EventReplay()
        for event in events:
            replayed.record(event)
        live, offline = GATEWAY, replayed.metrics
        windows = {
            name: (
                getattr(live, name).window(WINDOW_HORIZON_S),
                getattr(offline, name).window(WINDOW_HORIZON_S),
            )
            for name in ("requests", "latency", "retries", "faults")
        }
    finally:
        disable_all()
        get_registry().reset()
    assert result["ok"], result["gates"]
    for name, (live_window, offline_window) in windows.items():
        assert live_window == offline_window, name

    outcomes = {
        dict(key)["outcome"]: cell[0] for key, cell in windows["requests"][0].items()
    }
    # deadline and validation failures arrive as settled outcomes
    assert outcomes["deadline-exceeded"] > 0
    assert outcomes["result-rejected"] > 0
    assert outcomes["ok"] > 0
    [latency] = windows["latency"][0].values()
    assert sum(latency[:-2]) == outcomes["ok"]  # buckets of the ok requests
    assert windows["retries"][0] and windows["faults"][0]
