"""The four serving workloads: tenant mix, traffic shape and latency limit.

Kept free of ``repro`` imports so the orchestrating process can read it
without the program on its path.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Settings every workload shares.  ``compile`` is the fast engine the
#: roadmap converges on; one process worker and four outstanding requests
#: fit a 2-core box (one core for the gateway, one for the worker).
ENGINE = "compile"
WORKERS = 1
SEAL_WINDOW = 16
OUTSTANDING = 4
#: Share of a round spent in the open-loop phase (the rest is closed loop).
OPEN_SHARE = 0.6
#: Each of these silently changes the program being measured.
PINNED_ENV = ("REPRO_WASM_ENGINE", "REPRO_WASM_FUSION", "REPRO_TRACE_SAMPLE")

SMALL = ("atax", "bicg", "mvt", "trisolv", "gesummv", "jacobi-1d")
HEAVY = ("gemm", "2mm", "jacobi-2d")
#: the SMALL kernels that take 3-5 slices; trisolv and gesummv finish in
#: one or two, and their far shorter answers beside these made the latency
#: percentiles jump between kernels from run to run
PREEMPTED = ("atax", "bicg", "mvt", "jacobi-1d")


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: tuple[str, ...]
    #: open-loop arrival rate
    open_rps: float
    #: seed-commit capacity; sizes the closed-loop phase so a round lasts
    #: about as long as asked at the seed, while the request count stays a
    #: benchmark constant on every later commit
    closed_rps: float
    #: open-loop latency limit behind ``slo_ok_ratio``
    slo_ms: float
    #: one round's length: short, so that host-speed calibration taken
    #: either side of a phase describes it, but long enough to hold
    #: several requests of each phase
    round_s: float = 1.0
    preempt_after: int | None = None
    #: serve on ``SimulatedFaaSBackend(time_scale=0)``: nothing executes
    modeled: bool = False

    def round_sizes(self, round_s: float) -> tuple[int, int]:
        """Open-loop arrivals and closed-loop requests in one round."""
        n_open = max(1, round(self.open_rps * round_s * OPEN_SHARE))
        n_closed = max(OUTSTANDING, round(self.closed_rps * round_s * (1 - OPEN_SHARE)))
        return n_open, n_closed


#: Each open-loop rate is at most about a third of ``closed_rps``, the
#: workload's capacity.  The generator shares the interpreter lock with the
#: gateway's event loop; at 80 rps (``faas-small``) and 400 rps
#: (``control-plane``) a busy host made it send several ms late, the late
#: requests queued behind each other, and their p90 spread by 42% and up
#: to 114% from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        # execution is 1-3 ms, so instantiation, task IPC and gateway
        # accounting are a large share of each request
        Workload("faas-small", SMALL, open_rps=40, closed_rps=280, slo_ms=25),
        # execution-dominated: engine speed moves throughput, gateway
        # overhead should not
        Workload("faas-heavy", HEAVY, open_rps=20, closed_rps=85, slo_ms=60, round_s=1.5),
        # every request is suspended every 5000 instructions: snapshot
        # capture/restore and a signed checkpoint receipt per slice
        Workload(
            "faas-preempt", PREEMPTED, open_rps=8, closed_rps=22, slo_ms=250,
            round_s=2.5, preempt_after=5000,
        ),
        # no execution at all: admission, the asyncio front end, AE
        # accounting, batch signing and the ledger
        Workload(
            "control-plane", SMALL, open_rps=150, closed_rps=2000, slo_ms=5,
            modeled=True,
        ),
    )
}
