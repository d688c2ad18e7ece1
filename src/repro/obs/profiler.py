"""Hot-path profiler for the Wasm execution engines.

Attribution happens at two granularities, both driven by hooks the engines
call only when a profiler is active (``Instance._profiler`` is ``None``
otherwise).  The disabled cost is one ``None`` check per call and, on
``predecode``, one per instruction; ``compile`` checks once per deferred
accounting flush, never per block:

* **functions** — :meth:`Profiler.enter_function` / :meth:`exit_function`
  wrap every defined-function call in
  :meth:`repro.wasm.interpreter.Instance.call_function` (both engines share
  that path).  A shadow call stack splits wall time, visit counts and model
  cycles into *inclusive* (with callees) and *exclusive* (self) shares, and
  accumulates exclusive wall time per call stack for flamegraphs;

* **basic-block segments** — both engines report each entry into a
  straight-line run of instructions (:meth:`record_segment`: function,
  start pc, instruction count).  ``predecode`` reports an entry as it
  happens; ``compile`` counts its fast-path entries with its batch
  counters and reports them in bulk where it flushes those, and reports
  the entries its per-instruction slow path and its trap path make
  themselves, so both engines fill :attr:`Profiler.segments` alike.

Outputs: :meth:`top_functions` / :meth:`top_segments` (data),
:meth:`report` (a text table naming real Wasm functions), and
:meth:`collapsed_stacks` — the ``stack;frames count`` format every standard
flamegraph tool (flamegraph.pl, speedscope, inferno) consumes, with
exclusive wall microseconds as the count.

Activation mirrors the tracer: :func:`enable_profiling` installs a
process-wide profiler which :meth:`Instance.invoke` snapshots, so the AE's
fresh per-invocation instances inside ``repro sandbox --profile`` pick it
up without any signature threading.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.wasm.interpreter import active_profiler, set_active_profiler  # noqa: F401


class Profiler:
    """Accumulates per-function and per-segment attribution for one session."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # label -> [calls, incl_wall_ns, excl_wall_ns, incl_visits,
        #           excl_visits, incl_cycles, excl_cycles]
        self.functions: dict[str, list] = {}
        # (label, start_pc) -> [entries, instructions]
        self.segments: dict[tuple[str, int], list] = {}
        # (label, label, ...) root-first -> exclusive wall ns
        self.collapsed: dict[tuple[str, ...], int] = {}

    # -- engine hooks ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter_function(self, label: str, executed: int, cycles: float) -> None:
        # frame: [label, start_ns, executed, cycles, child_wall, child_visits,
        #         child_cycles]
        self._stack().append([label, time.perf_counter_ns(), executed, cycles, 0, 0, 0.0])

    def exit_function(self, executed: int, cycles: float) -> None:
        now = time.perf_counter_ns()
        stack = self._stack()
        label, start_ns, start_executed, start_cycles, child_wall, child_visits, child_cycles = (
            stack.pop()
        )
        incl_wall = now - start_ns
        incl_visits = executed - start_executed
        incl_cycles = cycles - start_cycles
        excl_wall = incl_wall - child_wall
        excl_visits = incl_visits - child_visits
        excl_cycles = incl_cycles - child_cycles
        if stack:
            parent = stack[-1]
            parent[4] += incl_wall
            parent[5] += incl_visits
            parent[6] += incl_cycles
        path = tuple(frame[0] for frame in stack) + (label,)
        with self._lock:
            stat = self.functions.get(label)
            if stat is None:
                stat = self.functions[label] = [0, 0, 0, 0, 0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += incl_wall
            stat[2] += excl_wall
            stat[3] += incl_visits
            stat[4] += excl_visits
            stat[5] += incl_cycles
            stat[6] += excl_cycles
            self.collapsed[path] = self.collapsed.get(path, 0) + excl_wall

    def record_segment(
        self, label: str, start_pc: int, instructions: int, entries: int = 1
    ) -> None:
        """``entries`` entries into a basic-block segment of ``instructions``
        instructions."""
        key = (label, start_pc)
        seg = self.segments.get(key)
        if seg is None:
            with self._lock:
                seg = self.segments.setdefault(key, [0, 0])
        seg[0] += entries
        seg[1] += instructions * entries

    # -- reports -----------------------------------------------------------------

    def top_functions(self, n: int = 10) -> list[dict]:
        with self._lock:
            rows = [
                {
                    "function": label,
                    "calls": stat[0],
                    "inclusive_wall_s": stat[1] / 1e9,
                    "exclusive_wall_s": stat[2] / 1e9,
                    "inclusive_visits": stat[3],
                    "exclusive_visits": stat[4],
                    "inclusive_cycles": stat[5],
                    "exclusive_cycles": stat[6],
                }
                for label, stat in self.functions.items()
            ]
        rows.sort(key=lambda r: r["exclusive_wall_s"], reverse=True)
        return rows[:n]

    def top_segments(self, n: int = 10) -> list[dict]:
        with self._lock:
            rows = [
                {
                    "function": label,
                    "start_pc": pc,
                    "entries": seg[0],
                    "instructions": seg[1],
                }
                for (label, pc), seg in self.segments.items()
            ]
        rows.sort(key=lambda r: r["instructions"], reverse=True)
        return rows[:n]

    def report(self, top: int = 10) -> str:
        """A human-readable hot-function (and hot-segment) report."""
        lines = ["hot functions (by exclusive wall time):"]
        lines.append(
            f"  {'function':<24} {'calls':>8} {'excl ms':>10} {'incl ms':>10} "
            f"{'excl visits':>12} {'incl visits':>12}"
        )
        for row in self.top_functions(top):
            lines.append(
                f"  {row['function']:<24} {row['calls']:>8} "
                f"{row['exclusive_wall_s'] * 1e3:>10.3f} "
                f"{row['inclusive_wall_s'] * 1e3:>10.3f} "
                f"{row['exclusive_visits']:>12} {row['inclusive_visits']:>12}"
            )
        segments = self.top_segments(top)
        if segments:
            lines.append("hot basic-block segments (by instructions executed):")
            lines.append(
                f"  {'function':<24} {'start pc':>8} {'entries':>10} {'instructions':>13}"
            )
            for row in segments:
                lines.append(
                    f"  {row['function']:<24} {row['start_pc']:>8} "
                    f"{row['entries']:>10} {row['instructions']:>13}"
                )
        return "\n".join(lines)

    def collapsed_stacks(self) -> str:
        """Flamegraph collapsed-stack text: ``frame;frame count`` per line.

        Counts are exclusive wall microseconds (minimum 1, so even very fast
        frames survive flamegraph integer truncation).
        """
        with self._lock:
            items = sorted(self.collapsed.items())
        lines = []
        for path, wall_ns in items:
            micros = max(1, wall_ns // 1000)
            lines.append(f"{';'.join(path)} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        return {
            "functions": self.top_functions(n=len(self.functions) or 1),
            "segments": self.top_segments(n=len(self.segments) or 1),
        }


# ---------------------------------------------------------------------------
# The process-wide switch (held by repro.wasm.interpreter), snapshotted by
# Instance.invoke
# ---------------------------------------------------------------------------

def enable_profiling(profiler: Profiler | None = None) -> Profiler:
    """Install (and return) the process-wide profiler."""
    profiler = profiler or Profiler()
    set_active_profiler(profiler)
    return profiler


def disable_profiling() -> None:
    set_active_profiler(None)


@contextmanager
def profile():
    """``with profile() as prof:`` — enable, run, disable, report."""
    prof = enable_profiling()
    try:
        yield prof
    finally:
        disable_profiling()
