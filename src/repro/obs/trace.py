"""Hierarchical tracing spans for the two-way sandbox and metering gateway.

A :class:`Tracer` records :class:`Span` trees — one span per protocol phase
(``instrument``, ``execute``, ``account``, ``gateway.request``, …) — with
monotonic nanosecond timestamps, parent/child links and attached attributes
(module hash, tenant, engine, cache hit/miss).  Finished traces export two
ways:

* :meth:`Tracer.to_json` — a plain JSON list of spans with explicit
  ``span_id``/``parent_id`` links, for programmatic consumers;
* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` format (``ph: X``
  complete events), loadable directly in ``about:tracing`` or Perfetto.

Tracing is **off by default**: :func:`span` returns a shared no-op span
unless :func:`enable_tracing` installed a tracer, so instrumented call sites
cost one module-global read and a ``None`` check when disabled.  Span
nesting is tracked per thread; cross-thread children (a gateway request
settled on a pool callback thread) pass ``parent=`` explicitly.

A slice's spans are not opened this way: a slice only stamps its
boundaries, and :meth:`Tracer.record` adds its spans finished, from the
stamps, wherever its record is applied (:mod:`repro.core.slices`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field


def _json_safe(value):
    """Coerce an attribute or event field into something JSON-serialisable."""
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


@dataclass
class Span:
    """One timed operation. Usable as a context manager (ends on exit)."""

    name: str
    span_id: int
    parent_id: int | None
    start_ns: int
    end_ns: int | None = None
    attributes: dict = field(default_factory=dict)
    thread_id: int = 0
    #: The process that recorded the span.  Looked up at creation time (not
    #: module import — worker processes fork after import); spans rebuilt
    #: from a worker's slice record keep its pid, so they render on their own
    #: Perfetto process row instead of collapsing onto the gateway's.
    pid: int = 0
    detached: bool = False
    _tracer: "Tracer | None" = field(default=None, repr=False)

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = _json_safe(value)

    def set_attributes(self, **attributes) -> None:
        for key, value in attributes.items():
            self.attributes[key] = _json_safe(value)

    def end(self) -> None:
        """Close the span; idempotent."""
        if self.end_ns is None and self._tracer is not None:
            self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self.end()
        return False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "thread_id": self.thread_id,
            "pid": self.pid,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """The disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_attributes(self, **attributes) -> None:
        pass

    def end(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans into per-request traces.

    Thread-safe: spans may start and finish on different threads than the
    tracer was created on; the per-thread span stack gives implicit
    parent/child nesting within a thread.
    """

    def __init__(self, service: str = "repro"):
        self.service = service
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._open: dict[int, Span] = {}
        self._next_id = 1
        self._local = threading.local()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        parent: Span | None = None,
        detached: bool = False,
        **attributes,
    ) -> Span:
        """Open a span; the caller closes it (``with`` or ``.end()``).

        ``detached`` spans are not pushed on the opening thread's stack —
        use it for spans that end on a *different* thread (e.g. a gateway
        request settled by a pool callback), which would otherwise pin the
        opener's stack; children then link via explicit ``parent=``.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if not isinstance(parent, Span):
            parent = None  # e.g. NULL_SPAN captured before tracing was enabled
        s = Span(
            name=name,
            span_id=0,
            parent_id=parent.span_id if parent is not None else None,
            start_ns=time.perf_counter_ns(),
            attributes={k: _json_safe(v) for k, v in attributes.items()},
            thread_id=threading.get_ident(),
            pid=os.getpid(),
            detached=detached,
            _tracer=self,
        )
        with self._lock:
            s.span_id = self._next_id
            self._next_id += 1
            self._open[s.span_id] = s
        if not detached:
            stack.append(s)
        return s

    def _finish(self, span: Span) -> None:
        end_ns = time.perf_counter_ns()
        with self._lock:
            # the open-set is the single finish arbiter: a span ended twice,
            # or ended concurrently with a truncating flush, records once
            if self._open.pop(span.span_id, None) is None:
                return
            span.end_ns = end_ns
            self._spans.append(span)
        stack = self._stack()
        if span in stack:
            # pop this span and anything opened after it on this thread
            # (abandoned children of an errored operation)
            del stack[stack.index(span) :]

    def flush_truncated(self) -> list[Span]:
        """Force-finish open *detached* spans, marking them ``truncated``.

        Detached spans end on whatever thread settles them; if the collector
        closes first (``disable_tracing``, end of a load test) they would
        otherwise vanish from the export with their timing silently lost.
        Flushing stamps ``truncated: true`` so consumers can tell a span cut
        short at collection from one that really finished.  Attached spans
        are left alone — they live on a thread's stack mid-operation and
        their owner will still end them.
        """
        end_ns = time.perf_counter_ns()
        flushed = []
        with self._lock:
            for span_id, span in list(self._open.items()):
                if not span.detached:
                    continue
                del self._open[span_id]
                span.attributes["truncated"] = True
                span.end_ns = end_ns
                self._spans.append(span)
                flushed.append(span)
        return flushed

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Span | None = None,
        pid: int = 0,
        thread_id: int = 0,
        **attributes,
    ) -> Span:
        """Record a span that has already finished, from its two stamps.

        A slice's spans come this way, rebuilt from its record's boundary
        stamps (:func:`repro.core.slices.apply_slice`), with the recording
        worker's ``pid`` and ``thread_id`` (0: this process, this thread)
        so that Perfetto shows one process row per worker.  ``parent=None``
        hangs it under the calling thread's innermost open span, as
        :meth:`span` does.
        """
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        s = Span(
            name=name,
            span_id=0,
            parent_id=parent.span_id if isinstance(parent, Span) else None,
            start_ns=start_ns,
            end_ns=end_ns,
            attributes={k: _json_safe(v) for k, v in attributes.items()},
            thread_id=thread_id or threading.get_ident(),
            pid=pid or os.getpid(),
            _tracer=self,
        )
        with self._lock:
            s.span_id = self._next_id
            self._next_id += 1
            self._spans.append(s)
        return s

    # -- export ------------------------------------------------------------------

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.finished()]

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON object format (Perfetto-loadable).

        Each span renders under its *own* origin pid (merged worker spans
        get their worker's process row); spans recorded before pids were
        stamped fall back to the exporting process.
        """
        own_pid = os.getpid()
        events = []
        pids = set()
        for s in self.finished():
            args = dict(s.attributes)
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            pid = s.pid or own_pid
            pids.add(pid)
            events.append(
                {
                    "name": s.name,
                    "cat": self.service,
                    "ph": "X",
                    "ts": s.start_ns / 1000.0,  # microseconds
                    "dur": s.duration_ns / 1000.0,
                    "pid": pid,
                    "tid": s.thread_id % 2**31,
                    "args": args,
                }
            )
        # name the process rows so Perfetto labels gateway vs worker pids
        # (only when spans actually span processes — single-process traces
        # stay a plain list of X events)
        for pid in sorted(pids) if len(pids) > 1 else ():
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {
                        "name": (
                            f"{self.service} gateway ({pid})"
                            if pid == own_pid
                            else f"{self.service} worker ({pid})"
                        )
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"service": self.service},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Module-level switch: off by default, one global read on the disabled path
# ---------------------------------------------------------------------------

_tracer: Tracer | None = None


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-wide tracer; spans record from now on."""
    global _tracer
    _tracer = tracer or Tracer()
    return _tracer


def disable_tracing() -> None:
    """Uninstall the process-wide tracer (closing the collector).

    Detached spans still open at close — e.g. ``gateway.request`` spans whose
    settling callback never ran — are flushed as explicitly-truncated spans
    rather than silently dropped, so the export stays complete.
    """
    global _tracer
    t, _tracer = _tracer, None
    if t is not None:
        t.flush_truncated()


def tracing_enabled() -> bool:
    return _tracer is not None


def get_tracer() -> Tracer | None:
    return _tracer


def span(name: str, parent: Span | None = None, detached: bool = False, **attributes):
    """Open a span on the active tracer, else a shared no-op."""
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.span(name, parent=parent, detached=detached, **attributes)
