"""A multi-worker FIFO request server for the FaaS throughput experiments."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.simnet.kernel import Simulator


@dataclass
class ServedRequest:
    """Bookkeeping for one request through the server."""

    arrival: float
    start: float = 0.0
    completion: float = 0.0
    payload_bytes: int = 0

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @property
    def queueing(self) -> float:
        return self.start - self.arrival


class RequestServer:
    """Serves requests FIFO across ``workers`` parallel executors.

    ``service_time`` maps a request payload size to seconds of busy executor
    time — in the FaaS scenario that function encapsulates the whole AccTEE
    stack (instantiation, Wasm execution, LKL I/O, SGX transitions).
    """

    def __init__(
        self,
        sim: Simulator,
        service_time: Callable[[int], float],
        workers: int = 1,
    ):
        self.sim = sim
        self.service_time = service_time
        self.workers = workers
        self._busy = 0
        self._queue: deque[tuple[ServedRequest, Callable[[ServedRequest], None]]] = deque()
        self.completed: list[ServedRequest] = []

    def submit(self, payload_bytes: int, on_done: Callable[[ServedRequest], None]) -> None:
        request = ServedRequest(arrival=self.sim.now, payload_bytes=payload_bytes)
        self._queue.append((request, on_done))
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        while self._busy < self.workers and self._queue:
            request, on_done = self._queue.popleft()
            self._busy += 1
            request.start = self.sim.now
            duration = self.service_time(request.payload_bytes)

            def finish(req=request, done=on_done) -> None:
                req.completion = self.sim.now
                self.completed.append(req)
                self._busy -= 1
                done(req)
                self._try_dispatch()

            self.sim.schedule(duration, finish)
