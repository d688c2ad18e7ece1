"""Host-speed calibration on both cores at once.

On a shared machine each core's speed swings by up to 2x within seconds,
and the gateway and its worker run on different cores.  A
:class:`Calibrator` times a fixed pure-Python loop in this process and, at
the same moment, in a helper process (``python -m
benchmarks.e2e.calibration``) that the OS places on the other core.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes on this core right now."""
    started = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        table[i & 1023] = acc
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


class Calibrator:
    """Both cores' loop times, combined into one host reading."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.calibration"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        """Geometric mean of the two cores' loop times, in seconds."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        here = calibration_s()
        there = float(self._helper.stdout.readline())
        return math.sqrt(here * there)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=10)
        self._helper.stdout.close()


if __name__ == "__main__":
    for _line in sys.stdin:
        print(calibration_s(), flush=True)
