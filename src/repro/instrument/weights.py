"""Instruction weight tables for the weighted instruction counter (§3.7).

Weights are integers (a fixed-point scale over the measured cycle costs) so
the injected i64 counter arithmetic is exact.  Two standard tables:

* :data:`UNIT_WEIGHTS` — every instruction weighs 1: the plain executed-
  instruction counter used for correctness verification;
* :func:`cycle_weight_table` — the Fig. 7 cycle costs from
  :mod:`repro.wasm.costmodel`, scaled by 10 to preserve their one decimal.

The paper notes weights are part of the attested execution environment and
adjustable at runtime without re-releasing enclaves; :class:`WeightTable`
therefore carries a version and a stable digest that the accounting enclave
includes in its resource logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.tcrypto.hashing import sha256
from repro.wasm.costmodel import CYCLE_WEIGHTS
from repro.wasm.instructions import INSTRUCTIONS_BY_NAME


@dataclass(frozen=True)
class WeightTable:
    """Integer weights per instruction name, with provenance metadata."""

    weights: dict[str, int]
    scale: int = 1
    version: str = "unit-1"

    def __post_init__(self) -> None:
        for name in self.weights:
            if name not in INSTRUCTIONS_BY_NAME:
                raise ValueError(f"weight table references unknown instruction {name!r}")
        for name, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {name}")

    def weight(self, name: str) -> int:
        """Weight of one instruction; unlisted instructions weigh ``scale`` (1.0)."""
        return self.weights.get(name, self.scale)

    def block_weight(self, names: list[str]) -> int:
        return sum(self.weight(n) for n in names)

    def digest(self) -> bytes:
        """Stable digest identifying this table (goes into resource logs).

        Memoised: the table is frozen and the accounting enclave asks for
        the digest on every receipt, so serializing the full weights dict
        each time would dominate the accounting hot path.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        canonical = json.dumps(
            {"weights": self.weights, "scale": self.scale, "version": self.version},
            sort_keys=True,
        )
        digest = sha256(canonical.encode("utf-8"))
        object.__setattr__(self, "_digest", digest)
        return digest


#: Every instruction counts 1: the unweighted executed-instruction counter.
UNIT_WEIGHTS = WeightTable(
    weights={name: 1 for name in INSTRUCTIONS_BY_NAME},
    scale=1,
    version="unit-1",
)


def cycle_weight_table(scale: int = 10) -> WeightTable:
    """Build the weighted table from the measured cycle costs (Fig. 7)."""
    return WeightTable(
        weights={name: round(cycles * scale) for name, cycles in CYCLE_WEIGHTS.items()},
        scale=scale,
        version=f"xeon-e3-1230v5-sim/x{scale}",
    )
