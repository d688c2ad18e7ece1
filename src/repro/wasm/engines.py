"""Execution-engine registry: one place that knows every engine's name.

Two engines execute validated modules, both producing byte-identical
:class:`~repro.wasm.interpreter.ExecutionStats` (the differential suite in
``tests/wasm/test_engine_differential.py`` is the contract):

* ``compile`` — the default, which every serving entry point runs on:
  translates validated function bodies to Python source with folded meter
  counters, compiled once with :func:`compile` and cached per (module
  fingerprint, cost signature) (:mod:`repro.wasm.compile_engine`);
* ``predecode`` — the semantics reference: pre-decoded threaded dispatch
  that charges every instruction one at a time
  (:mod:`repro.wasm.predecode`), defining the reference order of capture,
  charge, budget trap and progress callback.

The predecode closures and the translator's emitted code are two
independently written semantics, so the differential suites compare one
against the other.

Engine selection precedence: the explicit ``Instance(engine=...)`` argument,
then the ``REPRO_WASM_ENGINE`` environment variable (consulted at
instantiation time, not import time), then :data:`FALLBACK_ENGINE`.
Historically both ``interpreter.py`` and ``predecode.py`` consulted the
environment variable independently; this module is now the single reader.
"""

from __future__ import annotations

import os

#: Environment variable that overrides the default engine.
ENGINE_ENV_VAR = "REPRO_WASM_ENGINE"

#: Recognised engine names, the semantics reference first.
ENGINE_NAMES: tuple[str, ...] = ("predecode", "compile")

#: Engine used when neither ``engine=`` nor the environment variable is set.
FALLBACK_ENGINE = "compile"


class UnknownEngineError(ValueError):
    """A name that is not in :data:`ENGINE_NAMES` was requested.

    Subclasses :class:`ValueError` so callers that predate the typed error
    (``except ValueError``) keep working.
    """

    def __init__(self, name: str, source: str = "engine argument"):
        self.name = name
        self.source = source
        super().__init__(
            f"unknown engine {name!r} (from {source}); "
            f"expected one of {ENGINE_NAMES}"
        )


def default_engine() -> str:
    """The engine used when ``Instance(engine=None)``.

    Reads ``REPRO_WASM_ENGINE`` at call time so tests and services can flip
    the default without re-importing the interpreter.
    """
    name = os.environ.get(ENGINE_ENV_VAR)
    if name is None or name == "":
        return FALLBACK_ENGINE
    if name not in ENGINE_NAMES:
        raise UnknownEngineError(name, source=f"${ENGINE_ENV_VAR}")
    return name


def resolve_engine(engine: str | None) -> str:
    """Validate an explicit engine name, or fall back to the default.

    Raises :class:`UnknownEngineError` for names outside
    :data:`ENGINE_NAMES`.
    """
    if engine is None:
        return default_engine()
    if engine not in ENGINE_NAMES:
        raise UnknownEngineError(engine)
    return engine
