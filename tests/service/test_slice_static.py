"""A slice stamps its boundaries and calls no telemetry API.

Static pins for the execution path below the gateway's request
transitions: ``run_slice``, the worker's task path, the fault act-out and
the snapshot package open no span, emit no event and touch no instrument.
Every one of those comes from :func:`repro.core.slices.apply_slice`,
which applies the slice table to the slice's record.
The snapshot package does not even import :mod:`repro.obs`.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import accounting_enclave
from repro.service import faults, worker

#: Called by name or as a method: the span and event APIs.
_TELEMETRY_NAMES = {"span", "emit", "emit_event"}
#: Called as a method: the instruments' mutators.
_INSTRUMENT_METHODS = {"inc", "observe", "set"}

_SNAPSHOT = Path(repro.__file__).parent / "wasm" / "snapshot"


def _telemetry_calls(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _TELEMETRY_NAMES:
            found.append(f"{func.id}( at line {node.lineno}")
        elif isinstance(func, ast.Attribute) and (
            func.attr in _TELEMETRY_NAMES or func.attr in _INSTRUMENT_METHODS
        ):
            found.append(f".{func.attr}( at line {node.lineno}")
    return found


@pytest.mark.parametrize(
    "function",
    [
        accounting_enclave.run_slice,
        worker.execute_task,
        worker._cached_decoded,
        faults.perform_pre_fault,
    ],
    ids=lambda f: f.__name__,
)
def test_slice_path_makes_no_telemetry_call(function):
    assert _telemetry_calls(inspect.getsource(function)) == []


@pytest.mark.parametrize("path", sorted(_SNAPSHOT.glob("*.py")), ids=lambda p: p.name)
def test_snapshot_package_makes_no_telemetry_call(path):
    assert _telemetry_calls(path.read_text()) == []


def test_the_pin_sees_each_kind_of_call():
    source = "span('a')\nx.emit('b')\nemit_event('c')\nm.inc()\nh.observe(1)\ng.set(2)\n"
    assert len(_telemetry_calls(source)) == 6


def test_snapshot_package_loads_no_obs_module():
    src = str(Path(repro.__file__).parent.parent)
    probe = (
        "import sys, repro.wasm.snapshot\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'obs']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
