"""Shared benchmark helpers: result tables and where artefacts are written.

Every figure/table benchmark renders its rows with :func:`emit_table`, which
both prints them (visible with ``pytest -s``) and persists them as
``benchmarks/results/<name>.txt``.  Every artefact path — those tables and
the ``BENCH_*.json`` files at the repository root — comes from
:func:`artifact_path`: committed artefacts are rewritten only when
``REPRO_BENCH_WRITE=1`` (as the CI steps that upload them set), so a plain
benchmark run leaves the checkout clean.
"""

from __future__ import annotations

import atexit
import os
import pathlib
import shutil
import tempfile

REPO_ROOT = pathlib.Path(__file__).parent.parent
_scratch_root: pathlib.Path | None = None


def artifact_path(relpath: str) -> pathlib.Path:
    """Where this run writes (and reads back) the artefact at repo-relative
    ``relpath``, e.g. ``"BENCH_snapshot.json"``.

    With ``REPRO_BENCH_WRITE=1`` that is the repository itself, so the run
    refreshes the committed artefact; otherwise it is one temporary
    directory per run, removed at exit, which starts empty — a read-back
    sees only what this run wrote.
    """
    global _scratch_root
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        root = REPO_ROOT
    else:
        if _scratch_root is None:
            _scratch_root = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-"))
            atexit.register(shutil.rmtree, _scratch_root, True)
        root = _scratch_root
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def emit_table(name: str, title: str, header: list[str], rows: list[list]) -> str:
    """Format, print and persist one experiment table."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]

    def fmt(cells) -> str:
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    lines = [title, fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in rows]
    text = "\n".join(lines) + "\n"
    artifact_path(f"benchmarks/results/{name}.txt").write_text(text)
    print("\n" + text)
    return text


def record(benchmark, fn=None) -> None:
    """Attach a timing to a table/shape test.

    pytest-benchmark skips tests that never touch the ``benchmark`` fixture
    when invoked with ``--benchmark-only``; every experiment test calls this
    so that ``pytest benchmarks/ --benchmark-only`` regenerates *all* figure
    tables, not just the micro-timings.
    """
    benchmark.pedantic(fn or (lambda: None), rounds=1, iterations=1)
