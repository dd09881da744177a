"""Benchmark-suite configuration.

Every module here regenerates one experiment of DESIGN.md's index
(E1-E10), asserting the qualitative *shape* the paper claims (exactness,
polynomial vs. exponential growth, who wins where) while pytest-benchmark
records the timings.  Run with::

    pytest benchmarks/ --benchmark-only

Each test receives the ``report`` fixture to emit human-readable result
rows; they are printed in the terminal summary and kept in
``benchmarks/last_experiment_rows.txt`` (the source for EXPERIMENTS.md),
one ``# bench_<area>.py`` section per module.  A run replaces the
sections of the modules that reported rows and keeps every other one, so
a partial run does not drop the rows of the modules it skipped.

Each test also receives the ``record`` fixture — structured benchmark
telemetry (``repro.obs.benchrec``).  At session end every exercised area
writes ``BENCH_<area>.json`` at the repo root and is diffed against the
previous file of the same name; wall-time/speedup regressions beyond the
threshold are printed in the terminal summary (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs import benchrec

_ROWS: dict[str, list[str]] = {}  # module file name -> rows of this run
_ROWS_FILE = Path(__file__).parent / "last_experiment_rows.txt"

_REPO_ROOT = Path(__file__).parent.parent
_RECORDERS: dict[str, benchrec.BenchRecorder] = {}


@pytest.fixture(scope="session")
def scenario_matrix():
    """The shipped pairwise-covering scenario matrix (one instance per
    spec, generated at a fixed seed) — the standard corpus every
    benchmark area can measure against instead of the single university
    workload.  See docs/WORKLOADS.md."""
    from repro.workloads.scenarios import generate, standard_matrix

    return [generate(spec, seed=17) for spec in standard_matrix()]


@pytest.fixture
def report(request):
    """Collect human-readable experiment rows of the requesting module
    (printed at session end)."""
    module = Path(request.module.__file__).name

    def emit(line: str) -> None:
        _ROWS.setdefault(module, []).append(line)

    return emit


def _merge_rows(text: str, fresh: dict[str, list[str]]) -> str:
    """The rows file ``text`` with the sections of the modules in
    ``fresh`` replaced by their sorted rows; rows above the first
    section header are kept as they are."""
    sections: dict[str, list[str]] = {}
    module = ""
    for line in text.splitlines():
        if line.startswith("# "):
            module = line[2:]
            sections.setdefault(module, [])
        elif line:
            sections.setdefault(module, []).append(line)
    sections.update((module, sorted(rows)) for module, rows in fresh.items())
    lines: list[str] = []
    for module in sorted(sections):
        if module:
            lines.append(f"# {module}")
        lines.extend(sections[module])
    return "\n".join(lines) + "\n"


@pytest.fixture
def record(request):
    """Structured telemetry for the requesting module's area: calling
    ``record(workload, wall_s=…, counters=…, speedup=…, **extra)`` appends
    one pxdb-bench/1 row to BENCH_<area>.json (area = the module name
    minus its ``bench_`` prefix; the test name is filled in)."""
    module = request.module.__name__.rpartition(".")[2]
    area = module[len("bench_"):] if module.startswith("bench_") else module
    recorder = _RECORDERS.get(area)
    if recorder is None:
        recorder = _RECORDERS[area] = benchrec.BenchRecorder(area, _REPO_ROOT)
    test = request.node.name

    def emit(workload, wall_s=None, counters=None, speedup=None, **extra):
        return recorder.record(
            test, workload, wall_s, counters=counters, speedup=speedup, **extra
        )

    return emit


def pytest_sessionstart(session):
    _ROWS.clear()
    _RECORDERS.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ROWS:
        terminalreporter.write_line("")
        terminalreporter.write_line("=== reproduced experiment rows ===")
        for row in sorted(row for rows in _ROWS.values() for row in rows):
            terminalreporter.write_line(row)
        previous = _ROWS_FILE.read_text() if _ROWS_FILE.exists() else ""
        _ROWS_FILE.write_text(_merge_rows(previous, _ROWS))
    if not _RECORDERS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=== benchmark telemetry (pxdb-bench/1) ===")
    for area in sorted(_RECORDERS):
        recorder = _RECORDERS[area]
        previous = None
        if recorder.path.exists():
            try:
                previous = benchrec.load(recorder.path)
            except (ValueError, OSError):
                previous = None  # unreadable old telemetry: overwrite it
        path = recorder.write()
        terminalreporter.write_line(
            f"{path.name}: {len(recorder.rows)} row(s)"
        )
        if previous is not None:
            flagged = benchrec.compare(previous, recorder.payload())
            if flagged:
                terminalreporter.write_line(benchrec.format_regressions(flagged))
            else:
                terminalreporter.write_line(
                    f"  no regressions vs previous {path.name}"
                )
