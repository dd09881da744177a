"""Observability for the PXDB stack: span tracing, DP-phase profiling,
structured logging and benchmark telemetry.  Everything here is stdlib
only and safe to import from the hot path — the disabled-tracing cost is
one attribute load and a branch.

See ``docs/OBSERVABILITY.md`` for the span model, attribute glossary and
the ``BENCH_*.json`` telemetry schema.
"""

from .benchrec import BenchRecorder, compare as compare_bench, load as load_bench
from .cost import CostObservatory, fold_trace
from .logs import configure_logging, get_logger
from .spans import NOOP_SPAN, TRACER, Span, Tracer, build_tree, tree_coverage

__all__ = [
    "BenchRecorder",
    "compare_bench",
    "load_bench",
    "CostObservatory",
    "fold_trace",
    "configure_logging",
    "get_logger",
    "NOOP_SPAN",
    "TRACER",
    "Span",
    "Tracer",
    "build_tree",
    "tree_coverage",
    "package_version",
]


def package_version() -> str:
    """The installed package version, falling back to the source tree's
    ``repro.__version__`` when no distribution metadata is available
    (PYTHONPATH=src runs)."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        from .. import __version__  # lazy: avoids a cycle during package init

        return __version__
