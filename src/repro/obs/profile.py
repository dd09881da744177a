"""Span-folded profiling: collapsed-stack profiles without a profiler.

A finished trace is already a call tree — each span knows its parent,
its wall time and how much of it the children cover.  Folding every
finished trace into cumulative ``root;child;grandchild`` paths therefore
yields a flamegraph-compatible profile of where request time goes
(*self* time per span path), at zero extra cost on the hot path: the
fold runs on the tracer's trace-finish hook, off the request thread's
critical section.

:class:`SpanProfiler` keeps those cumulative paths (count / self-ms /
total-ms per path) and renders Brendan Gregg's collapsed format —
``path;segments value`` lines, value in integer microseconds of self
time — which ``flamegraph.pl``, speedscope and friends all ingest.
"""

from __future__ import annotations

import threading

from .spans import build_tree


def _fold_tree(node: dict, prefix: str, into: dict, max_paths: int) -> None:
    path = f"{prefix};{node['name']}" if prefix else node["name"]
    children = node.get("children", ())
    duration = max(node["duration_ms"], 0.0)
    covered = sum(max(child["duration_ms"], 0.0) for child in children)
    self_ms = max(duration - covered, 0.0)
    stats = into.get(path)
    if stats is None:
        if len(into) >= max_paths:
            return  # bounded: pathological traces cannot grow without limit
        stats = into[path] = [0, 0.0, 0.0]
    stats[0] += 1
    stats[1] += self_ms
    stats[2] += duration
    for child in children:
        _fold_tree(child, path, into, max_paths)


class SpanProfiler:
    """Cumulative collapsed-stack profile folded from finished traces.

    ``add_trace(root, spans)`` matches the tracer's trace-finish observer
    signature; everything else reads the accumulated ``path →
    (count, self_ms, total_ms)`` table.
    """

    def __init__(self, max_paths: int = 4096):
        self.max_paths = max_paths
        self._lock = threading.Lock()
        self._paths: dict[str, list] = {}
        self.traces_folded = 0

    def add_trace(self, root: dict, spans: list[dict]) -> None:
        forest = build_tree(spans if spans else [root])
        folded: dict[str, list] = {}
        for tree_root in forest:
            _fold_tree(tree_root, "", folded, self.max_paths)
        with self._lock:
            self.traces_folded += 1
            for path, (count, self_ms, total_ms) in folded.items():
                stats = self._paths.get(path)
                if stats is None:
                    if len(self._paths) >= self.max_paths:
                        continue
                    stats = self._paths[path] = [0, 0.0, 0.0]
                stats[0] += count
                stats[1] += self_ms
                stats[2] += total_ms

    def reset(self) -> None:
        with self._lock:
            self._paths.clear()
            self.traces_folded = 0

    def snapshot(self) -> dict:
        """JSON payload: rows sorted by self time, heaviest first."""
        with self._lock:
            rows = [
                {
                    "path": path,
                    "count": count,
                    "self_ms": round(self_ms, 3),
                    "total_ms": round(total_ms, 3),
                }
                for path, (count, self_ms, total_ms) in self._paths.items()
            ]
            folded = self.traces_folded
        rows.sort(key=lambda row: -row["self_ms"])
        return {"source": "spans", "traces_folded": folded, "paths": rows}

    def collapsed(self) -> str:
        """The flamegraph collapsed format: one ``path value`` line per
        span path, value in integer microseconds of cumulative self time
        (zero-self paths are kept at their fold count so pure-dispatch
        frames still appear)."""
        with self._lock:
            items = sorted(self._paths.items())
        lines = []
        for path, (count, self_ms, _total) in items:
            value = int(self_ms * 1000)
            lines.append(f"{path} {value if value > 0 else count}")
        return "\n".join(lines) + ("\n" if lines else "")

