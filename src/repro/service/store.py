"""The PXDB document store: a named registry of warm (P̃, C) pairs.

A stored entry is everything a request against a PXDB needs, loaded once:

* the parsed :class:`~repro.pdoc.pdocument.PDocument` and constraint set;
* the compiled condition c-formula inside a warm
  :class:`~repro.core.evaluator.IncrementalEngine` — the store runs the
  CONSTRAINT-SAT pass on it at load time, so Pr(P ⊨ C) is cached (and
  primed into the PXDB's denominator cache: every EVAL⟨Q, C⟩ request
  divides by it without recomputing) and the engine's
  signature-distribution cache is hot before the first request arrives;
* an LRU-bounded per-query result cache (exact ``Fraction`` tables —
  sound because a stored document only changes via reload, which replaces
  the whole entry or drops the cache) with single flight: concurrent
  asks of one uncached key share one computation
  (:meth:`StoreEntry.cached_or_compute`).

The registry itself keeps *specs* (name → file paths) separately from
*loaded entries*: entries are LRU-evicted beyond ``max_entries`` but the
spec survives, so a later request transparently reloads.  On every access
the source files' mtimes are compared against the load-time values and a
change invalidates the entry.

Invalidation distinguishes two kinds of file edit via the p-document's
*structure fingerprint* (uid- and probability-free):

* a **parameter-only edit** — same structure, new probabilities — keeps
  the entry alive: the new values are applied onto the *retained* tree
  (:func:`repro.pdoc.parameters.apply_parameters`, preserving uids, the
  warm engine and every compiled circuit), the constraint probability is
  refreshed by re-binding the retained CONSTRAINT-SAT circuit, and only
  the query *result* cache is dropped (results are parameter-dependent);
* a **structural edit** (or any constraint-file change) replaces the
  whole entry: fresh parse, fresh engine, fresh caches.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import xml.etree.ElementTree as ET
from collections import OrderedDict
from concurrent.futures import Future
from pathlib import Path
from typing import Iterable

from ..core.constraint_parser import parse_constraints
from ..core.constraints import Constraint
from ..core.evaluator import IncrementalEngine
from ..core.formulas import CFormula
from ..core.pxdb import PXDB
from ..obs.spans import TRACER
from ..pdoc.parameters import apply_parameters, parameter_values
from ..pdoc.pdocument import PDocument
from ..pdoc.serialize import pdocument_from_xml
from ..xmltree.document import Document
from ..xmltree.serialize import document_from_xml


def read_pdocument(path: str | os.PathLike) -> PDocument:
    """Parse a p-document file; every failure is a one-line ``ValueError``
    naming the path (missing file, malformed XML, invalid structure)."""
    text = _read(path, "p-document")
    try:
        return pdocument_from_xml(text)
    except ET.ParseError as error:
        raise ValueError(f"malformed XML in p-document {path}: {error}") from error
    except ValueError as error:
        raise ValueError(f"invalid p-document {path}: {error}") from error


def read_constraints(path: str | os.PathLike | None) -> list[Constraint]:
    """Parse a constraint file (``None`` → no constraints), one-line errors."""
    if path is None:
        return []
    try:
        return parse_constraints(_read(path, "constraint file"))
    except ValueError as error:
        raise ValueError(f"invalid constraint file {path}: {error}") from error


def read_document(path: str | os.PathLike) -> Document:
    """Parse a concrete XML document file, one-line errors."""
    text = _read(path, "document")
    try:
        return document_from_xml(text)
    except ET.ParseError as error:
        raise ValueError(f"malformed XML in document {path}: {error}") from error


def load_pxdb(
    pdocument_path: str | os.PathLike,
    constraints_path: str | os.PathLike | None = None,
) -> tuple[PXDB, list[Constraint]]:
    """Load a PXDB from disk with one-line, path-bearing error messages.

    Raises ``ValueError`` for unreadable or malformed files — one exception
    type so both the CLI and the server map every load failure to a single
    user-facing error path.  Consistency is *not* checked here (the store
    checks it via the warm engine's pass, paying the DP exactly once).
    """
    pdoc = read_pdocument(pdocument_path)
    constraints = read_constraints(constraints_path)
    return PXDB(pdoc, constraints, check=False), constraints


def _read(path: str | os.PathLike, kind: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as error:
        reason = error.strerror or str(error)
        raise ValueError(f"cannot read {kind} {path}: {reason}") from error


class StoreEntry:
    """One warm PXDB: document, constraints, engine, caches."""

    __slots__ = ("name", "pdocument_path", "constraints_path", "pxdb",
                 "constraints", "engine", "lock", "sample_lock", "sweep_lock",
                 "query_cache", "query_cache_cap", "inflight", "loaded_at",
                 "mtimes", "content_fps", "stamped_at",
                 "structure_fp", "param_reloads", "circuit_hits",
                 "query_events", "query_events_cap")

    def __init__(
        self,
        name: str,
        pxdb: PXDB,
        constraints: Iterable[Constraint | CFormula],
        *,
        pdocument_path: str | None = None,
        constraints_path: str | None = None,
        mtimes: tuple = (),
        content_fps: tuple = (),
        engine_cache_cap: int | None = None,
        query_cache_cap: int = 128,
    ):
        self.name = name
        self.pdocument_path = pdocument_path
        self.constraints_path = constraints_path
        self.pxdb = pxdb
        self.constraints = tuple(constraints)
        self.mtimes = mtimes
        self.content_fps = content_fps
        self.stamped_at = time.time_ns()
        self.loaded_at = time.time()
        self.lock = threading.Lock()
        # Sampling mutates the warm engine's cache (not concurrency-safe)
        # — the server serializes /sample per entry on this lock.
        self.sample_lock = threading.Lock()
        # /sweep runs one vectorized sweep per entry at a time.
        self.sweep_lock = threading.Lock()
        self.query_cache: OrderedDict[str, dict] = OrderedDict()
        self.query_cache_cap = query_cache_cap
        # Result-cache keys being computed right now → the future their
        # concurrent askers wait on (see cached_or_compute).
        self.inflight: dict[str, Future] = {}
        # Per-query candidate tuples + bound event formulas, retained
        # across parameter-only reloads (structure unchanged ⇒ the
        # skeleton, hence the candidates, are unchanged).  The event
        # tuples key the PXDB's compiled-circuit cache, so a re-asked
        # query after a parameter edit answers by circuit re-bind.
        self.query_events: OrderedDict[str, tuple[tuple, tuple]] = OrderedDict()
        self.query_events_cap = PXDB.CIRCUIT_CACHE_CAP
        self.structure_fp = pxdb.pdoc.root.structure_fingerprint()
        self.param_reloads = 0
        self.circuit_hits = 0
        # Warm-up: one engine, one CONSTRAINT-SAT pass.  The denominator is
        # primed into the PXDB and the engine is injected as its sample
        # engine, so /sat answers from cache, /query divides by the cached
        # denominator, and the first /sample starts from a hot DP cache.
        self.engine = IncrementalEngine.for_formula(
            pxdb.condition, max_entries=engine_cache_cap
        )
        denominator = self.engine.probability(pxdb.pdoc)
        if denominator == 0:
            raise ValueError(
                f"PXDB {name!r} is not well-defined: Pr(P |= C) = 0"
            )
        pxdb.prime_constraint_probability(denominator)
        pxdb.sample_engine = self.engine

    def cached_or_compute(self, key: str, compute) -> tuple[dict, bool]:
        """The result-cache payload for ``key``: cached, or shared with a
        computation of ``key`` already in flight, or ``compute()`` run
        once for every concurrent asker.  Returns ``(payload, shared)``;
        ``shared`` is False only for the asker that ran ``compute``.

        A payload computed across a parameter reload is returned to its
        askers but never cached, since it may be stale: the reload drops
        the in-flight map (see :meth:`apply_parameter_update`), so the
        computation finds its flight no longer registered."""
        with self.lock:
            payload = self.query_cache.get(key)
            if payload is not None:
                self.query_cache.move_to_end(key)
                return payload, True
            flight = self.inflight.get(key)
            leader = flight is None
            if leader:
                flight = self.inflight[key] = Future()
        if not leader:
            return flight.result(), True
        try:
            payload = compute()
        except BaseException as error:
            with self.lock:
                if self.inflight.get(key) is flight:
                    del self.inflight[key]
            flight.set_exception(error)
            raise
        with self.lock:
            if self.inflight.get(key) is flight:
                del self.inflight[key]
                self._remember(key, payload)
        flight.set_result(payload)
        return payload, False

    def _remember(self, key: str, payload: dict) -> None:
        """Insert into the LRU result cache (caller holds :attr:`lock`)."""
        cache = self.query_cache
        cache[key] = payload
        cache.move_to_end(key)
        while len(cache) > self.query_cache_cap:
            cache.popitem(last=False)

    # The two single steps of cached_or_compute, kept for bench/replay.py,
    # which replays the service's cache lookups one layer at a time.
    def cache_query(self, key: str, payload: dict) -> None:
        with self.lock:
            self._remember(key, payload)

    def cached_query(self, key: str) -> dict | None:
        with self.lock:
            payload = self.query_cache.get(key)
            if payload is not None:
                self.query_cache.move_to_end(key)
            return payload

    def cache_events(self, key: str, answers: tuple, events: tuple) -> None:
        with self.lock:
            cache = self.query_events
            cache[key] = (answers, events)
            cache.move_to_end(key)
            while len(cache) > self.query_events_cap:
                cache.popitem(last=False)

    def cached_events(self, key: str) -> tuple[tuple, tuple] | None:
        with self.lock:
            known = self.query_events.get(key)
            if known is not None:
                self.query_events.move_to_end(key)
            return known

    def apply_parameter_update(
        self, new_pdoc: PDocument, mtimes: tuple, content_fps: tuple = ()
    ) -> int:
        """A parameter-only reload: copy ``new_pdoc``'s probability values
        onto the *retained* tree (uids, warm engine and compiled circuits
        all survive; the engine's stale fingerprint keys simply never hit
        again), refresh Pr(P ⊨ C) by re-binding the retained
        CONSTRAINT-SAT circuit, and drop the (parameter-dependent) query
        result cache.  Raises ``ValueError`` when the new parameters make
        the PXDB ill-defined (Pr(P ⊨ C) = 0)."""
        changed = apply_parameters(self.pxdb.pdoc, parameter_values(new_pdoc))
        # Rebind + one forward sweep; also re-primes the denominator cache
        # that /sat and every /query division read.
        self.pxdb.event_probabilities([], via="circuit")
        with self.lock:
            # Computations still in flight read the old parameters (or a
            # mix): dropping their flights keeps their payloads out of the
            # cache and makes later askers compute afresh.
            self.param_reloads += 1
            self.query_cache.clear()
            self.inflight.clear()
        self.mtimes = mtimes
        self.content_fps = content_fps
        self.stamped_at = time.time_ns()
        return changed

    def info(self) -> dict:
        """A JSON-ready description (served by ``/stats``)."""
        pdoc = self.pxdb.pdoc
        denominator = self.pxdb.constraint_probability()
        return {
            "name": self.name,
            "pdocument": self.pdocument_path,
            "constraints_file": self.constraints_path,
            "constraints": len(self.constraints),
            "ordinary_nodes": pdoc.ordinary_size(),
            "distributional_edges": len(pdoc.dist_edges()),
            "constraint_probability": str(denominator),
            "constraint_probability_float": float(denominator),
            "loaded_at": self.loaded_at,
            "query_cache_entries": len(self.query_cache),
            "param_reloads": self.param_reloads,
            "circuit_hits": self.circuit_hits,
            "circuits": self.pxdb.circuit_stats(),
            "engine": self.engine.stats(),
            # Monte-Carlo estimator state lives with the entry (warm
            # engines + draw counters per sampler backend); empty until
            # the first backend=approx request.
            "approx": self.pxdb.approx_stats(),
        }


class DocumentStore:
    """The named registry: register once, serve warm forever.

    Thread-safe.  ``max_entries`` bounds the number of *loaded* entries
    (LRU); registered specs are never forgotten, so an evicted name
    reloads transparently on next access.  ``check_mtime=False`` disables
    the per-access stat calls (for immutable deployments).
    ``coalesce_window`` is accepted and ignored: the service benchmark's
    replay (``bench/replay.py``) still passes it, and ``bench/`` changes
    only with the benchmark itself.
    """

    def __init__(
        self,
        max_entries: int = 64,
        *,
        check_mtime: bool = True,
        engine_cache_cap: int | None = None,
        query_cache_cap: int = 128,
        coalesce_window: float | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.check_mtime = check_mtime
        self._engine_cache_cap = engine_cache_cap
        self._query_cache_cap = query_cache_cap
        self._lock = threading.RLock()
        self._specs: dict[str, tuple[str, str | None] | None] = {}
        self._entries: OrderedDict[str, StoreEntry] = OrderedDict()
        self.loads = 0
        self.reloads = 0
        self.param_reloads = 0
        self.evictions = 0
        self.hits = 0

    # -- registration ---------------------------------------------------------
    def register(
        self,
        name: str,
        pdocument_path: str | os.PathLike,
        constraints_path: str | os.PathLike | None = None,
    ) -> StoreEntry:
        """Load the files now, remember the spec forever."""
        with self._lock:
            spec = (
                str(pdocument_path),
                str(constraints_path) if constraints_path is not None else None,
            )
            self._specs[name] = spec
            entry = self._load(name, spec)
            self._install(name, entry)
            return entry

    def register_specs(
        self, specs: Iterable[tuple[str, str, str | None]]
    ) -> list[str]:
        """Bulk-register ``DocumentStore.specs()`` output — the warming
        path for pool workers, each of which loads every spec.
        A spec that fails to load is skipped, not fatal: the name stays
        unregistered here and callers fall back elsewhere.  Returns the
        names actually registered."""
        registered = []
        for name, pdocument_path, constraints_path in specs:
            try:
                self.register(name, pdocument_path, constraints_path)
            except ValueError:
                continue
            registered.append(name)
        return registered

    def add(
        self,
        name: str,
        pxdb: PXDB,
        constraints: Iterable[Constraint | CFormula] = (),
    ) -> StoreEntry:
        """Register an in-memory PXDB (no files, so no mtime invalidation;
        if evicted, the entry is gone — there is no spec to reload from)."""
        with self._lock:
            entry = StoreEntry(
                name,
                pxdb,
                constraints or pxdb.constraints,
                engine_cache_cap=self._engine_cache_cap,
                query_cache_cap=self._query_cache_cap,
            )
            self._specs[name] = None
            self._install(name, entry)
            return entry

    def remove(self, name: str) -> None:
        with self._lock:
            self._specs.pop(name, None)
            self._entries.pop(name, None)

    # -- access ---------------------------------------------------------------
    def get(self, name: str) -> StoreEntry:
        """The entry for ``name`` — warm if loaded and fresh, reloaded if
        its files changed on disk, loaded from spec if LRU-evicted.
        Raises ``KeyError`` for names never registered.  Traced only
        inside a request's span: a lookup alone is not a trace."""
        if not TRACER.enabled or TRACER.current_trace_id() is None:
            return self._get(name)
        before = (self.hits, self.loads, self.reloads, self.param_reloads)
        with TRACER.span("store.get", db=name) as span:
            entry = self._get(name)
            deltas = (self.hits, self.loads, self.reloads, self.param_reloads)
            for label, b, a in zip(("warm", "load", "reload", "param_reload"),
                                   before, deltas):
                if a > b:
                    # Under concurrency another request may bump a counter
                    # in between; first changed one wins — tracing detail,
                    # not an exact ledger.
                    span.set(outcome=label)
                    break
        return entry

    def _get(self, name: str) -> StoreEntry:
        with self._lock:
            if name not in self._specs:
                raise KeyError(f"no PXDB named {name!r} is registered")
            spec = self._specs[name]
            entry = self._entries.get(name)
            if entry is not None and spec is not None and self.check_mtime:
                stamps = _stamps(spec)
                fps = None
                changed = stamps != entry.mtimes
                if not changed and entry.content_fps and _racy(
                    stamps, entry.stamped_at
                ):
                    # The stat signature is unchanged but was recorded so
                    # close to the files' mtimes that a same-tick rewrite
                    # (coarse-timestamp filesystem, fast writer) would be
                    # invisible to it — break the tie on content.
                    fps = _fingerprints(spec)
                    changed = fps != entry.content_fps
                if changed:
                    try:
                        rebound = self._try_rebind(entry, spec, stamps, fps)
                    except ValueError:
                        # The entry's tree may already carry the bad
                        # parameters — drop it; the spec survives, so the
                        # next access retries from a fresh parse.
                        self._entries.pop(name, None)
                        raise
                    if rebound:
                        self.param_reloads += 1
                        self._entries.move_to_end(name)
                        return entry
                    self.reloads += 1
                    entry = self._load(name, spec)
                    self._install(name, entry)
                    return entry
            if entry is None:
                if spec is None:
                    raise KeyError(
                        f"PXDB {name!r} was evicted and has no file spec to reload"
                    )
                entry = self._load(name, spec)
                self._install(name, entry)
                return entry
            self.hits += 1
            self._entries.move_to_end(name)
            return entry

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._specs)

    def loaded_names(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def loaded_entries(self) -> list[StoreEntry]:
        """A snapshot of the loaded entries (no LRU touch, no mtime check
        — observability reads should not perturb eviction order)."""
        with self._lock:
            return list(self._entries.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._specs

    def specs(self) -> list[tuple[str, str, str | None]]:
        """(name, pdocument_path, constraints_path) for file-backed entries
        — the hand-off format for warming process-pool workers."""
        with self._lock:
            return [
                (name, spec[0], spec[1])
                for name, spec in sorted(self._specs.items())
                if spec is not None
            ]

    def stats(self) -> dict:
        with self._lock:
            return {
                "registered": len(self._specs),
                "loaded": len(self._entries),
                "max_entries": self.max_entries,
                "loads": self.loads,
                "reloads": self.reloads,
                "param_reloads": self.param_reloads,
                "evictions": self.evictions,
                "hits": self.hits,
            }

    # -- internals ------------------------------------------------------------
    def _try_rebind(
        self, entry: StoreEntry, spec: tuple[str, str | None],
        stamps: tuple, fps: tuple | None = None,
    ) -> bool:
        """Attempt a parameter-only refresh of a stale entry.

        Returns True when the p-document file changed probabilities only
        (equal structure fingerprints) and the constraint file did not
        change — in which case the entry was updated in place.  Returns
        False to request a full reload.  ``ValueError`` (malformed file,
        ill-defined parameters) propagates to the caller.
        """
        if len(stamps) != len(entry.mtimes):
            return False
        if len(stamps) == 2 and stamps[1] != entry.mtimes[1]:
            return False  # the constraint file changed: full reload
        if fps is None:
            fps = _fingerprints(spec)
        if (
            len(fps) == 2
            and len(entry.content_fps) == 2
            and fps[1] != entry.content_fps[1]
        ):
            return False  # same-tick constraint rewrite: full reload
        new_pdoc = read_pdocument(spec[0])
        if new_pdoc.root.structure_fingerprint() != entry.structure_fp:
            return False
        entry.apply_parameter_update(new_pdoc, stamps, fps)
        return True

    def _load(self, name: str, spec: tuple[str, str | None]) -> StoreEntry:
        pdocument_path, constraints_path = spec
        pxdb, constraints = load_pxdb(pdocument_path, constraints_path)
        self.loads += 1
        return StoreEntry(
            name,
            pxdb,
            constraints,
            pdocument_path=pdocument_path,
            constraints_path=constraints_path,
            mtimes=_stamps(spec),
            content_fps=_fingerprints(spec),
            engine_cache_cap=self._engine_cache_cap,
            query_cache_cap=self._query_cache_cap,
        )

    def _install(self, name: str, entry: StoreEntry) -> None:
        self._entries[name] = entry
        self._entries.move_to_end(name)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1


# A same-stat rewrite is only possible while the filesystem clock is
# within its timestamp granularity of the recorded stamp; 2 s covers
# 1-second-resolution filesystems with margin (git's racy-clean window).
_RACY_WINDOW_NS = 2_000_000_000


def _stamps(spec: tuple[str, str | None]) -> tuple[tuple[int, int], ...]:
    """(st_mtime_ns, st_size) of the spec's files ((0, 0) for a missing
    file, so deletion also invalidates).  Size breaks most same-tick
    rewrite ties; equal-size ties fall to the content fingerprint."""
    stamps = []
    for path in spec:
        if path is None:
            continue
        try:
            status = os.stat(path)
            stamps.append((status.st_mtime_ns, status.st_size))
        except OSError:
            stamps.append((0, 0))
    return tuple(stamps)


def _fingerprints(spec: tuple[str, str | None]) -> tuple[bytes, ...]:
    """A content digest per spec file (empty for an unreadable file)."""
    prints = []
    for path in spec:
        if path is None:
            continue
        try:
            data = Path(path).read_bytes()
        except OSError:
            prints.append(b"")
            continue
        prints.append(hashlib.blake2b(data, digest_size=16).digest())
    return tuple(prints)


def _racy(stamps: tuple, stamped_at_ns: int) -> bool:
    """Whether any file's mtime is close enough to the time the stamps
    were recorded that a same-stat rewrite could hide from ``os.stat``."""
    return any(
        mtime_ns and stamped_at_ns - mtime_ns <= _RACY_WINDOW_NS
        for mtime_ns, _ in stamps
    )
