"""Tests for the PXDB service layer (store, server, pool, single-flight
result cache, HTTP front end)."""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from urllib.request import urlopen

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluator import IncrementalEngine
from repro.core.pxdb import PXDB
from repro.core.query import Query
from repro.core.query_eval import candidate_tuples
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.service import (
    DocumentStore,
    EvaluationPool,
    LatencyHistogram,
    Metrics,
    PXDBService,
    PoolTimeout,
    PoolUnavailable,
    ServiceClient,
    ServiceError,
    build_service,
    load_pxdb,
    start_async_server,
)
from repro.service.server import (
    dispatch_route,
    query_payload,
    sat_payload,
    topk_payload,
)
from repro.service.store import read_constraints, read_pdocument

from .strategies import DEFAULT_SETTINGS
from repro.xmltree.document import Document, doc
from repro.xmltree.serialize import document_to_xml

CONSTRAINTS = "forall catalog/$shelf : count(*/$book) >= 1\n"
QUERY = "catalog/shelf/book/title/$*"


def make_catalog():
    """The small two-book catalog of the CLI tests (Pr(P |= C) = 5/8)."""
    pd, root = pdocument("catalog")
    shelf = root.ordinary("shelf")
    books = shelf.ind()
    b1 = PNode("ord", "book")
    b1.ordinary("title").ordinary("Dune")
    books.add_edge(b1, Fraction(1, 2))
    b2 = PNode("ord", "book")
    b2.ordinary("title").ordinary("Solaris")
    books.add_edge(b2, Fraction(1, 4))
    pd.validate()
    return pd


@pytest.fixture()
def catalog_files(tmp_path: Path) -> tuple[Path, Path]:
    pdoc_path = tmp_path / "catalog.pxml"
    pdoc_path.write_text(pdocument_to_xml(make_catalog()))
    constraints_path = tmp_path / "constraints.txt"
    constraints_path.write_text(CONSTRAINTS)
    return pdoc_path, constraints_path


def _bump_mtime(path: Path) -> None:
    stamp = os.stat(path).st_mtime_ns + 1_000_000_000
    os.utime(path, ns=(stamp, stamp))


# -- loading ------------------------------------------------------------------

def test_load_pxdb_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read p-document"):
        load_pxdb(tmp_path / "nope.pxml")


def test_load_pxdb_malformed_xml(tmp_path):
    bad = tmp_path / "bad.pxml"
    bad.write_text("<not xml")
    with pytest.raises(ValueError, match="malformed XML in p-document"):
        load_pxdb(bad)


def test_load_pxdb_bad_constraints(catalog_files, tmp_path):
    pdoc_path, _ = catalog_files
    bad = tmp_path / "bad.cons"
    bad.write_text("forall nonsense without count\n")
    with pytest.raises(ValueError, match="invalid constraint file"):
        load_pxdb(pdoc_path, bad)


# -- the document store -------------------------------------------------------

def test_store_warm_entry(catalog_files):
    store = DocumentStore()
    entry = store.register("cat", *catalog_files)
    # Load-time warm-up: denominator cached, engine already ran one pass.
    assert entry.pxdb.constraint_probability() == Fraction(5, 8)
    assert entry.engine.runs == 1
    assert entry.pxdb.sample_engine is entry.engine
    assert store.get("cat") is entry
    assert store.stats()["hits"] == 1


def test_store_rejects_inconsistent_pxdb(tmp_path, catalog_files):
    pdoc_path, _ = catalog_files
    impossible = tmp_path / "impossible.cons"
    impossible.write_text("forall catalog/$shelf : count(*/$book) >= 5\n")
    store = DocumentStore()
    with pytest.raises(ValueError, match="not well-defined"):
        store.register("cat", pdoc_path, impossible)


def test_store_mtime_invalidation(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    first = store.register("cat", pdoc_path, constraints_path)
    assert store.get("cat") is first
    constraints_path.write_text("forall catalog/$shelf : count(*/$book) >= 0\n")
    _bump_mtime(constraints_path)
    second = store.get("cat")
    assert second is not first
    assert second.pxdb.constraint_probability() == 1  # new trivial constraint
    assert store.stats()["reloads"] == 1


def test_store_mtime_checks_disabled(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore(check_mtime=False)
    first = store.register("cat", pdoc_path, constraints_path)
    _bump_mtime(constraints_path)
    assert store.get("cat") is first


def test_store_lru_eviction_reloads_from_spec(catalog_files, tmp_path):
    pdoc_path, constraints_path = catalog_files
    other_path = tmp_path / "other.pxml"
    other_path.write_text(pdocument_to_xml(make_catalog()))
    store = DocumentStore(max_entries=1)
    store.register("a", pdoc_path, constraints_path)
    store.register("b", other_path)
    assert store.loaded_names() == ["b"]  # a evicted
    assert store.stats()["evictions"] == 1
    entry = store.get("a")  # transparently reloaded from the spec
    assert entry.pxdb.constraint_probability() == Fraction(5, 8)
    assert store.stats()["loads"] == 3


def test_store_in_memory_entry_cannot_reload(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore(max_entries=1)
    store.add("mem", PXDB(make_catalog()))
    store.register("file", pdoc_path, constraints_path)  # evicts "mem"
    with pytest.raises(KeyError, match="evicted"):
        store.get("mem")


def test_store_unknown_name(catalog_files):
    store = DocumentStore()
    with pytest.raises(KeyError, match="no PXDB named"):
        store.get("ghost")


# -- the incremental engine's cache bound -------------------------------------

def test_engine_cache_bound_evicts():
    pdoc = make_catalog()
    db = PXDB(pdoc, [])
    engine = IncrementalEngine.for_formula(db.condition, max_entries=2)
    engine.probability(pdoc)
    assert len(engine.cache) <= 2
    assert engine.evictions > 0
    assert engine.stats()["cache_evictions"] == engine.evictions
    # Bounded cache stays correct (just slower): same probability again.
    assert engine.probability(pdoc) == 1


# -- metrics ------------------------------------------------------------------

def test_latency_histogram_quantiles():
    histogram = LatencyHistogram()
    for seconds in (0.0004, 0.0004, 0.0004, 0.0004, 0.0004, 0.0004, 0.3):
        histogram.observe(seconds)
    summary = histogram.summary()
    assert summary["count"] == 7
    # p50: rank 3.5 of 6 observations in the (0, 0.0005] bucket.
    assert summary["p50_ms"] == round(0.0005 * 3.5 / 6 * 1000, 3)
    # p99: 0.93 into the (0.25, 0.5] bucket that holds the 0.3 s outlier
    # (the old upper-bound rule read this as a flat 500 ms).
    assert summary["p99_ms"] == 482.5
    assert summary["mean_ms"] > 0


def test_metrics_timer_counts_errors():
    metrics = Metrics()
    with metrics.timed("op"):
        pass
    with pytest.raises(RuntimeError):
        with metrics.timed("op"):
            raise RuntimeError("boom")
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["op.requests"] == 2
    assert snapshot["counters"]["op.errors"] == 1
    assert snapshot["latency"]["op"]["count"] == 2


# -- the service (in-process) -------------------------------------------------

@pytest.fixture()
def catalog_service(catalog_files) -> PXDBService:
    store = DocumentStore()
    store.register("cat", *catalog_files)
    return PXDBService(store, metrics=Metrics())


def test_service_sat_matches_direct(catalog_service):
    payload = catalog_service.sat("cat")
    assert payload["constraint_probability"] == "5/8"
    assert payload["well_defined"] is True


def test_service_query_matches_direct_and_caches(catalog_service, catalog_files):
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    direct = {
        tuple(str(label) for label in labels): str(value)
        for labels, value in db.query_labels(QUERY).items()
    }
    payload = catalog_service.query("cat", QUERY)
    served = {tuple(row["answer"]): row["probability"] for row in payload["answers"]}
    assert served == direct
    # Second identical request: answered from the entry's result cache.
    again = catalog_service.query("cat", QUERY)
    assert again == payload
    assert catalog_service.metrics.counter("query.cache_hits") == 1


def test_service_sample_deterministic_and_satisfying(catalog_service, catalog_files):
    payload = catalog_service.sample("cat", count=3, seed=11)
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    rng = random.Random(11)
    direct = [document_to_xml(db.sample(rng), style="tags") for _ in range(3)]
    assert payload["documents"] == direct
    for document in payload["documents"]:
        assert catalog_service.check("cat", document)["satisfies"] is True


def test_service_check_reports_violations(catalog_service):
    empty_shelf = document_to_xml(Document(doc("catalog", doc("shelf"))))
    verdict = catalog_service.check("cat", empty_shelf)
    assert verdict["satisfies"] is False
    assert any("violated" in line for line in verdict["violations"])


def test_service_sample_rejects_bad_count(catalog_service):
    with pytest.raises(ValueError, match="count must be positive"):
        catalog_service.sample("cat", count=0)


def test_service_stats_and_metrics_payloads(catalog_service):
    catalog_service.sat("cat")
    stats = catalog_service.stats()
    assert stats["registered"] == ["cat"]
    assert stats["databases"]["cat"]["constraint_probability"] == "5/8"
    metrics = catalog_service.metrics_payload()
    assert metrics["counters"]["sat.requests"] == 1
    assert metrics["engines"]["cat"]["runs"] >= 1
    assert "circuits" in metrics and "store" in metrics


# -- HTTP round-trips ---------------------------------------------------------

@pytest.fixture()
def http_service(catalog_files):
    """The default ``repro serve`` wiring: one process, no worker pool."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    handle = start_async_server(service)
    client = ServiceClient(f"http://{handle.address[0]}:{handle.address[1]}")
    yield client, service
    handle.stop()
    service.close()


def test_http_roundtrip_matches_direct(http_service, catalog_files):
    client, _ = http_service
    assert client.health() is True
    assert client.sat("cat") == Fraction(5, 8)
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    assert client.query("cat", QUERY) == {
        tuple(str(label) for label in labels): value
        for labels, value in db.query_labels(QUERY).items()
    }
    samples = client.sample("cat", count=2, seed=3)
    rng = random.Random(3)
    fresh = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    assert samples == [
        document_to_xml(fresh.sample(rng), style="tags") for _ in range(2)
    ]
    assert client.metrics()["counters"]["sat.requests"] == 1


def test_http_error_statuses(http_service):
    client, _ = http_service
    with pytest.raises(ServiceError) as unknown_db:
        client.sat("ghost")
    assert unknown_db.value.status == 404
    with pytest.raises(ServiceError) as bad_query:
        client.query("cat", "not a ((( query")
    assert bad_query.value.status == 400
    with pytest.raises(ServiceError) as missing_param:
        client._request("/sat", {})
    assert missing_param.value.status == 400
    with pytest.raises(ServiceError) as no_endpoint:
        client._request("/nope", {})
    assert no_endpoint.value.status == 404


def test_http_register_at_runtime(http_service, tmp_path):
    client, _ = http_service
    other = tmp_path / "other.pxml"
    other.write_text(pdocument_to_xml(make_catalog()))
    info = client.register("cat2", other)
    assert info["name"] == "cat2"
    assert client.sat("cat2") == 1  # no constraints
    with pytest.raises(ServiceError) as bad:
        client.register("cat3", str(tmp_path / "missing.pxml"))
    assert bad.value.status == 400


def test_http_concurrent_mixed_identity(http_service, catalog_files):
    """4 concurrent clients issuing mixed sat/query/sample return exactly
    what sequential direct PXDB calls produce."""
    client, service = http_service
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    expected_sat = db.constraint_probability()
    expected_query = {
        tuple(str(label) for label in labels): value
        for labels, value in db.query_labels(QUERY).items()
    }

    def expected_samples(seed: int) -> list[str]:
        fresh = PXDB(
            read_pdocument(catalog_files[0]), read_constraints(catalog_files[1])
        )
        rng = random.Random(seed)
        return [document_to_xml(fresh.sample(rng), style="tags") for _ in range(2)]

    failures: list[str] = []

    def run_client(index: int) -> None:
        try:
            assert client.sat("cat") == expected_sat
            assert client.query("cat", QUERY) == expected_query
            assert client.sample("cat", count=2, seed=index) == expected_samples(index)
        except Exception as error:  # noqa: BLE001 — collected for the main thread
            failures.append(f"client {index}: {error!r}")

    threads = [threading.Thread(target=run_client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
    assert service.metrics.counter("sat.requests") == 4


# -- the process pool ---------------------------------------------------------

def test_pool_execution_timeout_and_fallback(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=1, timeout=60.0) as pool:
        # 1. Pooled execution returns the same payload as in-process.
        pooled = pool.run("sat", "cat")
        assert pooled == PXDBService(store).sat("cat")
        # 2. A too-slow worker result raises PoolTimeout.
        with pytest.raises(PoolTimeout, match="timed out"):
            pool.run("sleep", "cat", {"seconds": 5.0}, timeout=0.1)
        assert pool.stats()["timeouts"] == 1
        # 3. A database the workers do not know raises KeyError upward.
        with pytest.raises(KeyError):
            pool.run("sat", "ghost")

    # 4. Service-level graceful degradation: a pool that cannot take the
    # request (here: shut down) falls back to the warm in-process path
    # and still returns the exact answer.
    degraded = PXDBService(
        store, metrics=Metrics(), pool=EvaluationPool(store.specs(), workers=1)
    )
    degraded.pool.shutdown()
    assert degraded.sat("cat")["constraint_probability"] == "5/8"
    assert degraded.metrics.counter("pool.fallbacks") == 1


def test_pool_timeout_is_a_refusal_not_a_second_run(tmp_path):
    """A pooled /query that outlives the pool timeout is answered 503;
    the server process neither falls back nor binds the text itself
    while the worker is still computing it."""
    import http.client

    from repro.workloads.university import scaled_university

    pdoc_path = tmp_path / "uni.pxml"
    pdoc_path.write_text(pdocument_to_xml(scaled_university(4, 2, 2)))
    store = DocumentStore()
    store.register("uni", pdoc_path)
    service = build_service(store, pool=1, pool_timeout=0.05)
    handle = start_async_server(service)
    text = "*//'ph.d. st.'/name/$*"  # every student: ~0.3 s of DP passes
    connection = http.client.HTTPConnection(*handle.address, timeout=60)
    try:
        connection.request("POST", "/query", body=json.dumps({"db": "uni", "query": text}))
        response = connection.getresponse()
        body = json.loads(response.read())
        assert (response.status, response.reason) == (503, "Service Unavailable")
        assert body == {"ok": False, "error": "pool result timed out after 0.05s"}
        assert service.pool.stats()["timeouts"] == 1
        assert service.metrics.counter("pool.fallbacks") == 0
        assert store.get("uni").cached_events(text) is None
    finally:
        connection.close()
        handle.stop()
        service.drain(30.0)
        service.close()


def test_pool_queue_bound_rejects(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=1, queue_limit=1, timeout=30.0) as pool:
        blocker = threading.Thread(
            target=lambda: pool.run("sleep", "cat", {"seconds": 0.5})
        )
        blocker.start()
        try:
            with pytest.raises((PoolUnavailable, PoolTimeout), match="full|timed out"):
                # The single slot is taken by the sleeper; this either hits
                # the bound immediately or times out behind it.
                pool.run("sat", "cat", timeout=0.05)
        finally:
            blocker.join()


# -- parameter-only reloads and the circuit path ------------------------------

def _edit_first_parameter(pdoc_path: Path, value: Fraction) -> None:
    """Rewrite the p-document file with its first probability parameter
    changed to ``value`` (structure untouched)."""
    from repro.pdoc.parameters import apply_parameters, parameter_values
    from repro.pdoc.serialize import pdocument_from_xml

    pdoc = pdocument_from_xml(pdoc_path.read_text())
    values = parameter_values(pdoc)
    values[0] = value
    apply_parameters(pdoc, values)
    pdoc_path.write_text(pdocument_to_xml(pdoc))
    _bump_mtime(pdoc_path)


def test_store_parameter_only_reload_keeps_entry(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    first = store.register("cat", pdoc_path, constraints_path)
    engine = first.engine
    assert first.pxdb.constraint_probability() == Fraction(5, 8)
    _edit_first_parameter(pdoc_path, Fraction(9, 10))
    second = store.get("cat")
    # Same warm entry, same engine — only the parameters moved.
    assert second is first
    assert second.engine is engine
    assert second.param_reloads == 1
    assert store.stats()["param_reloads"] == 1
    assert store.stats()["reloads"] == 0
    # The denominator was refreshed from the re-bound sat circuit:
    # Pr(C) = Pr(at least one book) = 1 - (1 - 9/10)(1 - 1/4).
    assert second.pxdb.constraint_probability() == Fraction(37, 40)
    assert second.pxdb.circuit_stats()["rebinds"] >= 1


def test_store_structural_edit_still_full_reloads(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    first = store.register("cat", pdoc_path, constraints_path)
    pd = make_catalog()
    pd.root.children[0].ordinary("label")  # structural: one more node
    pdoc_path.write_text(pdocument_to_xml(pd))
    _bump_mtime(pdoc_path)
    second = store.get("cat")
    assert second is not first
    assert store.stats()["reloads"] == 1
    assert store.stats()["param_reloads"] == 0


def test_store_parameter_reload_to_zero_denominator_drops_entry(catalog_files):
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    store.register("cat", pdoc_path, constraints_path)
    # Both books at probability 0 can never satisfy "count >= 1".
    from repro.pdoc.parameters import apply_parameters, parameter_values
    from repro.pdoc.serialize import pdocument_from_xml

    pdoc = pdocument_from_xml(pdoc_path.read_text())
    apply_parameters(pdoc, [Fraction(0)] * len(parameter_values(pdoc)))
    pdoc_path.write_text(pdocument_to_xml(pdoc))
    _bump_mtime(pdoc_path)
    with pytest.raises(ValueError, match="not consistent"):
        store.get("cat")
    assert "cat" not in store.loaded_names()  # dropped, spec retained
    with pytest.raises(ValueError, match="not well-defined"):
        store.get("cat")  # fresh load rejects it too


def test_service_query_after_parameter_reload_uses_circuit(catalog_service,
                                                           catalog_files):
    pdoc_path, _ = catalog_files
    first = catalog_service.query("cat", QUERY)
    entry = catalog_service.store.get("cat")
    assert entry.circuit_hits == 0
    _edit_first_parameter(pdoc_path, Fraction(1, 10))
    second = catalog_service.query("cat", QUERY)
    entry = catalog_service.store.get("cat")
    assert entry.circuit_hits == 1  # answered by re-bind + forward sweep
    assert second != first
    # Exact agreement with a cold evaluation of the edited file.
    db = PXDB(read_pdocument(pdoc_path), read_constraints(catalog_files[1]))
    expected = {
        tuple(str(label) for label in labels): str(value)
        for labels, value in db.query_labels(QUERY).items()
    }
    got = {
        tuple(row["answer"]): row["probability"] for row in second["answers"]
    }
    assert got == expected
    # /metrics surfaces the circuit counters.
    circuits = catalog_service.metrics_payload()["circuits"]["cat"]
    assert circuits["hits"] == 1
    assert circuits["param_reloads"] == 1
    assert circuits["rebinds"] >= 2  # sat refresh + query answer


def test_service_sat_after_parameter_reload(catalog_service, catalog_files):
    pdoc_path, _ = catalog_files
    assert catalog_service.sat("cat")["constraint_probability"] == "5/8"
    _edit_first_parameter(pdoc_path, Fraction(9, 10))
    assert catalog_service.sat("cat")["constraint_probability"] == "37/40"


def test_query_held_across_a_parameter_reload_is_not_cached(
    catalog_service, catalog_files, monkeypatch
):
    """A /query whose evaluation straddles a parameter-only reload
    answers its own (pre-edit) asker but never enters the result cache:
    every later ask gets the edited file's value."""
    from repro.pdoc.parameters import apply_parameters, parameter_values
    from repro.pdoc.serialize import pdocument_from_xml
    from repro.service import server

    pdoc_path, constraints_path = catalog_files
    real_event_values = server._event_values
    evaluated, release = threading.Event(), threading.Event()

    def held_event_values(*args, **kwargs):
        values = real_event_values(*args, **kwargs)
        evaluated.set()
        assert release.wait(30)
        return values

    monkeypatch.setattr(server, "_event_values", held_event_values)
    before: list[dict] = []
    asker = threading.Thread(
        target=lambda: before.append(catalog_service.query("cat", QUERY))
    )
    asker.start()
    assert evaluated.wait(30)
    monkeypatch.setattr(server, "_event_values", real_event_values)
    # Halve every parameter: a parameter-only edit, picked up (and the
    # result cache dropped) by the next access.
    pdoc = pdocument_from_xml(pdoc_path.read_text())
    apply_parameters(pdoc, [value / 2 for value in parameter_values(pdoc)])
    pdoc_path.write_text(pdocument_to_xml(pdoc))
    _bump_mtime(pdoc_path)
    catalog_service.sat("cat")
    release.set()
    asker.join(30)
    assert not asker.is_alive()
    fresh = PXDB(read_pdocument(pdoc_path), read_constraints(constraints_path))
    expected = {
        tuple(str(label) for label in labels): str(value)
        for labels, value in fresh.query_labels(QUERY).items()
    }
    stale = {tuple(row["answer"]): row["probability"] for row in before[0]["answers"]}
    assert stale != expected  # the held ask really read the old parameters
    for _ in range(2):
        payload = catalog_service.query("cat", QUERY)
        assert {
            tuple(row["answer"]): row["probability"] for row in payload["answers"]
        } == expected


def test_http_metrics_prometheus(http_service):
    import urllib.request

    client, service = http_service
    client.sat("cat")
    base = client.base_url
    with urllib.request.urlopen(f"{base}/metrics?format=prometheus") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    assert "pxdb_sat_requests_total 1" in text
    assert "pxdb_store_loads_total" in text or "pxdb_store_loads" in text
    assert 'le="+Inf"' in text
    # Accept-header negotiation reaches the same exposition.
    request = urllib.request.Request(
        f"{base}/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
    # Default stays JSON.
    assert "counters" in client.metrics()


# -- regressions: same-tick store invalidation --------------------------------

def test_store_same_tick_constraint_rewrite_detected(catalog_files):
    """An edit that leaves ``(st_mtime_ns, st_size)`` unchanged must still
    invalidate: the content fingerprint catches same-tick rewrites."""
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    first = store.register("cat", pdoc_path, constraints_path)
    assert first.pxdb.constraint_probability() == Fraction(5, 8)
    stat = os.stat(constraints_path)
    # Same byte length (">= 1" -> ">= 0"), mtime pinned back: stat-identical.
    constraints_path.write_text(CONSTRAINTS.replace(">= 1", ">= 0"))
    os.utime(constraints_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = os.stat(constraints_path)
    assert (after.st_mtime_ns, after.st_size) == (stat.st_mtime_ns, stat.st_size)
    second = store.get("cat")
    assert second is not first
    assert second.pxdb.constraint_probability() == 1  # trivial new constraint
    assert store.stats()["reloads"] == 1


def test_store_same_tick_double_rewrite_one_tick(catalog_files):
    """The issue's exact scenario: a file rewritten twice within one mtime
    tick.  The store observes the first rewrite, then the second lands on
    the very same ``(st_mtime_ns, st_size)`` stamp — only the fingerprint
    distinguishes them."""
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    store.register("cat", pdoc_path, constraints_path)
    stat = os.stat(constraints_path)
    # First rewrite inside the tick, observed by the store.
    constraints_path.write_text(CONSTRAINTS.replace(">= 1", ">= 0"))
    os.utime(constraints_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert store.get("cat").pxdb.constraint_probability() == 1
    # Second rewrite, still on the same stamp.
    constraints_path.write_text(CONSTRAINTS.replace(">= 1", ">= 2"))
    os.utime(constraints_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    reloaded = store.get("cat")
    # count(book) >= 2 needs both books: Pr = 1/2 * 1/4.
    assert reloaded.pxdb.constraint_probability() == Fraction(1, 8)
    assert store.stats()["reloads"] == 2


def test_store_same_tick_parameter_edit_rebinds(catalog_files):
    """A same-tick *parameter* edit takes the warm re-bind path, not a
    full reload: fingerprints detect the change, structure fingerprints
    keep the entry."""
    pdoc_path, constraints_path = catalog_files
    store = DocumentStore()
    first = store.register("cat", pdoc_path, constraints_path)
    engine = first.engine
    stat = os.stat(pdoc_path)
    text = pdoc_path.read_text()
    assert "1/2" in text
    pdoc_path.write_text(text.replace("1/2", "1/3", 1))  # same byte length
    os.utime(pdoc_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    after = os.stat(pdoc_path)
    assert (after.st_mtime_ns, after.st_size) == (stat.st_mtime_ns, stat.st_size)
    second = store.get("cat")
    assert second is first
    assert second.engine is engine
    assert second.param_reloads == 1
    # Pr(C) = 1 - (1 - 1/3)(1 - 1/4) = 1/2.
    assert second.pxdb.constraint_probability() == Fraction(1, 2)


# -- regressions: pool interrupt handling -------------------------------------

def test_pool_interrupt_propagates_and_releases_slot(catalog_files):
    """KeyboardInterrupt raised while submitting must propagate (not be
    swallowed into PoolUnavailable/fallback), must not mark the pool
    broken, and must release the queue slot."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=1, queue_limit=1,
                        timeout=60.0) as pool:
        executor = pool._executor
        real_submit = executor.submit

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        executor.submit = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.run("sat", "cat")
        finally:
            executor.submit = real_submit
        # With queue_limit=1 a leaked slot would reject this immediately,
        # and a pool marked broken would refuse it outright.
        assert pool.run("sat", "cat")["constraint_probability"] == "5/8"


def test_pool_submit_error_still_degrades(catalog_files):
    """Ordinary executor failures keep the graceful-degradation contract:
    PoolUnavailable, so the service falls back in-process."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=1, timeout=60.0) as pool:
        def failing(*args, **kwargs):
            raise RuntimeError("executor shut down")

        pool._executor.submit = failing
        with pytest.raises(PoolUnavailable, match="submit failed"):
            pool.run("sat", "cat")


# -- the batched parameter sweep through the service stack --------------------

def test_service_sweep_matches_hand_computation(catalog_service):
    pytest.importorskip("numpy")
    payload = catalog_service.sweep(
        "cat",
        [["1/2", "1/4"], ["1", "0"]],
        pattern="catalog/shelf/book/title/Dune",
    )
    assert payload["backend"] == "batch"
    assert payload["bindings"] == 2
    # Pr(C) = 1 - (1-p1)(1-p2) per binding.
    assert payload["constraint_probability"] == pytest.approx([0.625, 1.0])
    # Pr(Dune | C) = p1 / Pr(C).
    assert payload["event_probability"] == pytest.approx([0.8, 1.0])
    assert catalog_service.metrics.counter("sweep.requests") == 1
    # Equal pattern text reuses the cached compiled event.
    entry = catalog_service.store.get("cat")
    hits = entry.circuit_hits
    catalog_service.sweep("cat", [["1/2", "1/4"]],
                          pattern="catalog/shelf/book/title/Dune")
    assert entry.circuit_hits == hits + 1


def test_service_sweep_rejects_bad_bindings(catalog_service):
    pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="non-empty list"):
        catalog_service.sweep("cat", [])
    with pytest.raises(ValueError, match="not a list"):
        catalog_service.sweep("cat", ["1/2"])
    with pytest.raises(ValueError, match="not numeric"):
        catalog_service.sweep("cat", [["bogus", "1/2"]])
    with pytest.raises(ValueError, match="outside"):
        catalog_service.sweep("cat", [["3/2", "1/2"]])
    with pytest.raises(ValueError, match="parameter values per binding"):
        catalog_service.sweep("cat", [["1/2"]])


def test_http_sweep_roundtrip(http_service):
    pytest.importorskip("numpy")
    client, _service = http_service
    body = client.sweep(
        "cat", [[Fraction(1, 2), Fraction(1, 4)]], pattern="catalog/shelf/book"
    )
    assert body["constraint_probability"] == pytest.approx([0.625])
    # "at least one book" is exactly the constraint: conditional is 1.
    assert body["event_probability"] == pytest.approx([1.0])
    without_pattern = client.sweep("cat", [["1", "0"], ["0", "1"]])
    assert without_pattern["constraint_probability"] == pytest.approx([1.0, 1.0])
    assert "event_probability" not in without_pattern


# -- the approximation tier (backend=approx, /approx) -------------------------

def test_service_sat_approx_backend(catalog_service):
    payload = catalog_service.sat("cat", backend="approx", approx={"seed": 3})
    assert payload["backend"] == "approx"
    lo, hi = payload["interval"]
    assert lo <= 0.625 <= hi  # exact Pr(P |= C) = 5/8
    assert payload["well_defined"] is True  # proved by the load-time DP
    assert payload["seed"] == 3
    again = catalog_service.sat("cat", backend="approx", approx={"seed": 3})
    assert again == payload


def test_service_query_approx_backend_not_cached(catalog_service):
    options = {"epsilon": 0.05, "seed": 11}
    payload = catalog_service.query("cat", QUERY, backend="approx", approx=options)
    exact = {("Dune",): 0.8, ("Solaris",): 0.4}
    assert payload["epsilon"] == 0.05
    for row in payload["answers"]:
        lo, hi = row["interval"]
        assert lo <= exact[tuple(row["answer"])] <= hi
    # Seeded repeat is identical — by re-estimation, never via the cache.
    again = catalog_service.query("cat", QUERY, backend="approx", approx=options)
    assert again == payload
    assert catalog_service.metrics.counter("query.cache_hits") == 0


def test_service_approx_route_deterministic(catalog_service):
    options = {"epsilon": 0.04, "delta": 0.05, "seed": 42}
    payload = catalog_service.approx("cat", "count(*//$book) >= 2", options)
    assert payload["backend"] == "approx"
    assert payload["seed"] == 42  # echoed back, the repeatability contract
    lo, hi = payload["interval"]
    assert lo <= 0.2 <= hi  # exact Pr = 1/5
    assert hi - lo <= 2 * 0.04
    assert payload["stopped"] == "target"
    assert payload == catalog_service.approx("cat", "count(*//$book) >= 2", options)


def test_service_approx_metrics(catalog_service):
    catalog_service.approx("cat", "count(*//$book) >= 1", {"seed": 1})
    catalog_service.sat("cat", backend="approx", approx={"seed": 2})
    metrics = catalog_service.metrics_payload()
    assert metrics["counters"]["approx.requests"] == 1
    assert metrics["counters"]["approx.samples"] > 0
    widths = metrics["values"]["approx.bound_width"]
    assert widths["count"] == 2
    assert 0.0 < widths["mean"] <= 0.2
    assert metrics["approx"]["cat"]["auto"]["samples_drawn"] > 0
    rendered = catalog_service.metrics_prometheus()
    assert "pxdb_approx_bound_width_bucket" in rendered
    assert "pxdb_approx_samples_total" in rendered


def test_service_approx_rejects_bad_input(catalog_service):
    with pytest.raises(ValueError, match="aggregate atom"):
        catalog_service.approx("cat", "nonsense")
    with pytest.raises(ValueError, match="unknown backend"):
        catalog_service.sample("cat", backend="approx")
    with pytest.raises(ValueError, match="unknown stopping rule"):
        catalog_service.approx("cat", "count($*) >= 1", {"rule": "magic"})


def test_http_approx_roundtrip(http_service):
    client, service = http_service
    body = client.approx(
        "cat", "count(*//$book) >= 2", epsilon=0.05, seed=7, rule="bernstein"
    )
    assert body["seed"] == 7
    assert body["rule"] == "bernstein"
    lo, hi = body["interval"]
    assert lo <= 0.2 <= hi
    # Same seed over HTTP reproduces the estimate exactly.
    again = client.approx(
        "cat", "count(*//$book) >= 2", epsilon=0.05, seed=7, rule="bernstein"
    )
    assert again["estimate"] == body["estimate"]
    assert again["n_samples"] == body["n_samples"]
    # backend=approx on the GET-style /sat and /query params.
    sat_body = client._request("/sat", {"db": "cat", "backend": "approx",
                                        "seed": 5, "epsilon": 0.05})
    assert sat_body["interval"][0] <= 0.625 <= sat_body["interval"][1]
    query_body = client._request(
        "/query",
        {"db": "cat", "query": QUERY, "backend": "approx", "seed": 5},
    )
    assert all("interval" in row for row in query_body["answers"])


def test_http_approx_error_status(http_service):
    client, _ = http_service
    with pytest.raises(ServiceError) as info:
        client.approx("cat", "garbage")
    assert info.value.status == 400


# -- /topk: top-k answers of a query ------------------------------------------

def test_service_topk_is_query_truncation(catalog_service):
    full = catalog_service.query("cat", QUERY)
    top = catalog_service.topk("cat", QUERY, k=1)
    assert top["answers"] == full["answers"][:1]
    assert top["candidates"] == len(full["answers"])
    assert top["k"] == 1
    with pytest.raises(ValueError, match="k must be positive"):
        catalog_service.topk("cat", QUERY, k=0)
    # /topk truncates its text's cached /query payload: both top-k asks
    # after the /query are result-cache hits.
    again = catalog_service.topk("cat", QUERY, k=1)
    assert again == top
    assert catalog_service.metrics.counter("query.cache_hits") == 2


# -- concurrent dispatch -------------------------------------------------------

_DISPATCH_QUERIES = (
    QUERY,
    "catalog/shelf/$book",
    "catalog/$shelf",
    "catalog/shelf/book/$title",
)

_mixed_requests = st.lists(
    st.one_of(
        st.just(("/sat", {"db": "cat"})),
        st.sampled_from(_DISPATCH_QUERIES).map(
            lambda q: ("/query", {"db": "cat", "query": q})
        ),
        st.tuples(
            st.sampled_from(_DISPATCH_QUERIES), st.integers(min_value=1, max_value=3)
        ).map(lambda pair: ("/topk", {"db": "cat", "query": pair[0], "k": pair[1]})),
    ),
    min_size=1,
    max_size=8,
)


def dispatch_concurrently(service, requests) -> list:
    """``dispatch_route`` for every (route, params) pair, each on its own
    thread, all released together; the (status, body) results in order."""
    barrier = threading.Barrier(len(requests))
    results: list = [None] * len(requests)

    def run(index: int) -> None:
        route, params = requests[index]
        barrier.wait()
        results[index] = dispatch_route(service, route, dict(params))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    return results


@settings(
    DEFAULT_SETTINGS,
    max_examples=25,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(requests=_mixed_requests)
def test_scheduler_mixed_interleaving_identity(catalog_files, requests):
    """Any mix of sat/query/top-k requests dispatched concurrently on
    threads (cold texts racing through the single-flight result cache)
    returns bodies byte-identical to sequential direct evaluation."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    served = dispatch_concurrently(PXDBService(store), requests)
    # The reference: a fresh entry (cold caches), every request evaluated
    # alone, in order.
    entry = DocumentStore().register("cat", *catalog_files)
    for (route, params), result in zip(requests, served):
        if route == "/sat":
            expected = sat_payload(entry)
        elif route == "/query":
            expected = query_payload(entry, params["query"])
        else:
            expected = topk_payload(entry, params["query"], params["k"])
        assert json.dumps(result) == json.dumps([200, {"ok": True, **expected}])


def test_concurrent_cold_query_is_evaluated_once(catalog_files, tracing):
    """Six concurrent asks of one cold text bind and evaluate it once:
    one leader runs the DP passes, the five others join its flight (or
    hit the cache it fills) and count as result-cache hits."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store)
    candidates = candidate_tuples(Query.parse(QUERY), store.get("cat").pxdb.pdoc)
    tracing.reset()
    served = dispatch_concurrently(service, [("/query", {"db": "cat", "query": QUERY})] * 6)
    assert len({json.dumps(result) for result in served}) == 1
    assert served[0][0] == 200
    spans = tracing.spans()
    assert sum(span["name"] == "query.bind" for span in spans) == 1
    assert sum(span["name"] == "dp.run" for span in spans) == len(candidates)
    assert service.metrics.counter("query.cache_hits") == 5


# -- the worker pool ---------------------------------------------------------

def test_pool_quiesce_waits_for_inflight_work(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    pool = EvaluationPool(store.specs(), workers=1, timeout=0.05)
    try:
        with pytest.raises(PoolTimeout):  # worker busy past the deadline
            pool.run("sleep", "cat", {"seconds": 0.5})
        start = time.perf_counter()
        assert pool.quiesce(20.0) is True
        # quiesce really waited the abandoned request out rather than
        # returning while the worker was still evaluating.
        assert time.perf_counter() - start > 0.1
        assert pool.quiesce(1.0) is True  # idempotent when already quiet
    finally:
        pool.shutdown()


# -- the async front end ------------------------------------------------------

@pytest.fixture()
def async_http_service(catalog_files):
    """The front end over an in-process service (no worker processes —
    the pool path has its own tests)."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    handle = start_async_server(service)
    client = ServiceClient(f"http://{handle.address[0]}:{handle.address[1]}")
    yield client, service
    handle.stop()
    service.close()


def test_async_http_roundtrip_matches_direct(async_http_service, catalog_files):
    client, service = async_http_service
    assert client.health() is True
    assert client.sat("cat") == Fraction(5, 8)
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    expected = {
        tuple(str(label) for label in labels): value
        for labels, value in db.query_labels(QUERY).items()
    }
    assert client.query("cat", QUERY) == expected
    top = client.topk("cat", QUERY, k=1)
    assert top == {("Dune",): Fraction(4, 5)}
    samples = client.sample("cat", count=2, seed=3)
    rng = random.Random(3)
    fresh = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    assert samples == [
        document_to_xml(fresh.sample(rng), style="tags") for _ in range(2)
    ]
    assert service.metrics.counter("sat.requests") == 1
    assert service.metrics.counter("query.requests") == 1


def test_async_http_error_statuses(async_http_service):
    client, _ = async_http_service
    with pytest.raises(ServiceError) as unknown_db:
        client.sat("ghost")  # KeyError from the store
    assert unknown_db.value.status == 404
    with pytest.raises(ServiceError) as bad_query:
        client.query("cat", "not a ((( query")
    assert bad_query.value.status == 400
    with pytest.raises(ServiceError) as missing_param:
        client._request("/query", {"db": "cat"})
    assert missing_param.value.status == 400
    with pytest.raises(ServiceError) as bad_k:
        client.topk("cat", QUERY, k=0)
    assert bad_k.value.status == 400
    with pytest.raises(ServiceError) as no_endpoint:
        client._request("/nope", {})
    assert no_endpoint.value.status == 404
    with pytest.raises(ServiceError) as bad_count:
        client.sample("cat", count=0)
    assert bad_count.value.status == 400


def test_async_http_concurrent_mixed_identity(async_http_service, catalog_files):
    """A concurrent mixed burst over the async front end returns exactly
    the sequential direct answers, evaluating the shared text once."""
    client, service = async_http_service
    db = PXDB(read_pdocument(catalog_files[0]), read_constraints(catalog_files[1]))
    expected_sat = db.constraint_probability()
    expected_query = {
        tuple(str(label) for label in labels): value
        for labels, value in db.query_labels(QUERY).items()
    }
    expected_top = dict(
        sorted(expected_query.items(), key=lambda item: -item[1])[:1]
    )
    failures: list[str] = []

    def run_client(index: int) -> None:
        try:
            assert client.sat("cat") == expected_sat
            assert client.query("cat", QUERY) == expected_query
            assert client.topk("cat", QUERY, k=1) == expected_top
        except Exception as error:  # noqa: BLE001 — collected for the main thread
            failures.append(f"client {index}: {error!r}")

    threads = [threading.Thread(target=run_client, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
    # The six /query and six /topk asks share one key: one evaluation,
    # eleven askers served from its flight or the cache it filled.
    assert service.metrics.counter("query.cache_hits") == 11


def test_async_http_repeat_hits_shared_result_cache(async_http_service):
    client, service = async_http_service
    first = client.query("cat", QUERY)
    # The repeat resolves from the entry's result cache.
    assert client.query("cat", QUERY) == first
    assert service.metrics.counter("query.cache_hits") == 1


def test_async_http_prometheus_routes_and_scheduler(async_http_service):
    client, _ = async_http_service
    client.sat("cat")
    client.topk("cat", QUERY, k=1)
    with urlopen(client.base_url + "/metrics?format=prometheus", timeout=10) as response:
        assert "text/plain" in response.headers["Content-Type"]
        text = response.read().decode("utf-8")
    assert 'op="sat",route="/sat"' in text
    assert 'op="topk",route="/topk"' in text
    assert "pxdb_scheduler" not in text


def test_async_http_requery_after_parameter_edit_uses_circuit(
    async_http_service, catalog_files
):
    """A text asked again after a parameter-only edit misses the dropped
    result cache and is answered by circuit re-bind + forward, with the
    value a fresh PXDB computes from the edited file."""
    client, service = async_http_service
    pdoc_path, constraints_path = catalog_files
    client.query("cat", QUERY)
    hits = service.store.get("cat").circuit_hits
    _edit_first_parameter(pdoc_path, Fraction(1, 10))
    served = client.query("cat", QUERY)
    assert service.store.get("cat").circuit_hits == hits + 1
    assert service.metrics.counter("query.cache_hits") == 0
    db = PXDB(read_pdocument(pdoc_path), read_constraints(constraints_path))
    assert served == {
        tuple(str(label) for label in labels): value
        for labels, value in db.query_labels(QUERY).items()
    }


def _read_response(reader) -> tuple[bytes, dict, bytes]:
    status = reader.readline()
    headers = {}
    while (line := reader.readline().strip()):
        key, _, value = line.partition(b":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers[b"content-length"]))


def test_async_http10_connection_rules(async_http_service):
    """An HTTP/1.0 connection is closed after the reply unless the
    client sends ``Connection: keep-alive``; then it stays open."""
    client, _ = async_http_service
    host, port = client.base_url.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
        data = b""
        while chunk := sock.recv(65536):  # b"" once the server closes
            data += chunk
    assert data.startswith(b"HTTP/1.1 200 ")
    assert b"\r\nConnection: close\r\n" in data
    assert json.loads(data.partition(b"\r\n\r\n")[2])["status"] == "ok"
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        reader = sock.makefile("rb")
        for _ in range(2):
            sock.sendall(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            status, headers, body = _read_response(reader)
            assert status.startswith(b"HTTP/1.1 200 ")
            assert headers[b"connection"] == b"keep-alive"
            assert json.loads(body)["status"] == "ok"
        reader.close()


IDENTITY_REQUESTS = [
    ("GET", "/sat", {"db": "cat"}),
    ("GET", "/sat", {"db": "uni"}),
    ("GET", "/sat", {"db": "cat", "backend": "interval"}),
    ("GET", "/query", {"db": "cat", "query": QUERY}),
    ("GET", "/query", {"db": "uni", "query": "*//'ph.d. st.'/$name"}),
    ("GET", "/query", {"db": "uni", "query": "*//'ph.d. st.'/$name", "backend": "auto"}),
    ("GET", "/topk", {"db": "uni", "query": "*//'ph.d. st.'/$name", "k": 2}),
    ("GET", "/topk", {"db": "cat", "query": QUERY, "k": 1}),
    ("GET", "/sample", {"db": "cat", "count": 2, "seed": 3}),
    ("GET", "/sample", {"db": "uni", "count": 2, "seed": 5, "backend": "auto"}),
    ("POST", "/check", {"db": "cat", "document": document_to_xml(
        Document(doc("catalog", doc("shelf"))), keep_uids=True)}),
    ("POST", "/sweep", {"db": "cat", "bindings": [["1/2", "1/4"], ["1", "0"]],
                        "pattern": "catalog/shelf/book/title/Dune"}),
    ("GET", "/approx", {"db": "cat", "event": "count(*//$book) >= 2",
                        "seed": 7, "epsilon": 0.05}),
    ("GET", "/sat", {"db": "ghost"}),
    ("GET", "/sat", {}),
    ("GET", "/query", {"db": "cat", "query": "not a ((( query"}),
    ("GET", "/topk", {"db": "cat", "query": QUERY, "k": 0}),
    ("GET", "/sample", {"db": "cat", "count": 0}),
    ("GET", "/nope", {}),
]


@pytest.fixture()
def identity_files(catalog_files, tmp_path):
    from repro.workloads.university import figure1_pdocument

    uni = tmp_path / "uni.pxml"
    uni.write_text(pdocument_to_xml(figure1_pdocument()))
    uni_constraints = tmp_path / "uni.cons"
    uni_constraints.write_text(
        "forall university/$department : "
        "count(*//$member[position/~'professor'][position/chair]) <= 1\n"
    )
    return {"cat": catalog_files, "uni": (uni, uni_constraints)}


@pytest.mark.parametrize("pool", [0, 2], ids=["default", "pool"])
def test_served_bodies_match_route_dispatch(identity_files, pool):
    """Every JSON route (and the 400/404 error bodies) served over HTTP —
    by the default one-process service and by a worker pool — is
    byte-identical to ``dispatch_route`` on an in-process service."""
    import http.client
    from urllib.parse import urlencode

    from repro.service.server import dispatch_route

    def fresh_store() -> DocumentStore:
        store = DocumentStore()
        for name, paths in identity_files.items():
            store.register(name, *paths)
        return store

    reference = PXDBService(fresh_store())
    expected = []
    for method, route, params in IDENTITY_REQUESTS:
        if method == "GET":
            params = {key: str(value) for key, value in params.items()}
        status, payload = dispatch_route(reference, route, params)
        expected.append((route, status, json.dumps(payload).encode("utf-8")))

    service = build_service(fresh_store(), pool=pool)
    handle = start_async_server(service)
    connection = http.client.HTTPConnection(*handle.address, timeout=60)
    served = []
    try:
        for method, route, params in IDENTITY_REQUESTS:
            if method == "GET":
                query = urlencode(params)
                connection.request("GET", route + ("?" + query if query else ""))
            else:
                connection.request("POST", route, body=json.dumps(params))
            response = connection.getresponse()
            served.append((route, response.status, response.read()))
        if pool:
            counters = service.metrics.snapshot()["counters"]
            # Only /sat?db=ghost (a name no worker holds) fell back.
            assert counters.get("pool.fallbacks", 0) == 1
    finally:
        connection.close()
        handle.stop()
        service.close()
    assert [status for _, status, _ in expected].count(200) == 13
    assert served == expected


def _serve_cli(catalog_files, *flags, name: str = "cat"):
    """Start ``repro serve --port 0`` on the catalog (or on another
    (p-document, constraints) pair, registered as ``name``); (process,
    port)."""
    pdoc_path, constraints_path = catalog_files
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", *flags,
            "--db", f"{name}={pdoc_path}:{constraints_path}",
            "--port", "0",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if "serving PXDBs on http://" in line:
            return process, int(line.rsplit(":", 1)[1])
    _stop_cli(process)
    raise AssertionError("server never announced its port")


def _stop_cli(process) -> None:
    """SIGTERM first: the server then shuts its worker pool down (killing
    it outright would leave the workers running)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    process.stderr.close()


def test_pooled_server_survives_a_worker_sigterm(catalog_files):
    """SIGTERM to a pool worker ends that worker only: the server keeps
    answering (in-process fallback) instead of shutting down."""
    process, port = _serve_cli(catalog_files, "--pool", "1")
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        assert client.sat("cat") == Fraction(5, 8)
        workers = client.metrics()["pool_workers"]["workers"]
        assert workers
        for pid in workers:
            os.kill(int(pid), signal.SIGTERM)
        time.sleep(0.5)
        assert client.sat("cat") == Fraction(5, 8)
        assert process.poll() is None
    finally:
        _stop_cli(process)


SERVE_MODES = {"in-process": (), "pooled": ("--pool", "2")}


@pytest.mark.parametrize("mode", list(SERVE_MODES))
def test_serve_cli_sigterm_clean_shutdown(mode, catalog_files):
    """`repro serve` (one process, and with a worker pool) drains
    and exits 0 on SIGTERM — the container-deploy stop signal, not just
    Ctrl-C.  Without --pool it starts no worker process."""
    process, port = _serve_cli(catalog_files, *SERVE_MODES[mode])
    try:
        with urlopen(f"http://127.0.0.1:{port}/sat?db=cat", timeout=30) as response:
            body = json.loads(response.read())
        assert body["constraint_probability"] == "5/8"
        metrics = ServiceClient(f"http://127.0.0.1:{port}").metrics()
        assert ("pool" in metrics) == (mode == "pooled")
        children = Path(f"/proc/{process.pid}/task/{process.pid}/children")
        if mode == "in-process" and children.exists():
            assert children.read_text().split() == []
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        _stop_cli(process)


def test_serve_cli_sigterm_answers_inflight_requests(tmp_path):
    """SIGTERM while an in-process /sample (80 draws) and a cold /query
    are being evaluated: the server answers both with 200 before it
    exits 0."""
    from urllib.parse import urlencode

    from repro.workloads.university import scaled_university

    pdoc_path = tmp_path / "uni.pxml"
    pdoc_path.write_text(pdocument_to_xml(scaled_university(4, 2, 2)))
    constraints_path = tmp_path / "uni.cons"
    constraints_path.write_text(
        "forall university/$department : "
        "count(*//$member[position/~'professor'][position/chair]) <= 1\n"
    )
    process, port = _serve_cli((pdoc_path, constraints_path), name="uni")
    results: dict[str, object] = {}

    def ask(route: str, params: dict) -> None:
        url = f"http://127.0.0.1:{port}{route}?{urlencode(params)}"
        try:
            with urlopen(url, timeout=60) as response:
                results[route] = (response.status, json.loads(response.read()))
        except Exception as error:  # noqa: BLE001 — asserted below
            results[route] = error

    requests = [
        ("/sample", {"db": "uni", "count": 80, "seed": 1}),  # ~1 s alone
        ("/query", {"db": "uni", "query": "*//'ph.d. st.'/name/$*"}),  # ~0.3 s
    ]
    threads = [threading.Thread(target=ask, args=request) for request in requests]
    try:
        threads[0].start()
        time.sleep(0.15)
        threads[1].start()
        time.sleep(0.1)
        process.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert process.wait(timeout=30) == 0
    finally:
        _stop_cli(process)
    status, body = results["/sample"]
    assert status == 200 and len(body["documents"]) == 80
    status, body = results["/query"]
    assert status == 200 and body["answers"]


def _replace_first_parameter(pdoc_path: Path, value: Fraction) -> None:
    """The parameter edit of :func:`_edit_first_parameter`, saved the way
    an editor saves: a new file renamed over the old one."""
    temporary = pdoc_path.with_name(pdoc_path.name + ".tmp")
    temporary.write_text(pdoc_path.read_text())
    _edit_first_parameter(temporary, value)
    os.replace(temporary, pdoc_path)


@pytest.mark.parametrize("flags", [("--pool", "2")], ids=["pool"])
def test_pooled_server_answers_edited_file(catalog_files, flags):
    """Pool workers check file mtimes like the parent store: after a
    probability edit, a pooled server's /sat and /query return the
    in-process values, not the workers' stale warm ones."""
    pdoc_path, constraints_path = catalog_files
    process, port = _serve_cli(catalog_files, *flags)
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        assert client.sat("cat") == Fraction(5, 8)
        assert client.query("cat", QUERY)
        _replace_first_parameter(pdoc_path, Fraction(9, 10))
        db = PXDB(read_pdocument(pdoc_path), read_constraints(constraints_path))
        assert client.sat("cat") == db.constraint_probability() == Fraction(37, 40)
        assert client.query("cat", QUERY) == {
            tuple(str(label) for label in labels): value
            for labels, value in db.query_labels(QUERY).items()
        }
        counters = client.metrics()["counters"]
        assert counters.get("pool.fallbacks", 0) == 0  # the workers answered
    finally:
        _stop_cli(process)


# -- client retry/backoff -----------------------------------------------------

def _flaky_http_server(failures: int, body: bytes = b'{"ok": true, "status": "ok"}'):
    """A raw socket server: drops the first ``failures`` connections
    without a response, then answers every request with ``body``.
    Returns (base_url, accept_counter, close)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    host, port = listener.getsockname()
    accepts: list[int] = []
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            accepts.append(1)
            if len(accepts) <= failures:
                connection.close()
                continue
            try:
                connection.recv(65536)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
            finally:
                connection.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    def close() -> None:
        stop.set()
        listener.close()

    return f"http://{host}:{port}", accepts, close


def test_client_retries_idempotent_calls():
    base_url, accepts, close = _flaky_http_server(failures=2)
    try:
        client = ServiceClient(base_url, retries=3, backoff=0.01)
        assert client.health() is True  # two resets absorbed, third attempt wins
        assert len(accepts) == 3
    finally:
        close()


def test_client_retries_off_by_default():
    base_url, accepts, close = _flaky_http_server(failures=1)
    try:
        client = ServiceClient(base_url)
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()
        assert len(accepts) == 1  # no second attempt
    finally:
        close()


def test_client_never_retries_non_idempotent_calls():
    base_url, accepts, close = _flaky_http_server(failures=100)
    try:
        client = ServiceClient(base_url, retries=3, backoff=0.01)
        with pytest.raises(ServiceError):
            client.sample("cat", count=1, seed=0)
        assert len(accepts) == 1  # sample draws server RNG: one attempt only
        with pytest.raises(ServiceError):
            client.approx("cat", "count(*/$x) >= 1")
        assert len(accepts) == 2
    finally:
        close()


def test_client_never_retries_http_errors(http_service):
    client, service = http_service
    before = service.metrics.counter("sat.requests")
    retrying = ServiceClient(client.base_url, retries=3, backoff=0.01)
    with pytest.raises(ServiceError) as info:
        retrying.sat("ghost")
    assert info.value.status == 404
    # The server answered: exactly one attempt despite retries=3.
    assert service.metrics.counter("sat.requests") == before + 1
    with pytest.raises(ValueError):
        ServiceClient(client.base_url, retries=-1)


# -- metrics: the route label -------------------------------------------------

def test_metrics_route_label_separates_endpoints():
    metrics = Metrics()
    with metrics.timed("sat", route="/sat"):
        pass
    with metrics.timed("sweep", route="/sweep"):
        pass
    metrics.observe_value("approx.bound_width", 0.05)
    text = metrics.render_prometheus()
    assert 'op="sat",route="/sat"' in text
    assert 'op="sweep",route="/sweep"' in text
    assert "pxdb_approx_bound_width_bucket" in text
    # The JSON snapshot keeps its pre-label shape (route is Prometheus-only).
    snapshot = metrics.snapshot()
    assert set(snapshot["latency"]) == {"sat", "sweep"}
    assert "route" not in json.dumps(snapshot["latency"])
    assert snapshot["values"]["approx.bound_width"]["count"] == 1
