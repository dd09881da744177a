"""Tests for the observability subsystem (repro.obs): span tracing and
its propagation through the engine, the process pool and the HTTP
server; structured logging; benchmark telemetry."""

from __future__ import annotations

import io
import json
import os
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core.constraints import constraints_formula
from repro.core.evaluator import probability
from repro.core.sampler import sample
from repro.obs import benchrec, configure_logging, get_logger, package_version
from repro.obs.spans import NOOP_SPAN, TRACER, build_tree, tree_coverage
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.service import (
    DocumentStore,
    EvaluationPool,
    PXDBService,
    ServiceClient,
    build_service,
    start_async_server,
)
from repro.workloads.university import figure1_constraints, figure1_pdocument

CONSTRAINTS = "forall catalog/$shelf : count(*/$book) >= 1\n"
QUERY = "catalog/shelf/book/title/$*"


def make_catalog():
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


# -- the span model -----------------------------------------------------------

def test_span_nesting_attributes_and_status(tracing):
    with TRACER.span("outer", kind="test") as outer:
        with TRACER.span("child") as child:
            child.set(n=3)
        with pytest.raises(RuntimeError):
            with TRACER.span("failing"):
                raise RuntimeError("boom")
    spans = TRACER.spans()
    assert [s["name"] for s in spans] == ["child", "failing", "outer"]
    assert len({s["trace_id"] for s in spans}) == 1
    by_name = {s["name"]: s for s in spans}
    assert by_name["outer"]["parent_id"] is None
    assert by_name["child"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["child"]["attributes"] == {"n": 3}
    assert by_name["outer"]["attributes"] == {"kind": "test"}
    assert by_name["failing"]["status"] == "error:RuntimeError"
    tree = build_tree(spans)
    assert len(tree) == 1 and [c["name"] for c in tree[0]["children"]] == [
        "child", "failing",
    ]


def test_separate_roots_get_separate_traces(tracing):
    with TRACER.span("first"):
        pass
    with TRACER.span("second"):
        pass
    ids = {s["trace_id"] for s in TRACER.spans()}
    assert len(ids) == 2
    summaries = TRACER.traces()
    assert {row["name"] for row in summaries} == {"first", "second"}


def test_ring_buffer_bounded(tracing):
    TRACER.configure(ring_size=8)
    for index in range(30):
        with TRACER.span(f"s{index}"):
            pass
    spans = TRACER.spans()
    assert len(spans) == 8
    assert spans[-1]["name"] == "s29"
    assert TRACER.stats()["spans_recorded"] == 30


def test_disabled_path_allocates_nothing():
    assert not TRACER.enabled
    span = TRACER.span("anything", x=1)
    assert span is NOOP_SPAN
    with span as inner:
        assert inner.set(y=2) is NOOP_SPAN
    assert TRACER.spans() == []
    assert TRACER.context() is None
    assert TRACER.current_trace_id() is None


def test_jsonl_exporter(tracing, tmp_path):
    path = tmp_path / "spans.jsonl"
    TRACER.configure(jsonl_path=path)
    with TRACER.span("exported", answer=42):
        pass
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "exported"
    assert record["attributes"] == {"answer": 42}


def test_tree_coverage():
    root = {"duration_ms": 10.0, "children": [
        {"duration_ms": 6.0}, {"duration_ms": 3.0},
    ]}
    assert tree_coverage(root) == pytest.approx(0.9)
    assert tree_coverage({"duration_ms": 0.0, "children": []}) == 1.0


# -- DP instrumentation -------------------------------------------------------

def test_dp_run_span_carries_structural_attributes(tracing):
    pdoc = figure1_pdocument()
    condition = constraints_formula(figure1_constraints())
    value = probability(pdoc, condition)
    assert 0 < value < 1
    runs = [s for s in TRACER.spans() if s["name"] == "dp.run"]
    assert runs, "no dp.run span recorded"
    attrs = runs[-1]["attributes"]
    assert attrs["nodes_computed"] > 0
    assert attrs["max_sig_width"] >= 1
    assert attrs["cache_hits"] >= 0 and attrs["cache_misses"] >= 0


def test_fanout_query_runs_one_narrow_pass_per_candidate(tracing):
    """Corollary 5.4 keeps EVAL polynomial by evaluating one Boolean
    c-formula per answer tuple.  A fan-out /query therefore records one
    ``dp.run`` per candidate, none with a root distribution wider than one
    event's pass alone, and its CostRecord carries the widest root."""
    from repro.core.compiler import Registry
    from repro.core.evaluator import Evaluation
    from repro.core.formulas import conjunction
    from repro.core.pxdb import PXDB
    from repro.core.query import Query
    from repro.core.query_eval import bound_formula, candidate_tuples
    from repro.workloads.university import scaled_university

    text = "*//'ph.d. st.'/name/$*"
    pdoc = scaled_university(departments=2, members=2, students=2)
    store = DocumentStore()
    store.add("uni", PXDB(pdoc, figure1_constraints()))
    service = PXDBService(store)
    TRACER.reset()
    service.query("uni", text)
    runs = [s["attributes"] for s in TRACER.spans() if s["name"] == "dp.run"]
    (entry,) = service.costs_payload()["entries"]

    condition = constraints_formula(figure1_constraints())
    query = Query.parse(text)
    candidates = candidate_tuples(query, pdoc)
    assert len(candidates) == 8
    assert len(runs) == len(candidates)
    lone = []
    for answer in candidates:
        joint = conjunction([condition, bound_formula(query, answer)])
        evaluation = Evaluation(Registry([joint, condition]), pdoc)
        evaluation.run()
        lone.append(evaluation.root_width)
    widths = [run["root_width"] for run in runs]
    assert min(widths) > 0
    assert max(widths) <= max(lone)
    assert entry["max_root_width"] == max(widths)


def test_sample_draw_span(tracing):
    import random

    pdoc = figure1_pdocument()
    condition = constraints_formula(figure1_constraints())
    document = sample(pdoc, condition, random.Random(7))
    assert document.root.label == "university"
    draws = [s for s in TRACER.spans() if s["name"] == "sample.draw"]
    assert len(draws) == 1
    attrs = draws[0]["attributes"]
    assert attrs["edges"] > 0
    assert attrs["evaluations"] >= 1
    assert attrs["nodes_computed"] >= 0
    # The per-edge DP evaluations nest under the draw.
    passes = [s for s in TRACER.spans() if s["name"] == "engine.pass"]
    assert passes and all(
        s["trace_id"] == draws[0]["trace_id"] for s in passes
    )


# -- service: one request, one tree -------------------------------------------

def test_http_query_yields_coherent_trace_tree(tmp_path, tracing):
    # A DP-heavy workload: the trace must cover most of the request, so
    # the measured region cannot be dominated by untraced fixed overhead.
    from repro.workloads.university import scaled_university

    pdoc_path = tmp_path / "uni.pxml"
    pdoc_path.write_text(
        pdocument_to_xml(scaled_university(departments=2, members=2, students=1))
    )
    cons_path = tmp_path / "uni.cons"
    cons_path.write_text(
        "forall university/$department : "
        "count(*//$member[position/~'professor'][position/chair]) <= 1\n"
    )
    store = DocumentStore()
    store.register("uni", pdoc_path, cons_path)
    TRACER.reset()  # drop the register-time warm-up spans
    service = build_service(store)
    handle = start_async_server(service)
    client = ServiceClient(f"http://{handle.address[0]}:{handle.address[1]}")
    try:
        answers = client.query("uni", "*//'ph.d. st.'/$name")
        assert answers  # exactness is test_service's job
        summaries = client.traces()
        roots = [row for row in summaries if row["name"] == "request.query"]
        assert roots, f"no request.query root in {summaries}"
        body = client.trace(roots[0]["trace_id"])
        assert body["trace_id"] == roots[0]["trace_id"]
        tree = body["tree"]
        assert len(tree) == 1, "one request must yield one root"
        root = tree[0]
        assert root["attributes"]["query"] == "*//'ph.d. st.'/$name"
        assert tree_coverage(root) >= 0.8
        names = {s["name"] for s in body["spans"]}
        assert "store.get" in names
        assert "pxdb.events" in names or "query.match" in names
        # Somewhere below the root the DP ran and reported its counters.
        assert any(
            "nodes_computed" in s["attributes"] for s in body["spans"]
        ), f"no DP counters in {sorted(names)}"
        # Unknown trace ids are a clean 404.
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            client.trace("doesnotexist")
    finally:
        handle.stop()
        service.close()


def test_query_and_topk_misses_look_the_entry_up_once(catalog_files, tracing):
    """The in-process dispatch reuses the entry its route fetched: one
    ``store.get`` span (one ``os.stat`` pair) per result-cache miss."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    try:
        for route, call in (
            ("query", lambda: service.query("cat", "catalog/$*")),
            ("topk", lambda: service.topk("cat", "catalog/book/$*", k=1)),
        ):
            TRACER.reset()
            call()
            (root,) = [s for s in TRACER.spans() if s["name"] == f"request.{route}"]
            assert "cache" not in root["attributes"]  # a miss: it evaluated
            gets = [s for s in TRACER.trace(root["trace_id"]) if s["name"] == "store.get"]
            assert len(gets) == 1, route
    finally:
        service.close()


def test_concurrent_coalesced_requests_keep_distinct_traces(catalog_files, tracing):
    """Concurrent service requests each get their own trace, each with
    its own evaluation; concurrent asks of one cold text are coalesced
    into one evaluation, traced under the asker that ran it."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = PXDBService(store)
    barrier = threading.Barrier(2)
    queries = [QUERY, "catalog/$shelf"]
    results: dict[int, dict] = {}

    def run(index: int) -> None:
        barrier.wait()
        results[index] = service.query("cat", queries[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert set(results) == {0, 1}

    spans = TRACER.spans()
    roots = [s for s in spans if s["name"] == "request.query"]
    trace_ids = {s["trace_id"] for s in roots}
    assert len(roots) == 2 and len(trace_ids) == 2, (
        "concurrent requests must not share a trace"
    )
    passes = [s for s in spans if s["name"] == "pxdb.events"]
    assert {s["trace_id"] for s in passes} == trace_ids

    TRACER.reset()
    text = "catalog/shelf/$book"
    barrier = threading.Barrier(3)
    answers: list[dict] = []

    def ask() -> None:
        barrier.wait()
        answers.append(service.query("cat", text))

    threads = [threading.Thread(target=ask) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    assert len(answers) == 3 and all(answer == answers[0] for answer in answers)
    spans = TRACER.spans()
    roots = [s for s in spans if s["name"] == "request.query"]
    assert len({s["trace_id"] for s in roots}) == 3
    passes = [s for s in spans if s["name"] == "pxdb.events"]
    assert len(passes) == 1 and passes[0]["trace_id"] in {s["trace_id"] for s in roots}


def test_pool_request_carries_parent_trace(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    with EvaluationPool(store.specs(), workers=1, timeout=60.0) as pool:
        service = PXDBService(store, pool=pool)
        payload = service.query("cat", QUERY)
        assert payload["answers"]
        spans = TRACER.spans()
        roots = [s for s in spans if s["name"] == "request.query"]
        workers = [s for s in spans if s["name"] == "pool.worker"]
        dispatches = [s for s in spans if s["name"] == "pool.dispatch"]
        assert roots and workers and dispatches
        trace_id = roots[0]["trace_id"]
        assert workers[0]["trace_id"] == trace_id
        assert dispatches[0]["trace_id"] == trace_id
        assert workers[0]["pid"] != os.getpid(), (
            "pool.worker must come from the worker process"
        )
        assert workers[0]["attributes"]["op"] == "query"
        # The dispatch spans the IPC round-trip inside the cache miss's
        # span, so the tree covers (nearly) the whole pool-backed request.
        tree = build_tree([s for s in spans if s["trace_id"] == trace_id])
        assert len(tree) == 1
        (miss,) = [c for c in tree[0]["children"] if c["name"] == "store.compute"]
        assert [c["name"] for c in miss["children"]] == ["pool.dispatch"]
        assert tree_coverage(tree[0]) >= 0.9


# -- fork safety: pool workers forked from a traced server --------------------
# ProcessPoolExecutor forks its workers at the first submit, from whatever
# state the parent's tracer is in at that moment.

_FORK_WHILE_LOCKED_PROBE = """
import sys, threading, time
from repro.numeric import GUARD
from repro.obs.spans import TRACER
from repro.service import DocumentStore, EvaluationPool, PXDBService

pdocument, constraints, held_lock = sys.argv[1:]
store = DocumentStore()
store.register("cat", pdocument, constraints)
TRACER.configure(enabled=True)
lock = {"tracer": TRACER._lock, "guard": GUARD._lock}[held_lock]
held = threading.Event()

def hold():
    with lock:
        held.set()
        time.sleep(0.5)

with EvaluationPool(store.specs(), workers=1, timeout=5.0) as pool:
    service = PXDBService(store, pool=pool)
    threading.Thread(target=hold).start()
    held.wait()
    # The first request forks the worker while the lock is held.
    for backend in ("auto", "exact", "auto"):
        payload = service.sat("cat", backend=backend)
        print(payload["constraint_probability"], flush=True)
"""


@pytest.mark.parametrize("held_lock", ["tracer", "guard"])
def test_pool_worker_forked_under_a_held_lock_does_not_deadlock(
    catalog_files, held_lock
):
    """A worker forked while another parent thread holds the tracer lock
    (or the ``auto`` guard's counter lock) gets a fresh lock.  An
    inherited, held lock would hang the worker at its first span (or
    guard decision) for good: every pooled request would time out, and
    the hung worker would keep the interpreter from exiting — hence the
    subprocess and its process-group kill."""
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-c", _FORK_WHILE_LOCKED_PROBE,
         *map(str, catalog_files), held_lock],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        out, err = "", "probe hung (deadlocked pool worker)"
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    # A hung worker times the first request out (PoolTimeout), and the
    # probe then cannot exit.
    assert process.returncode == 0, err
    assert out.split()[1] == "5/8", out
    assert len(out.split()) == 3, out


def test_pool_workers_draw_fresh_span_ids(catalog_files, tracing):
    """Forked workers must not replay the parent's span-id stream: every
    recorded span id is unique, and every trace is one tree."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=2, timeout=60.0) as pool:
        service = PXDBService(store, pool=pool)
        threads = [
            threading.Thread(target=service.sat, args=("cat",)) for _ in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    spans = TRACER.spans()
    ids = [span["span_id"] for span in spans]
    assert len(ids) == len(set(ids))
    roots = [span for span in spans if span["name"] == "request.sat"]
    assert len(roots) == 16
    for root in roots:
        trace = TRACER.trace(root["trace_id"])
        assert len(build_tree(trace)) == 1


def test_pool_worker_does_not_ship_back_parent_spans(catalog_files, tracing):
    """The first pooled trace forks the worker after the parent recorded
    its ``store.get`` span; the worker's copy of the ring must not send
    that span back as its own."""
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=1, timeout=60.0) as pool:
        service = PXDBService(store, pool=pool)
        assert service.query("cat", QUERY)["answers"]
    (root,) = [span for span in TRACER.spans() if span["name"] == "request.query"]
    trace = TRACER.trace(root["trace_id"])
    parent_gets = [
        span for span in trace
        if span["name"] == "store.get" and span["pid"] == os.getpid()
    ]
    assert len(parent_gets) == 1
    assert any(span["pid"] != os.getpid() for span in trace)


def test_pool_worker_spans_are_exported_once(catalog_files, tracing, tmp_path):
    """With a JSONL export, the parent writes every span — its own and the
    ingested worker spans — exactly once; a worker does not write to the
    parent's file."""
    export = tmp_path / "spans.jsonl"
    TRACER.configure(jsonl_path=export, jsonl_max_bytes=0)  # no rotation
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=2, timeout=60.0) as pool:
        service = PXDBService(store, pool=pool)
        for _ in range(4):
            # Non-exact: an exact /sat is answered in-process.
            service.sat("cat", backend="float64")
    lines = export.read_text().splitlines()
    assert len(lines) == TRACER.stats()["spans_recorded"]
    written = [json.loads(line) for line in lines]
    assert any(span["name"] == "pool.worker" for span in written)
    assert len({(s["pid"], s["span_id"]) for s in written}) == len(written)


def test_pool_worker_stats_aggregation(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    with EvaluationPool(store.specs(), workers=2, timeout=60.0) as pool:
        service = PXDBService(store, pool=pool)
        service.sat("cat")
        report = pool.worker_stats(timeout=10.0)
        assert report["probed"] >= 1
        assert len(report["workers"]) == report["probed"]
        assert str(os.getpid()) not in report["workers"]
        for info in report["workers"].values():
            assert "store" in info and "engines" in info
        summed = report["summed"]
        assert summed["store"]["registered"] >= report["probed"]
        assert "runs" in summed["engines"]
        # The cached report is reused within max_age.
        assert pool.worker_stats(max_age=60.0) is report
        # And both surfaces expose it.
        assert "pool_workers" in service.stats()
        assert "pool_workers" in service.metrics_payload()
        prom = service.metrics_prometheus()
        assert "pxdb_pool_workers_store_registered" in prom
        assert "pxdb_pool_worker_store_registered" in prom


# -- slow-query log, exemplars, version ---------------------------------------

def test_slow_query_log(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = PXDBService(store, slow_ms=0.0)  # everything is "slow"
    service.sat("cat")
    assert service.metrics.counter("slow_requests") >= 1
    payload = service.metrics_payload()
    assert payload["slow_requests"]
    record = payload["slow_requests"][-1]
    assert record["op"] == "sat" and record["db"] == "cat"
    assert record["duration_ms"] >= 0.0
    assert record["trace_id"] is None  # tracing off: the log still works


def test_metrics_exemplars_reference_traces(catalog_files, tracing):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = PXDBService(store)
    service.sat("cat")
    payload = service.metrics_payload()
    exemplars = payload["latency"]["sat"].get("exemplars")
    assert exemplars, "traced requests must leave bucket exemplars"
    trace_id = next(iter(exemplars.values()))
    assert TRACER.trace(trace_id), "the exemplar must resolve to a trace"


def test_health_and_version(catalog_files):
    store = DocumentStore()
    store.register("cat", *catalog_files)
    service = build_service(store)
    handle = start_async_server(service)
    client = ServiceClient(f"http://{handle.address[0]}:{handle.address[1]}")
    try:
        info = client.health_info()
        assert info["status"] == "ok"
        assert info["version"] == package_version()
        assert info["tracing"] is False
        assert client.metrics()["version"] == package_version()
    finally:
        handle.stop()
        service.close()


def test_cli_version_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert package_version() in capsys.readouterr().out


def test_cli_trace_commands(catalog_files, tracing, capsys, tmp_path):
    from repro.cli import main

    store = DocumentStore()
    store.register("cat", *catalog_files)
    TRACER.reset()
    service = build_service(store)
    handle = start_async_server(service)
    url = f"http://{handle.address[0]}:{handle.address[1]}"
    try:
        ServiceClient(url).query("cat", QUERY)
        assert main(["trace", "top", "--url", url]) == 0
        top = capsys.readouterr().out
        assert "request.query" in top
        trace_id = top.split()[0]
        assert main(["trace", "show", trace_id, "--url", url]) == 0
        shown = capsys.readouterr().out
        assert "request.query" in shown and "store.get" in shown
        out = tmp_path / "traces.json"
        assert main(["trace", "export", "--url", url, "-o", str(out)]) == 0
        dumped = json.loads(out.read_text())
        assert any(
            row["trace_id"] == trace_id
            for trace in dumped
            for row in trace["spans"]
        )
        # show without an id is a usage error, unreachable server is exit 2.
        assert main(["trace", "show", "--url", url]) == 2
        assert main(["trace", "top", "--url", "http://127.0.0.1:1"]) == 2
    finally:
        handle.stop()
        service.close()


# -- structured logging -------------------------------------------------------

def test_configure_logging_json_lifts_extras():
    stream = io.StringIO()
    configure_logging("debug", json_mode=True, stream=stream)
    try:
        get_logger("service.server").info(
            "slow request", extra={"op": "sat", "duration_ms": 12.5}
        )
        payload = json.loads(stream.getvalue().strip())
        assert payload["message"] == "slow request"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.service.server"
        assert payload["op"] == "sat" and payload["duration_ms"] == 12.5
    finally:
        configure_logging("warning")  # detach the StringIO handler


def test_configure_logging_plain_shows_extras():
    stream = io.StringIO()
    configure_logging("info", json_mode=False, stream=stream)
    try:
        get_logger("service.slow").warning("slow", extra={"db": "cat"})
        line = stream.getvalue().strip()
        assert "repro.service.slow" in line and "db=cat" in line
    finally:
        configure_logging("warning")


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown log level"):
        configure_logging("loud")


def test_get_logger_prefixes():
    assert get_logger("service.server").name == "repro.service.server"
    assert get_logger("repro.obs").name == "repro.obs"


# -- benchmark telemetry ------------------------------------------------------

def test_benchrec_write_load_roundtrip(tmp_path):
    recorder = benchrec.BenchRecorder("sampling", tmp_path)
    recorder.record(
        "test_x", "w1", 0.25,
        counters={"nodes_computed": 10, "width": Fraction(3, 2)},
        speedup=4.0, note="hi",
    )
    path = recorder.write()
    assert path == tmp_path / "BENCH_sampling.json"
    payload = benchrec.load(path)
    assert payload["schema"] == benchrec.SCHEMA
    assert payload["area"] == "sampling"
    row = payload["rows"][0]
    assert row["counters"] == {"nodes_computed": 10, "width": 1.5}
    assert row["extra"] == {"note": "hi"}


def test_benchrec_rejects_bad_payloads(tmp_path):
    with pytest.raises(ValueError, match="invalid benchmark area"):
        benchrec.BenchRecorder("no/slashes")
    with pytest.raises(ValueError, match="unknown schema"):
        benchrec.validate({"schema": "nope"})
    with pytest.raises(ValueError, match="missing field"):
        benchrec.validate({"schema": benchrec.SCHEMA, "rows": []})


def test_benchrec_compare_flags_regressions():
    def payload(wall, speedup):
        return {
            "schema": benchrec.SCHEMA, "area": "x",
            "generated_at": "now", "python": "3",
            "rows": [{
                "test": "t", "workload": "w", "wall_s": wall,
                "counters": {}, "speedup": speedup, "extra": {},
            }],
        }

    # Within threshold: silent.
    assert benchrec.compare(payload(1.0, 10.0), payload(1.1, 9.5)) == []
    flagged = benchrec.compare(payload(1.0, 10.0), payload(2.0, 5.0))
    assert {f["kind"] for f in flagged} == {"wall_s", "speedup"}
    text = benchrec.format_regressions(flagged)
    assert "REGRESSION" in text and "slower" in text


def test_benchrec_cli(tmp_path, capsys):
    old = benchrec.BenchRecorder("x", tmp_path)
    old.record("t", "w", 1.0)
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old.payload()))
    new = benchrec.BenchRecorder("x", tmp_path)
    new.record("t", "w", 3.0)
    new_path = tmp_path / "new.json"
    new_path.write_text(json.dumps(new.payload()))

    assert benchrec.main([str(old_path), str(old_path)]) == 0
    assert "no regressions" in capsys.readouterr().out
    assert benchrec.main([str(old_path), str(new_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert benchrec.main([str(old_path), str(new_path), "--threshold", "5"]) == 0
    assert benchrec.main([str(old_path)]) == 2
