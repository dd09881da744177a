"""Smoke test of the service benchmark: ``python -m pytest bench -q``.

Checks BENCHMARK.json against the benchmark's own metric map, that a seed
reproduces its inputs byte for byte, that the oracle rejects a tampered
response, the compare verdicts, and one short run of every workload at
``--scale smoke``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import plans  # noqa: E402
from harness import write_inputs  # noqa: E402
from oracle import Oracle  # noqa: E402
from replay import MOVES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_invariants():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = workloads + end_to_end + per_layer
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(workloads)) == len(workloads)
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert 2 <= len(workloads) <= 8 and workloads == list(plans.WORKLOADS)
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(MOVES) == set(per_layer)
    for moves in MOVES.values():
        for metric, workload in moves:
            assert metric in end_to_end and workload in workloads


def test_seed_reproduces_inputs():
    for name in plans.WORKLOADS:
        first, again = plans.build(name, 7), plans.build(name, 7)
        assert first.files == again.files and first.cycle == again.cycle
        assert first.files != plans.build(name, 8).files


def _served(workload, route: str, **params) -> tuple:
    """A request and the exact bytes the server would send for it."""
    from repro.service.server import PXDBService, dispatch_route
    from repro.service.store import DocumentStore

    inputs = ROOT / "bench" / "out" / "test-inputs" / workload.name
    write_inputs(workload, inputs)
    service = PXDBService(DocumentStore())
    for name, pdocument, constraints in workload.dbs:
        service.store.register(name, inputs / pdocument, inputs / constraints)
    request = plans.Request(route, tuple(params.items()), "primary", route, "p")
    status, payload = dispatch_route(service, route, {k: str(v) for k, v in params.items()})
    return request, status, json.dumps(payload).encode()


def test_oracle_flags_tampered_responses():
    workload = plans.build("eval-point", 3, "smoke")
    oracle = Oracle(workload)
    text = plans.POINT_TEMPLATES[0].format(m="member-1-0")
    for route, params in (("/sat", {"db": "p"}), ("/query", {"db": "p", "query": text}),
                          ("/sample", {"db": "p", "count": 2, "seed": 5, "backend": "auto"})):
        request, status, body = _served(workload, route, **params)
        assert oracle.check(request, status, body) is None
        payload = json.loads(body)
        if route == "/sat":
            payload["constraint_probability"] = "1/2"
        elif route == "/query":
            payload["answers"][0]["probability"] = "1/3"
        else:
            payload["documents"] = payload["documents"][:1]
        assert oracle.check(request, status, json.dumps(payload).encode())
        assert oracle.check(request, 500, body)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    faster = [value - 10.0 for value in base]
    assert compare.verdict(base, faster, 0.1, "lower") == "improved"
    assert compare.verdict(base[:5], faster[:5], 0.1, "lower") == "unchanged"  # < 10 pairs
    assert compare.verdict(base, [115.0] * 10, 0.1, "lower") == "regressed"
    assert compare.verdict(base, [101.0, 99.0, 100.0, 100.0, 102.0] * 2, 0.1, "lower") == "unchanged"
    wide = [80.0, 120.0, 100.0, 70.0, 130.0] * 2
    assert compare.verdict(wide, [100.0] * 10, 0.1, "lower") == "unresolved"
    assert compare.verdict(base, [value - 15.0 for value in base], 0.1, "higher") == "regressed"
    assert compare.verdict(base, [150.0] * 10, None, "lower") == "regressed"


def _run(*args: str) -> dict:
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--scale", "smoke", "--seed", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_smoke_runs():
    line = _run("--seconds", "0.3", "--trace", "1")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {f"{workload}/{metric['name']}"
                                    for workload in plans.WORKLOADS
                                    for metric in SPEC["per_layer"]}
    line = _run("--seconds", "0.3", "--workload", "edit-requery")
    assert line["correct"]
    assert set(line["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(value["value"] > 0 for value in line["metrics"].values())
