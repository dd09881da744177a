"""E3 — EVAL⟨Q, C⟩ (Corollary 5.4): per-tuple query probabilities.

The query asks for the Ph.D. student names of the scaled university under
the C1–C4 constraint set.  Claims regenerated:

* exactness — per-tuple probabilities match the enumerated conditional
  distribution on small instances;
* polynomial scaling — cost grows with (#candidate tuples × evaluator
  cost), not with the exponential number of worlds: each tuple's event
  takes one DP pass of its own, so doubling the departments doubles both
  the tuples and the document (about 4× per doubling).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.baseline.naive import conditional_world_distribution
from repro.core.constraints import constraints_formula
from repro.core.pxdb import PXDB
from repro.core.query import Query
from repro.obs.benchrec import benchmark_mean
from repro.workloads.university import figure1_constraints, scaled_university

CONDITION = constraints_formula(figure1_constraints())
QUERY_TEXT = "*//'ph.d. st.'/name/$*"


@pytest.mark.parametrize("departments", [1, 2, 4, 8, 16])
def test_bench_query_scaling(benchmark, departments, report, record):
    pdoc = scaled_university(departments=departments, members=2, students=2)
    db = PXDB(pdoc, [CONDITION])
    benchmark.group = "E3-query-eval"
    table = benchmark(lambda: db.query(QUERY_TEXT))
    expected_tuples = departments * 2 * 2
    assert len(table) == expected_tuples
    record(
        f"scaled university departments={departments}",
        wall_s=benchmark_mean(benchmark),
        counters={
            "tuples": len(table),
            "dist_edges": len(pdoc.dist_edges()),
        },
    )
    values = sorted(set(table.values()))
    report(
        f"E3  departments={departments}  tuples={len(table)}  "
        f"Pr range [{float(values[0]):.4f}, {float(values[-1]):.4f}]"
    )


def test_query_matches_enumeration(benchmark, report):
    pdoc = scaled_university(departments=1, members=2, students=1)
    db = PXDB(pdoc, [CONDITION])
    query = Query.parse(QUERY_TEXT)

    def reference():
        exact = conditional_world_distribution(pdoc, db.condition)
        table: dict[tuple[int, ...], Fraction] = {}
        for uids, p in exact.items():
            document = pdoc.document_from_uids(uids)
            for answer in query.answers(document):
                key = tuple(node.uid for node in answer)
                table[key] = table.get(key, Fraction(0)) + p
        return table

    expected = benchmark.pedantic(reference, rounds=1, iterations=1)
    assert db.query(query) == expected
    report("E3  per-tuple probabilities equal the enumerated PXDB exactly")


def test_bench_multi_projection(benchmark, record):
    pdoc = scaled_university(departments=2, members=2, students=1)
    db = PXDB(pdoc, [CONDITION])
    query = Query.parse("*/department/$1:member/'ph.d. st.'/name/$2:*")
    benchmark.group = "E3-query-eval"
    table = benchmark(lambda: db.query(query))
    assert all(0 < v <= 1 for v in table.values())
    record(
        "two-projection query, departments=2",
        wall_s=benchmark_mean(benchmark),
        counters={"tuples": len(table)},
    )
