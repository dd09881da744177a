"""Golden snapshots of end-to-end outputs (tests/golden/*.json).

These freeze the *rendered* results — exact probability strings, float64
reprs, answer orderings — of three representative workloads, so a change
anywhere in the stack (parser, DP, circuits, numeric backends, service
formatting) that shifts an observable output fails loudly with a diff.
Regenerate intentionally with ``pytest tests/test_golden.py --update-golden``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.constraints import constraints_formula
from repro.core.evaluator import probabilities, probability
from repro.core.formulas import CountAtom
from repro.core.pxdb import PXDB
from repro.core.query import selector
from repro.core.topk import top_k_worlds
from repro.numeric import value_fields
from repro.service.server import query_payload, sat_payload
from repro.service.store import DocumentStore
from repro.workloads.synthetic import exp_pdocument
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)
from repro.xmltree.serialize import document_to_xml


def _entry(pdoc):
    store = DocumentStore()
    store.add("db", PXDB(pdoc, figure1_constraints()))
    return store.get("db")


def test_golden_figure1(golden):
    entry = _entry(figure1_pdocument())
    condition = constraints_formula(figure1_constraints())
    payload = {
        "sat": {
            backend: sat_payload(entry, backend=backend)
            for backend in ("exact", "float64", "auto")
        },
        "query": query_payload(entry, "university/department/member/name/$*"),
        "query_auto": query_payload(
            entry, "university/department/member/name/$*", backend="auto"
        ),
        "top_worlds": [
            {"probability": str(prob), "document": document_to_xml(doc, style="tags")}
            for doc, prob in top_k_worlds(figure1_pdocument(), 3, condition)
        ],
    }
    # What ``auto`` promises, independent of how its midpoints round:
    # exact's answers in exact's order, each float within 1e-15 of the
    # exact Fraction.
    exact_rows = payload["query"]["answers"]
    auto_rows = payload["query_auto"]["answers"]
    assert [row["answer"] for row in auto_rows] == [
        row["answer"] for row in exact_rows
    ]
    for auto_row, exact_row in zip(auto_rows, exact_rows):
        error = Fraction(auto_row["probability_float"]) - Fraction(
            exact_row["probability"]
        )
        assert abs(error) <= 1e-15
    golden("figure1", payload)


def test_golden_university_scaled(golden):
    pdoc = scaled_university(3, 2, 2)
    condition = constraints_formula(figure1_constraints())
    exact = probability(pdoc, condition)
    payload = {
        "constraint_probability": str(exact),
        "constraint_probability_float64": repr(
            probability(pdoc, condition, backend="float64")
        ),
        "auto": value_fields(probability(pdoc, condition, backend="auto"))[0],
    }
    golden("university", payload)


def test_golden_exp_aggregate(golden):
    pdoc = exp_pdocument(2)
    formulas = [
        CountAtom([selector("root/$*")], ">=", 2),
        CountAtom([selector("root/$*")], "=", 0),
        CountAtom([selector("root/$*")], "<=", 4),
    ]
    exact = probabilities(pdoc, formulas)
    approx = probabilities(pdoc, formulas, backend="float64")
    payload = {
        "exact": [str(value) for value in exact],
        "float64": [repr(value) for value in approx],
        "auto_signs": [
            bool(value > 0)
            for value in probabilities(pdoc, formulas, backend="auto")
        ],
    }
    golden("exp_aggregate", payload)
