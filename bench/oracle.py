"""The in-process oracle every served response is checked against.

It never shares state with the server and never runs the joint pass the
service runs for a query:

* ``/sat`` — Pr(P |= C) of a fresh PXDB parsed from the same file content;
* ``/query`` — one ``PXDB.event_probability(bound_formula(q, t))`` per
  candidate tuple t (one DP pass per event), compared as exact Fraction
  strings after the service's decode-and-sort presentation;
* ``/sample`` — byte-identical to ``PXDB.sample(random.Random(seed),
  backend=…)`` under the same seed, and every served document must
  satisfy C.
"""

from __future__ import annotations

import json
import random

from repro.core.constraint_parser import parse_constraints
from repro.core.formulas import satisfies
from repro.core.pxdb import PXDB
from repro.core.query import Query
from repro.core.query_eval import bound_formula, candidate_tuples, decode_answers
from repro.pdoc.serialize import pdocument_from_xml
from repro.xmltree.serialize import document_from_xml, document_to_xml

from plans import Request, Workload


class Oracle:
    """Expected answers for one workload's requests, memoized per
    (database content, request)."""

    def __init__(self, workload: Workload):
        self.states = workload.states
        self._pxdbs: dict = {}
        self._expected: dict = {}

    def pxdb(self, state: str, db: str) -> PXDB:
        key = (state, db)
        if key not in self._pxdbs:
            pdocument, constraints = self.states[state][db]
            self._pxdbs[key] = PXDB(
                pdocument_from_xml(pdocument), parse_constraints(constraints),
                check=False,
            )
        return self._pxdbs[key]

    def expected(self, request: Request):
        key = (request.state, request.route, request.params)
        if key not in self._expected:
            self._expected[key] = self._compute(request)
        return self._expected[key]

    def _compute(self, request: Request):
        params = dict(request.params)
        pxdb = self.pxdb(request.state, params["db"])
        if request.route == "/sat":
            return str(pxdb.constraint_probability())
        if request.route == "/query":
            query = Query.parse(params["query"])
            table = {}
            for answer in candidate_tuples(query, pxdb.pdoc):
                value = pxdb.event_probability(bound_formula(query, answer))
                if value > 0:
                    table[answer] = value
            rows = sorted(
                decode_answers(table, pxdb.pdoc).items(),
                key=lambda kv: (-kv[1], str(kv[0])),
            )
            return [[[str(label) for label in labels], str(value)]
                    for labels, value in rows]
        if request.route == "/sample":
            rng = random.Random(params["seed"])
            return [
                document_to_xml(pxdb.sample(rng, backend=params["backend"]), style="tags")
                for _ in range(params["count"])
            ]
        raise ValueError(f"no oracle for {request.route}")

    def check(self, request: Request, status: int | None, body: bytes) -> str | None:
        """None when the response is correct, else why it is not."""
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        expected = self.expected(request)
        try:
            payload = json.loads(body)
            if request.route == "/sat":
                got = payload["constraint_probability"]
            elif request.route == "/query":
                got = [[row["answer"], row["probability"]] for row in payload["answers"]]
            else:
                got = payload["documents"]
        except (ValueError, KeyError, TypeError) as error:
            return f"malformed response ({type(error).__name__}: {error})"
        if got != expected:
            return f"answer differs from the oracle: got {got!r}, expected {expected!r}"
        if request.route == "/sample":
            condition = self.pxdb(request.state, request.db).condition
            for document in got:
                if not satisfies(document_from_xml(document).root, condition):
                    return "a sampled document violates the constraints"
        return None


def verify(oracle: Oracle, answered) -> list[str]:
    """Check every (request, outcome) pair; one message per failure."""
    failures = []
    for request, outcome in answered:
        problem = outcome.error or oracle.check(request, outcome.status, outcome.body)
        if problem:
            failures.append(f"{request.path()}: {problem}")
    return failures
