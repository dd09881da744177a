"""Compiled circuits, pinned node for node over a fixed corpus.

A traced circuit's node order fixes the operand order of every n-ary
gate, and with it the float64 and interval values the service returns
for non-exact ``/query`` requests (``tests/golden/figure1.json``'s
``query_auto`` comes from an interval sweep of a traced circuit).  So a
change to the tracer or to the DP it runs must leave every circuit
identical, not just equal in value.  ``tests/golden/circuits.json`` holds,
per case, a digest of the circuit's ``kinds``, ``args``, ``param_nodes``
and ``outputs`` and a digest of its exact outputs and of the bits of its
float64 and interval outputs.  It was computed once, by the tracer that
kept its own copy of the DP; there is deliberately no update switch.

Corpus: seeds 0-299 of ``random_pdocument(allow_exp=True, max_nodes=10)``
with two ``random_formula`` each; ``PXDB.compile_circuit`` of three query
texts' event tuples and of C alone on three scaled universities under
C1-C4; and the ``*//$*`` event tuple on Figure 1.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.circuit import compile_formulas
from repro.core.pxdb import PXDB
from repro.core.query import Query
from repro.core.query_eval import bound_formula, candidate_tuples
from repro.workloads.random_gen import random_formula, random_pdocument
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)

PINNED = Path(__file__).parent / "golden" / "circuits.json"

RANDOM_SEEDS = range(300)
SHAPES = ((1, 2, 1), (2, 2, 2), (3, 3, 1))
TEXTS = (
    "*//'ph.d. st.'/name/$*",
    "*//member/$'ph.d. st.'[name]",
    "university/$department[member/name/'member-0-0']",
)


def _events(text: str, pdoc) -> list:
    query = Query.parse(text)
    return [bound_formula(query, t) for t in candidate_tuples(query, pdoc)]


def _cases():
    """(name, circuit) for every case of the corpus, in a fixed order."""
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        pdoc = random_pdocument(rng, allow_exp=True, max_nodes=10)
        formulas = [random_formula(rng) for _ in range(2)]
        yield f"random/{seed}", compile_formulas(pdoc, formulas)
    for shape in SHAPES:
        pdoc = scaled_university(*shape)
        db = PXDB(pdoc, figure1_constraints())
        label = "x".join(map(str, shape))
        for text in TEXTS:
            yield f"university/{label}/{text}", db.compile_circuit(_events(text, pdoc))
        yield f"university/{label}/C", db.compile_circuit()
    pdoc = figure1_pdocument()
    db = PXDB(pdoc, figure1_constraints())
    yield "figure1/*//$*", db.compile_circuit(_events("*//$*", pdoc))


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def digest(circuit) -> dict:
    """The pinned view of one circuit: its size, a digest of its
    structure and a digest of its outputs in three arithmetics."""
    structure = (circuit.kinds, circuit.args, circuit.param_nodes, circuit.outputs)
    values = (
        [str(value) for value in circuit.forward()],
        [value.hex() for value in circuit.forward("float64")],
        [(value.lo.hex(), value.hi.hex()) for value in circuit.forward("interval")],
    )
    return {"nodes": len(circuit), "structure": _sha(structure), "values": _sha(values)}


def test_compiled_circuits_are_pinned():
    pinned = json.loads(PINNED.read_text())
    actual = {name: digest(circuit) for name, circuit in _cases()}
    assert list(actual) == list(pinned)
    changed = [name for name in pinned if actual[name] != pinned[name]]
    assert not changed, f"{len(changed)} circuits changed, first: {changed[:5]}"
