"""Tests for the arithmetic-circuit compilation of the c-formula DP:
the IR builder, forward/backward passes, parameter re-binding, and the
PXDB / explain integration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.circuit import Builder, Circuit, compile_formula, compile_formulas
from repro.core.constraint_parser import parse_constraints
from repro.core.evaluator import probabilities, probability
from repro.core.explain import most_influential_edges
from repro.core.formulas import exists, negation
from repro.core.pxdb import PXDB
from repro.pdoc.parameters import (
    apply_parameters,
    parameter_slots,
    parameter_values,
)
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_from_xml, pdocument_to_xml
from repro.workloads.random_gen import random_formula, random_pdocument
from repro.workloads.university import figure1_constraints, figure1_pdocument
from repro.xmltree.parser import parse_boolean_pattern

CONSTRAINT = "forall catalog/$shelf : count(*/$book) <= 1\n"


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


# -- the builder --------------------------------------------------------------

def test_builder_folds_constants():
    b = Builder()
    x = b.param()
    assert b.add([b.const(2), b.const(3)]) == b.const(5)
    assert b.mul([x, b.zero]) == b.zero
    assert b.mul([x, b.one]) == x
    assert b.add([x, b.zero]) == x


def test_builder_hash_conses_gates():
    b = Builder()
    x, y = b.param(), b.param()
    assert b.mul([x, y]) == b.mul([y, x])
    assert b.add([x, y]) == b.add([y, x])
    assert b.mul([x, y]) != b.add([x, y])
    # Duplicated operands are a genuine multiset: x·x is not x.
    assert b.mul([x, x]) != x


def test_builder_one_minus():
    b = Builder()
    x = b.param()
    circuit = Circuit(b.kinds, b.args, b.param_nodes, [Fraction(1, 3)],
                      [b.one_minus(x)])
    assert circuit.forward() == [Fraction(2, 3)]


def test_circuit_eliminates_dead_gates():
    b = Builder()
    x, y = b.param(), b.param()
    used = b.add([x, b.const(1)])
    b.mul([x, y])  # dead: never feeds the output
    circuit = Circuit(b.kinds, b.args, b.param_nodes, [Fraction(1, 2)] * 2,
                      [used])
    # Parameters survive DCE (positions must keep lining up) but the dead
    # product gate is gone.
    assert circuit.stats()["muls"] == 0
    assert circuit.num_params == 2
    assert circuit.forward() == [Fraction(3, 2)]
    # The dead parameter's gradient is identically zero.
    assert circuit.gradient() == [Fraction(1), Fraction(0)]


def test_circuit_rejects_wrong_value_count():
    b = Builder()
    x = b.param()
    circuit = Circuit(b.kinds, b.args, b.param_nodes, [Fraction(1, 2)], [x])
    with pytest.raises(ValueError, match="expected 1 parameter"):
        circuit.set_param_values([Fraction(1, 2), Fraction(1, 3)])


# -- parameter slots ----------------------------------------------------------

def test_parameter_slots_align_across_reparse():
    pd = figure1_pdocument()
    reparsed = pdocument_from_xml(pdocument_to_xml(pd))
    assert pd.root.structure_fingerprint() == reparsed.root.structure_fingerprint()
    assert parameter_values(pd) == parameter_values(reparsed)
    assert [s.describe() for s in parameter_slots(pd)] == [
        s.describe() for s in parameter_slots(reparsed)
    ]


def test_apply_parameters_validation():
    pd = figure1_pdocument()
    values = parameter_values(pd)
    with pytest.raises(ValueError, match="parameter vector has"):
        apply_parameters(pd, values[:-1])
    bad = list(values)
    bad[0] = Fraction(3, 2)
    with pytest.raises(ValueError, match="outside"):
        apply_parameters(pd, bad)
    assert parameter_values(pd) == values  # untouched on failure


def test_apply_parameters_counts_changed_nodes():
    pd = figure1_pdocument()
    values = parameter_values(pd)
    assert apply_parameters(pd, values) == 0  # no-op edit
    values[0] = Fraction(1, 3)
    assert apply_parameters(pd, values) == 1
    assert parameter_values(pd)[0] == Fraction(1, 3)


def test_apply_parameters_rejects_bad_mux_distribution():
    pd = figure1_pdocument()
    slots = parameter_slots(pd)
    values = parameter_values(pd)
    mux_positions = [i for i, s in enumerate(slots) if s.node.kind == "mux"]
    assert mux_positions, "figure 1 has mux nodes"
    for position in mux_positions:
        values[position] = Fraction(9, 10)
    with pytest.raises(ValueError, match="exceed 1"):
        apply_parameters(pd, values)


# -- forward pass: exact agreement with the evaluator -------------------------

def test_forward_matches_evaluator_on_figure1():
    pd = figure1_pdocument()
    condition = PXDB(pd, figure1_constraints()).condition
    event = exists(parse_boolean_pattern("university/department/member"))
    formulas = [condition, event, negation(condition)]
    assert compile_formulas(pd, formulas).probabilities() == probabilities(
        pd, formulas
    )


def test_forward_matches_evaluator_on_catalog():
    pd = make_catalog()
    condition = PXDB(pd, parse_constraints(CONSTRAINT)).condition
    circuit = compile_formula(pd, condition)
    assert circuit.probability() == probability(pd, condition)


# -- backward pass ------------------------------------------------------------

def test_gradient_matches_exact_finite_differences():
    """Central differences are exact for multilinear polynomials, so the
    backward pass must reproduce them to the last Fraction digit."""
    step = Fraction(1, 7)
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        pd = random_pdocument(rng, max_nodes=8, max_depth=3, allow_exp=True)
        circuit = compile_formula(pd, random_formula(rng))
        if circuit.num_params == 0:
            continue
        base = list(circuit.param_values)
        gradients = circuit.gradient(0)
        for k in range(circuit.num_params):
            up, down = list(base), list(base)
            up[k] = base[k] + step
            down[k] = base[k] - step
            circuit.set_param_values(up)
            high = circuit.forward()[0]
            circuit.set_param_values(down)
            low = circuit.forward()[0]
            assert (high - low) / (2 * step) == gradients[k]
            checked += 1
        circuit.set_param_values(base)
    assert checked > 20


def test_gradient_matches_evaluator_side_differences():
    """The derivative must also match re-running the *evaluator* on a
    perturbed p-document — tying the circuit's calculus back to the DP."""
    pd = make_catalog()
    condition = parse_constraints(CONSTRAINT)
    formula = PXDB(pd, condition).condition
    circuit = compile_formula(pd, formula)
    gradients = circuit.gradient(0)
    step = Fraction(1, 16)
    base = parameter_values(pd)
    for k in range(len(base)):
        # central difference via two full evaluator runs
        up, down = list(base), list(base)
        up[k] = base[k] + step
        down[k] = base[k] - step
        apply_parameters(pd, up)
        high = probability(pd, formula)
        apply_parameters(pd, down)
        low = probability(pd, formula)
        apply_parameters(pd, base)
        assert (high - low) / (2 * step) == gradients[k]


# -- re-binding ---------------------------------------------------------------

def test_rebind_reevaluates_without_recompiling():
    pd = make_catalog()
    condition = PXDB(pd, parse_constraints(CONSTRAINT)).condition
    circuit = compile_formula(pd, condition)
    before = circuit.probability()
    edited = pdocument_from_xml(pdocument_to_xml(pd))
    values = parameter_values(edited)
    values[0] = Fraction(9, 10)
    apply_parameters(edited, values)
    circuit.rebind(edited)
    assert circuit.rebinds == 1
    assert circuit.probability() == probability(edited, condition)
    assert circuit.probability() != before


def test_rebind_zero_to_positive_probability():
    """The tracer keeps zero-weight branches the evaluator would prune, so
    re-binding 0 → positive must still agree with a fresh evaluation."""
    pd, root = pdocument("catalog")
    books = root.ordinary("shelf").ind()
    b = PNode("ord", "book")
    b.ordinary("title")
    books.add_edge(b, Fraction(0))
    pd.validate()
    event = exists(parse_boolean_pattern("catalog/shelf/book"))
    circuit = compile_formula(pd, event)
    assert circuit.probability() == Fraction(0)
    apply_parameters(pd, [Fraction(2, 3)])
    circuit.rebind(pd)
    assert circuit.probability() == Fraction(2, 3)
    assert circuit.probability() == probability(pd, event)


def test_rebind_rejects_structural_mismatch():
    circuit = compile_formula(make_catalog(), exists(
        parse_boolean_pattern("catalog/shelf/book")
    ))
    with pytest.raises(ValueError, match="structure differs"):
        circuit.rebind(figure1_pdocument())


# -- sensitivities ------------------------------------------------------------

def test_sensitivities_ranked_and_exact():
    pd = make_catalog()
    condition = PXDB(pd, parse_constraints(CONSTRAINT)).condition
    rows = compile_formula(pd, condition).sensitivities()
    assert [abs(r["derivative"]) for r in rows] == sorted(
        (abs(r["derivative"]) for r in rows), reverse=True
    )
    # Pr(C) = 1 - p1·p2 (at most one of the two books): d/dp1 = -p2.
    by_index = {r["index"]: r for r in rows}
    assert by_index[0]["derivative"] == -Fraction(1, 4)
    assert by_index[1]["derivative"] == -Fraction(1, 2)
    assert "ind@" in rows[0]["parameter"]


def test_most_influential_edges_api():
    pd = make_catalog()
    event = exists(parse_boolean_pattern("catalog/shelf/book"))
    rows = most_influential_edges(pd, event, top=1)
    assert len(rows) == 1
    all_rows = most_influential_edges(pd, event, top=None)
    assert len(all_rows) == len(parameter_slots(pd))
    constrained = most_influential_edges(
        pd, event, top=None, constraints=parse_constraints(CONSTRAINT)
    )
    assert constrained != all_rows


# -- PXDB integration ---------------------------------------------------------

def test_pxdb_event_probabilities_via_circuit():
    pd = make_catalog()
    db = PXDB(pd, parse_constraints(CONSTRAINT))
    events = [exists(parse_boolean_pattern("catalog/shelf/book"))]
    assert db.event_probabilities(events, via="circuit") == \
        db.event_probabilities(events)
    # The compiled circuit is retained and re-bound, not recompiled.
    circuit = db.circuit_for(tuple(events))
    assert db.circuit_for(tuple(events)) is circuit
    rebinds = circuit.rebinds
    db.event_probabilities(events, via="circuit")
    assert circuit.rebinds == rebinds + 1
    stats = db.circuit_stats()
    assert stats["cached"] == 1
    assert stats["rebinds"] == circuit.rebinds


def test_pxdb_circuit_tracks_parameter_edits():
    pd = make_catalog()
    db = PXDB(pd, parse_constraints(CONSTRAINT))
    events = [exists(parse_boolean_pattern("catalog/shelf/book"))]
    before = db.event_probabilities(events, via="circuit")
    values = parameter_values(pd)
    values[0] = Fraction(1, 10)
    apply_parameters(pd, values)
    after = db.event_probabilities(events, via="circuit")
    assert after != before
    fresh = PXDB(pdocument_from_xml(pdocument_to_xml(pd)),
                 parse_constraints(CONSTRAINT))
    assert after == fresh.event_probabilities(events)


def test_pxdb_sat_circuit_is_last_output():
    pd = make_catalog()
    db = PXDB(pd, parse_constraints(CONSTRAINT))
    circuit = db.compile_circuit()
    assert circuit.forward() == [db.constraint_probability()]


def test_pxdb_circuit_traces_one_pass_per_event():
    """Each event is traced in its own pass into one builder, C riding in
    the last.  Hash-consing merges what the passes share, so the 8-event
    all-students circuit stays small (one joint trace of all 8 events had
    40,560 gates), and a one-event circuit is the one-pass circuit."""
    from repro.core.formulas import conjunction
    from repro.core.query import Query
    from repro.core.query_eval import bound_formula, candidate_tuples
    from repro.workloads.university import scaled_university

    pdoc = scaled_university(departments=2, members=2, students=2)
    db = PXDB(pdoc, figure1_constraints())
    query = Query.parse("*//'ph.d. st.'/name/$*")
    events = [bound_formula(query, t) for t in candidate_tuples(query, pdoc)]
    assert len(events) == 8
    circuit = db.compile_circuit(events)
    assert len(circuit) <= 3000
    *joints, denominator = circuit.forward()
    assert denominator == db.constraint_probability()
    assert [joint / denominator for joint in joints] == db.event_probabilities(
        events
    )
    one_pass = compile_formulas(
        pdoc, [conjunction([db.condition, events[0]]), db.condition]
    )
    single = db.compile_circuit(events[:1])
    assert (single.kinds, single.args) == (one_pass.kinds, one_pass.args)


def test_pxdb_rejects_unknown_route():
    db = PXDB(make_catalog())
    with pytest.raises(ValueError, match="unknown evaluation route"):
        db.event_probabilities([], via="magic")


def test_pxdb_circuit_cache_is_bounded():
    pd = make_catalog()
    db = PXDB(pd)
    for index in range(db.CIRCUIT_CACHE_CAP + 3):
        event = exists(parse_boolean_pattern("catalog/shelf/book"))
        db.event_probabilities([event], via="circuit")
    assert db.circuit_stats()["cached"] <= db.CIRCUIT_CACHE_CAP


def test_pxdb_circuit_cache_survives_concurrent_eviction(monkeypatch):
    """Six threads cycling 21 event tuples (more than the cache holds)
    through one PXDB's circuit cache: every lookup returns a circuit, and
    evicting never races an insert.  Compiling is stubbed out (every key
    gets one precompiled circuit) so the threads contend on the cache
    itself, and the interpreter switches threads as often as it can."""
    import sys
    import threading
    import time

    from repro.core.query import Query
    from repro.core.query_eval import bound_formula, candidate_tuples

    db = PXDB(figure1_pdocument(), figure1_constraints())
    query = Query.parse("university//$*")
    events = [bound_formula(query, answer) for answer in candidate_tuples(query, db.pdoc)]
    tuples = [(event,) for event in events[:21]]
    assert len(tuples) == 21 > db.CIRCUIT_CACHE_CAP
    compiled = db.compile_circuit(())
    monkeypatch.setattr(PXDB, "compile_circuit", lambda self, key: compiled)
    errors: list[str] = []
    stop = time.monotonic() + 1.0

    def cycle(offset: int) -> None:
        index = offset
        try:
            while time.monotonic() < stop:
                assert db.circuit_for(tuples[index % len(tuples)]) is not None
                index += 1
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=cycle, args=(3 * k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert db.circuit_stats()["cached"] <= db.CIRCUIT_CACHE_CAP
