"""Repo-wide differential harness for the numeric backends (docs/NUMERIC.md).

Every surface that accepts ``backend=`` is exercised against the exact
``Fraction`` arithmetic on shared randomized inputs (:mod:`tests.strategies`):

* ``float64`` agrees with exact to 1e-9 relative error;
* ``interval`` *encloses* the exact value (the enclosure is the proof);
* ``auto`` never makes a decision — positivity, sampler branch, answer
  rank, top-k order — that differs from exact, and returns the exact
  ``Fraction`` wherever it fell back; on random PXDBs its seeded draws
  equal the exact sampler's, and every draw is a possible world that
  satisfies C;
* factored EVAL (one pass per answer tuple, on the DP and the circuit
  route) equals one joint pass over every tuple's event, exactly;
* the polynomial evaluator itself is cross-checked once more against the
  exponential possible-worlds baseline on the jittered ("re-estimated")
  parameter regime the fast path exists for;
* float64 underflow (weights below ~1e-308) must never be mistaken for
  impossibility: the interval upper bound stays positive, ``auto`` falls
  back to exact, and the guarded service and the float64 sampler refuse
  to divide by an underflowed denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given

from repro.baseline.naive import naive_probability
from repro.circuit import compile_formulas
from repro.core.evaluator import probabilities, probability
from repro.core.formulas import CountAtom, DocumentEvaluator, TRUE, conjunction
from repro.core.pxdb import PXDB
from repro.core.query import Query, selector
from repro.core.query_eval import bound_formula, candidate_tuples, evaluate_query
from repro.core.sampler import sample
from repro.core.topk import top_k_worlds
from repro.numeric import GUARD, Interval, maybe_positive
from repro.pdoc.enumerate import world_probability
from repro.pdoc.pdocument import pdocument
from repro.service.server import query_payload
from repro.service.store import DocumentStore
from repro.workloads.random_gen import random_selector
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)

from .strategies import (
    DEFAULT_SETTINGS,
    pdoc_formula_pairs,
    reestimate,
    rngs,
    seeds,
)

REL_TOL = 1e-9


def _close(approx: float, exact: Fraction) -> bool:
    reference = float(exact)
    return abs(approx - reference) <= REL_TOL * (abs(reference) + 1e-12)


def _contains(iv: Interval, exact: Fraction) -> bool:
    return iv.lo <= exact <= iv.hi


# -- float64 vs exact ---------------------------------------------------------

@given(case=pdoc_formula_pairs(formulas=3, allow_exp=True))
@DEFAULT_SETTINGS
def test_float64_matches_exact_within_tolerance(case):
    pdoc, formulas = case
    exact = probabilities(pdoc, formulas)
    approx = probabilities(pdoc, formulas, backend="float64")
    assert all(_close(a, e) for a, e in zip(approx, exact))


# -- interval encloses exact --------------------------------------------------

@given(case=pdoc_formula_pairs(formulas=3, allow_exp=True))
@DEFAULT_SETTINGS
def test_interval_contains_exact(case):
    pdoc, formulas = case
    exact = probabilities(pdoc, formulas)
    enclosures = probabilities(pdoc, formulas, backend="interval")
    assert all(_contains(iv, e) for iv, e in zip(enclosures, exact))


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_interval_contains_exact_on_reestimated_parameters(rng):
    """The regime the fast path targets: 6-digit rational probabilities."""
    from repro.workloads.random_gen import random_formula, random_pdocument

    pdoc = reestimate(random_pdocument(rng, allow_exp=True), rng)
    formula = random_formula(rng)
    exact = probability(pdoc, formula)
    assert _contains(probability(pdoc, formula, backend="interval"), exact)
    assert _close(probability(pdoc, formula, backend="float64"), exact)


# -- auto decisions are exact's decisions -------------------------------------

@given(case=pdoc_formula_pairs(formulas=3, allow_exp=True))
@DEFAULT_SETTINGS
def test_auto_positivity_decisions_match_exact(case):
    pdoc, formulas = case
    exact = probabilities(pdoc, formulas)
    guarded = probabilities(pdoc, formulas, backend="auto")
    for value, reference in zip(guarded, exact):
        assert (value > 0) == (reference > 0)
        # Wherever auto fell back, it returned the exact value itself.
        if isinstance(value, Fraction):
            assert value == reference


# -- circuits -----------------------------------------------------------------

@given(case=pdoc_formula_pairs(formulas=2, allow_exp=True))
@DEFAULT_SETTINGS
def test_circuit_backends_match_exact(case):
    pdoc, formulas = case
    circuit = compile_formulas(pdoc, formulas)
    exact = circuit.forward()
    approx = circuit.forward(backend="float64")
    enclosures = circuit.forward(backend="interval")
    guarded = circuit.forward(backend="auto")
    for e, a, iv, g in zip(exact, approx, enclosures, guarded):
        assert _close(a, e)
        assert _contains(iv, e)
        assert (g > 0) == (e > 0)
        if isinstance(g, Fraction):
            assert g == e


# -- factored EVAL (Corollary 5.4) ----------------------------------------------

@given(case=pdoc_formula_pairs(allow_exp=True), rng=rngs())
@DEFAULT_SETTINGS
def test_factored_event_answers_equal_one_joint_pass(case, rng):
    """One pass per answer tuple, on the DP route and traced into one
    circuit, answers exactly what one joint pass over every tuple's event
    answers: factoring changes the cost, never a value."""
    pdoc, (condition,) = case
    db = PXDB(pdoc, [condition], check=False)
    assume(db.constraint_probability() > 0)
    # Most random selectors match at most one node of a tiny document, and
    # with one event the joint and the factored pass are the same pass.
    # Draw until a selector has two or more candidates (or give up after
    # 30 draws and test the last one).
    for _ in range(30):
        sformula = random_selector(rng)
        query = Query(sformula.pattern, [sformula.projected], sformula.alpha)
        answers = candidate_tuples(query, pdoc)
        if len(answers) > 1:
            break
    events = [bound_formula(query, answer) for answer in answers]
    *joints, denominator = probabilities(
        pdoc, [conjunction([condition, event]) for event in events] + [condition]
    )
    expected = [joint / denominator for joint in joints]
    table = evaluate_query(query, pdoc, condition, keep_zero=True)
    assert list(table) == answers
    assert list(table.values()) == expected
    assert db.event_probabilities(events, via="circuit") == expected


def test_pass_counts_joint_count_distribution_factored_membership(tracing):
    """count_distribution's events CNT(σ) = k share one counter, so they
    keep one joint pass; membership events bind one node each and take
    one pass per candidate.  Counting ``dp.run`` spans pins both."""
    from repro.core.constraints import constraints_formula
    from repro.core.statistics import (
        candidate_uids,
        count_distribution,
        membership_probabilities,
    )
    from repro.obs.spans import TRACER

    pdoc = figure1_pdocument()
    condition = constraints_formula(figure1_constraints())
    sformula = selector("university/department/$member")
    candidates = candidate_uids(sformula, pdoc)
    assert len(candidates) > 1

    def dp_runs(compute) -> int:
        TRACER.reset()
        compute(sformula, pdoc, condition)
        return sum(1 for span in TRACER.spans() if span["name"] == "dp.run")

    assert dp_runs(count_distribution) == 1
    assert dp_runs(membership_probabilities) == len(candidates)


# -- baseline cross-check on the re-estimated regime --------------------------

@given(rng=rngs())
@DEFAULT_SETTINGS
def test_evaluator_matches_baseline_on_reestimated_parameters(rng):
    from repro.workloads.random_gen import random_formula, random_pdocument

    pdoc = reestimate(random_pdocument(rng, max_nodes=7), rng)
    formula = random_formula(rng)
    reference = naive_probability(pdoc, formula)
    assert probability(pdoc, formula) == reference
    assert _close(probability(pdoc, formula, backend="float64"), reference)


# -- sampler: pinned-seed branch identity (tier-1 smoke) ----------------------

def _draw_uid_sets(pdoc, condition, backend, seed, draws=3):
    rng = random.Random(seed)
    worlds = []
    for _ in range(draws):
        document = sample(pdoc, condition, rng, backend=backend)
        worlds.append(frozenset(_uids(document.root)))
    # The random stream must be in the same state afterwards, or later
    # draws would diverge even with identical branch decisions so far.
    return worlds, rng.getrandbits(64)


def _uids(node):
    yield node.uid
    for child in node.children:
        yield from _uids(child)


def test_sampler_auto_branches_identical_to_exact_pinned_seeds():
    from repro.core.constraints import constraints_formula

    cases = [
        (figure1_pdocument(), constraints_formula(figure1_constraints())),
        (scaled_university(2, 2, 1), constraints_formula(figure1_constraints())),
    ]
    for pdoc, condition in cases:
        for seed in range(8):
            exact = _draw_uid_sets(pdoc, condition, None, seed)
            guarded = _draw_uid_sets(pdoc, condition, "auto", seed)
            assert exact == guarded


@given(case=pdoc_formula_pairs(allow_exp=True), seed=seeds)
@DEFAULT_SETTINGS
def test_sampler_auto_draws_equal_exact_on_random_pxdbs(case, seed):
    pdoc, (condition,) = case
    assume(probability(pdoc, condition) > 0)
    exact = _draw_uid_sets(pdoc, condition, None, seed)
    assert _draw_uid_sets(pdoc, condition, "auto", seed) == exact
    worlds, _ = exact
    for uids in worlds:
        document = pdoc.document_from_uids(uids)
        assert DocumentEvaluator().satisfies(document.root, condition)
        assert world_probability(pdoc, uids) > 0


# -- top-k order --------------------------------------------------------------

def test_topk_order_identical_auto_vs_exact():
    from repro.core.constraints import constraints_formula

    pdoc = figure1_pdocument()
    condition = constraints_formula(figure1_constraints())
    exact = top_k_worlds(pdoc, 5, condition)
    guarded = top_k_worlds(pdoc, 5, condition, backend="auto")
    assert [sorted(_uids(d.root)) for d, _ in exact] == [
        sorted(_uids(d.root)) for d, _ in guarded
    ]
    for (_, p_exact), (_, p_auto) in zip(exact, guarded):
        assert _close(float(p_auto), p_exact)


# -- service-level guarded ranking --------------------------------------------

def test_service_query_auto_matches_exact_answers_and_order():
    store = DocumentStore()
    store.add("fig1", PXDB(figure1_pdocument(), figure1_constraints()))
    entry = store.get("fig1")
    exact = query_payload(entry, "/university//$name")
    # The second call hits the entry's cached candidate tuples, so the
    # guarded ranking is exercised on the circuit route as well.
    guarded = query_payload(entry, "/university//$name", backend="auto")
    assert [row["answer"] for row in exact["answers"]] == [
        row["answer"] for row in guarded["answers"]
    ]
    for e_row, g_row in zip(exact["answers"], guarded["answers"]):
        assert abs(
            e_row["probability_float"] - g_row["probability_float"]
        ) <= REL_TOL * (abs(e_row["probability_float"]) + 1e-12)


# -- underflow is not impossibility -------------------------------------------

def _needle_pdocument(edges: int, prob=Fraction(1, 10**16)):
    """``edges`` independent leaves, each present with a tiny probability:
    the all-present world has probability prob**edges — far below the
    float64 normal range once ``edges`` is large enough."""
    pd, root = pdocument("root")
    holder = root.ind()
    for index in range(edges):
        holder.add_edge(f"leaf{index}", prob)
    pd.validate()
    return pd


def _all_leaves_formula(edges: int):
    return CountAtom([selector("root/$*")], ">=", edges)


def test_subnormal_probability_near_1e320_survives_every_backend():
    # 20 edges of 1e-16: the exact probability is 1e-320 — a *subnormal*
    # float64, representable but one rounding away from vanishing.
    pdoc = _needle_pdocument(20)
    formula = _all_leaves_formula(20)
    exact = probability(pdoc, formula)
    assert exact == Fraction(1, 10**320)
    approx = probability(pdoc, formula, backend="float64")
    assert approx > 0.0  # subnormal, not flushed
    enclosure = probability(pdoc, formula, backend="interval")
    assert maybe_positive(enclosure)
    assert _contains(enclosure, exact)


def test_float64_underflow_to_zero_is_not_pruned_as_impossible():
    # 21 edges of 1e-16: exact 1e-336 rounds to 0.0 in float64.  The
    # evaluator's zero short-circuit tests exact provenance, so the event
    # must stay alive in the interval backend and auto must recover the
    # exact value via fallback.
    pdoc = _needle_pdocument(21)
    formula = _all_leaves_formula(21)
    exact = probability(pdoc, formula)
    assert exact == Fraction(1, 10**336) > 0
    assert probability(pdoc, formula, backend="float64") == 0.0  # underflow
    enclosure = probability(pdoc, formula, backend="interval")
    assert maybe_positive(enclosure), "underflow must not look impossible"
    fallbacks_before = GUARD.snapshot()["fallbacks"]
    guarded = probability(pdoc, formula, backend="auto")
    assert guarded == exact  # straddling sign → exact fallback
    assert GUARD.snapshot()["fallbacks"] > fallbacks_before


def test_float64_underflowed_denominator_refuses_to_divide():
    pdoc = _needle_pdocument(21)
    db = PXDB(pdoc, [_all_leaves_formula(21)])
    try:
        db.event_probabilities([TRUE], backend="float64")
    except ValueError as error:
        assert "underflow" in str(error)
    else:
        raise AssertionError("expected the underflow ValueError")
    # auto survives the same request: the guard falls back to exact.
    (value,) = db.event_probabilities([TRUE], backend="auto")
    assert value == 1
    # The float64 sampler's q₀ is the same underflowed denominator: it
    # must report underflow too, not call the PXDB inconsistent.
    with pytest.raises(ValueError, match="underflow"):
        db.sample(random.Random(0), backend="float64")
    db.sample(random.Random(0), backend="auto")
