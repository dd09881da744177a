"""Tests for the guaranteed-accuracy approximation tier (repro.approx):
stopping rules, the event grammar, the conditioned estimator and its PXDB
wiring.  The estimator's statistical contract — the reported interval
contains the exact probability — is checked against exact DP answers and
(for aggregate events) against naive enumeration on small instances."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.aggregates.hardness import subset_sum_pdocument
from repro.approx import (
    ApproxResult,
    DEFAULT_RULE,
    EmpiricalBernstein,
    FixedHoeffding,
    RULES,
    bernstein_halfwidth,
    hoeffding_halfwidth,
    hoeffding_sample_size,
    make_rule,
    parse_event,
)
from repro.baseline.naive import naive_probability
from repro.core.constraint_parser import parse_constraints
from repro.core.formulas import CAnd, CountAtom, FALSE, SFormula, SumAtom, TRUE
from repro.core.pxdb import PXDB
from repro.pdoc.pdocument import PNode, pdocument
from repro.xmltree.parser import parse_selector


def sel(text: str) -> SFormula:
    pattern, node = parse_selector(text)
    return SFormula(pattern, node)


def catalog_pxdb() -> PXDB:
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
    constraints = parse_constraints("forall catalog/$shelf : count(*/$book) >= 1\n")
    return PXDB(pd, constraints)


# -- bounds: closed-form values ------------------------------------------------


def test_hoeffding_sample_size_values():
    assert hoeffding_sample_size(0.05, 0.05) == 738
    assert hoeffding_sample_size(0.02, 0.05) == 4612
    assert hoeffding_sample_size(0.01, 0.05) > hoeffding_sample_size(0.05, 0.05)


def test_bounds_validation():
    for bad in [(0.0, 0.05), (1.0, 0.05), (0.05, 0.0), (0.05, 1.0), (-1, 0.5)]:
        with pytest.raises(ValueError):
            hoeffding_sample_size(*bad)
        with pytest.raises(ValueError):
            make_rule(None, *bad)
    with pytest.raises(ValueError, match="unknown stopping rule"):
        make_rule("chernoff", 0.05)


def test_halfwidth_formulas():
    # Hoeffding half-width at its own sample size is <= epsilon.
    n = hoeffding_sample_size(0.05, 0.05)
    assert hoeffding_halfwidth(n, 0.05) <= 0.05
    assert hoeffding_halfwidth(n - 1, 0.05) > 0.05 - 1e-4
    # Empirical-Bernstein beats Hoeffding at low variance, loses at high.
    assert bernstein_halfwidth(0.0, 1000, 0.05) < hoeffding_halfwidth(1000, 0.05)
    assert bernstein_halfwidth(0.25, 1000, 0.05) > hoeffding_halfwidth(1000, 0.05)


def test_make_rule_registry():
    assert set(RULES) == {"hoeffding", "anytime", "bernstein"}
    assert DEFAULT_RULE == "bernstein"
    assert isinstance(make_rule(None, 0.05), EmpiricalBernstein)
    for name, cls in RULES.items():
        rule = make_rule(name, 0.1, 0.2)
        assert isinstance(rule, cls)
        assert rule.name == name
        assert (rule.epsilon, rule.delta) == (0.1, 0.2)


# -- bounds: stopping behaviour ------------------------------------------------


def test_fixed_hoeffding_stops_at_target():
    rule = FixedHoeffding(0.05, 0.05)
    assert rule.n_target == 738
    rng = random.Random(0)
    while not rule.done:
        rule.observe(1.0 if rng.random() < 0.3 else 0.0)
    estimate, lo, hi, n = rule.finalize()
    assert n == 738
    assert hi - lo <= 2 * 0.05 + 1e-12
    assert lo <= estimate <= hi


def test_fixed_hoeffding_truncation_reports_wider_interval():
    rule = FixedHoeffding(0.02, 0.05)
    rule.observe_many([1.0, 0.0] * 50)  # 100 draws, far below 4612
    assert not rule.done
    estimate, lo, hi, n = rule.finalize()
    assert n == 100
    assert not rule.done  # truncation never claims the epsilon target
    expected = hoeffding_halfwidth(100, 0.05)
    assert hi - lo == pytest.approx(2 * expected)
    assert estimate == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["anytime", "bernstein"])
def test_sequential_rules_certify_epsilon(name):
    rule = make_rule(name, 0.05, 0.05)
    rng = random.Random(7)
    while not rule.done and rule.n < 50_000:
        rule.observe(1.0 if rng.random() < 0.9 else 0.0)
    assert rule.done
    estimate, lo, hi, n = rule.finalize()
    assert hi - lo <= 2 * 0.05
    assert lo <= 0.9 <= hi  # true mean inside (this seed; coverage below)


def test_bernstein_beats_hoeffding_on_low_variance():
    """The tentpole's adaptive-stopping claim: near-deterministic streams
    stop with a fraction of the fixed-n Hoeffding budget."""
    for p in (1.0, 0.99):
        rule = EmpiricalBernstein(0.02, 0.05)
        rng = random.Random(11)
        while not rule.done and rule.n < 10_000:
            rule.observe(1.0 if rng.random() < p else 0.0)
        assert rule.done
        assert rule.n < hoeffding_sample_size(0.02, 0.05) / 2, (p, rule.n)


def test_anytime_interval_is_intersection_and_monotone():
    rule = make_rule("anytime", 0.01, 0.05)
    rng = random.Random(3)
    widths = []
    for _ in range(5000):
        rule.observe(1.0 if rng.random() < 0.5 else 0.0)
        lo, hi = rule.interval
        widths.append(hi - lo)
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))


def test_observation_validation():
    rule = make_rule(None, 0.05)
    with pytest.raises(ValueError):
        rule.observe(1.5)
    with pytest.raises(ValueError):
        rule.observe(-0.1)


@pytest.mark.parametrize("name", sorted(RULES))
def test_interval_coverage(name):
    """Empirical coverage: over repeated runs the certified interval must
    contain the true mean well over 1 - delta of the time."""
    p, misses, runs = 0.3, 0, 60
    for trial in range(runs):
        rule = make_rule(name, 0.05, 0.05)
        rng = random.Random(trial)
        while not rule.done and rule.n < 5000:
            rule.observe(1.0 if rng.random() < p else 0.0)
        _, lo, hi, _ = rule.finalize()
        if not lo <= p <= hi:
            misses += 1
    assert misses <= 3  # binomial(60, 0.05) rarely exceeds 3


# -- the event grammar ---------------------------------------------------------


def test_parse_event_atoms():
    atom = parse_event("count(*//$book) >= 2")
    assert isinstance(atom, CountAtom)
    assert atom.op == ">=" and atom.bound == 2
    atom = parse_event("sum(all) > 20")
    assert isinstance(atom, SumAtom)
    assert atom.bound == Fraction(20)
    assert len(atom.disjuncts) == 2  # "all" sugar: $* or *//$*


def test_parse_event_conjunction_and_aliases():
    formula = parse_event("sum($*) > 1/2 and cnt($* or *//$*) != 3")
    assert isinstance(formula, CAnd)
    sum_atom, count_atom = formula.parts
    assert isinstance(sum_atom, SumAtom) and sum_atom.bound == Fraction(1, 2)
    assert isinstance(count_atom, CountAtom) and count_atom.op == "!="
    assert len(count_atom.disjuncts) == 2
    # Unicode ops normalize.
    assert parse_event("min($*) ≥ 2").op == ">="


def test_parse_event_errors():
    for text in [
        "",
        "bad event",
        "median($*) > 1",
        "sum($*) >",
        "sum($*)",
        "sum() > 1",
        "count($*) >= 1.5.2",
        "count($*) >= 0.5",  # count bounds must be integers
        "sum($*) > 1 and",
        "and sum($*) > 1",
    ]:
        with pytest.raises(ValueError):
            parse_event(text)


# -- estimator + PXDB wiring ---------------------------------------------------


def test_estimate_contains_exact_answer():
    db = catalog_pxdb()
    event = CountAtom([sel("*//$book")], ">=", 2)
    exact = float(db.event_probability(event))  # 1/5
    result = db.approx_probability(event, epsilon=0.05, seed=5)
    assert isinstance(result, ApproxResult)
    assert result.lo <= exact <= result.hi
    assert result.stopped == "target"
    assert result.width <= 2 * 0.05
    assert exact in result  # __contains__


def test_estimate_accepts_event_strings():
    db = catalog_pxdb()
    from_string = db.approx_probability("count(*//$book) >= 2", epsilon=0.05, seed=5)
    from_formula = db.approx_probability(
        CountAtom([sel("*//$book")], ">=", 2), epsilon=0.05, seed=5
    )
    assert from_string == from_formula


def test_seeded_estimates_are_deterministic():
    db = catalog_pxdb()
    results = [
        db.approx_probability("count(*//$book) >= 2", epsilon=0.04, seed=99)
        for _ in range(2)
    ]
    assert results[0] == results[1]
    assert results[0].seed == 99
    other = db.approx_probability("count(*//$book) >= 2", epsilon=0.04, seed=100)
    assert other.estimate != results[0].estimate or other.n != results[0].n


def test_estimate_many_shares_draws():
    db = catalog_pxdb()
    estimator = db.approx_estimator()
    before = estimator.samples_drawn
    events = ["count(*//$book) >= 1", "count(*//$book) >= 2"]
    results = estimator.estimate_many(events, epsilon=0.05, seed=2)
    drawn = estimator.samples_drawn - before
    # One shared pass: total draws are bounded by the slowest event's n,
    # not the sum of both.
    assert drawn == max(result.n for result in results)
    exact = [1.0, 0.2]
    for result, truth in zip(results, exact):
        assert result.lo <= truth <= result.hi


def test_max_samples_truncation():
    db = catalog_pxdb()
    result = db.approx_probability(
        "count(*//$book) >= 2", epsilon=0.005, max_samples=200, seed=1
    )
    assert result.n == 200
    assert result.stopped == "max_samples"
    assert result.width > 2 * 0.005  # honest: the target was not reached
    assert result.lo <= 0.2 <= result.hi
    with pytest.raises(ValueError):
        db.approx_probability("count($*) >= 1", max_samples=0)


def test_sum_event_on_subset_sum_gadget():
    """The NP-hard case that motivates the tier: SUM positivity estimated
    with certified error, checked against enumeration on a small gadget."""
    pd = subset_sum_pdocument([2, 3, 5])
    db = PXDB(pd)
    event = parse_event("sum(all) >= 5")
    exact = float(naive_probability(pd, event))
    result = db.approx_probability(event, epsilon=0.04, seed=17)
    assert result.lo <= exact <= result.hi
    assert result.stopped == "target"


def test_approx_query_matches_exact_within_interval():
    db = catalog_pxdb()
    query = "catalog/shelf/book/title/$*"
    exact = {k: float(v) for k, v in db.query(query).items()}  # uid-keyed
    table = db.approx_query(query, epsilon=0.05, seed=21)
    assert set(table) == set(exact)
    for answer, result in table.items():
        assert result.lo <= exact[answer] <= result.hi


def test_unconditioned_estimate():
    db = catalog_pxdb()
    estimator = db.approx_estimator()
    exact = float(db.constraint_probability())  # 5/8
    result = estimator.estimate(
        db.condition, epsilon=0.05, seed=13, conditioned=False
    )
    assert result.lo <= exact <= result.hi
    # The extremes: every unconditioned draw satisfies TRUE, none FALSE.
    for event, value in ((TRUE, 1.0), (FALSE, 0.0)):
        result = estimator.estimate(event, epsilon=0.05, seed=13, conditioned=False)
        assert result.estimate == value
        assert result.lo <= value <= result.hi


def test_estimator_stats_and_cache():
    db = catalog_pxdb()
    assert db.approx_estimator() is db.approx_estimator()
    assert db.approx_estimator("exact") is not db.approx_estimator()
    db.approx_probability("count($*) >= 1", epsilon=0.2, seed=1)
    stats = db.approx_stats()
    assert stats["auto"]["calls"] >= 1
    assert stats["auto"]["samples_drawn"] >= 1


def test_approx_result_as_dict():
    db = catalog_pxdb()
    result = db.approx_probability("count(*//$book) >= 2", epsilon=0.05, seed=4)
    payload = result.as_dict()
    assert payload["interval"] == [result.lo, result.hi]
    assert payload["n_samples"] == result.n
    assert payload["seed"] == 4
    assert payload["rule"] == "bernstein"
    assert payload["stopped"] == "target"


def test_rule_selection_through_pxdb():
    db = catalog_pxdb()
    result = db.approx_probability(
        "count(*//$book) >= 1", epsilon=0.05, rule="hoeffding", seed=8
    )
    assert result.rule == "hoeffding"
    assert result.n == hoeffding_sample_size(0.05, 0.05)
