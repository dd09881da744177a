"""Tests for the incremental evaluation engine and the sampler hot path.

The engine is a pure evaluation-sharing optimization, so every test here
is an equivalence test at heart: warm-cache results must equal cold
results exactly (Fractions), the incremental sampler must draw the very
same documents as from-scratch evaluation under the same seed, and its
empirical distribution must agree with the rejection baseline's.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from scipy import stats

from repro.baseline.rejection import rejection_sample
from repro.core.compiler import Registry
from repro.core.constraints import constraints_formula
from repro.core.evaluator import Evaluation, IncrementalEngine, probabilities, probability
from repro.core.formulas import CountAtom, SFormula, exists
from repro.core.pxdb import PXDB
from repro.core.query import selector
from repro.core.sampler import deterministic_instance, sample
from repro.pdoc.pdocument import EXP, ORD, PDocument, PNode, pdocument
from repro.workloads.random_gen import random_formula, random_pdocument
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)
from repro.xmltree.parser import parse_selector
from repro.xmltree.pattern import Pattern, PatternNode
from repro.xmltree.predicates import ANY, NodeIs

from .strategies import DEFAULT_SETTINGS, rngs


def sel(text: str) -> SFormula:
    pattern, node = parse_selector(text)
    return SFormula(pattern, node)


# -- structural fingerprints ---------------------------------------------------

def test_fingerprints_stable_across_clones():
    pdoc = figure1_pdocument()
    clone = pdoc.clone()
    assert pdoc.root.shape_fingerprint() == clone.root.shape_fingerprint()
    assert pdoc.root.identity_fingerprint() == clone.root.identity_fingerprint()


def test_shape_fingerprint_ignores_uids_identity_does_not():
    first, root1 = pdocument("r")
    root1.ind().add_edge("a", Fraction(1, 2))
    second, root2 = pdocument("r")
    root2.ind().add_edge("a", Fraction(1, 2))
    assert root1.shape_fingerprint() == root2.shape_fingerprint()
    assert root1.identity_fingerprint() != root2.identity_fingerprint()


def test_conditioning_invalidates_only_the_spine():
    fig = figure1_pdocument()
    edge = fig.dist_edges()[0]
    # Warm every fingerprint, then condition in place.
    fig.root.shape_fingerprint()
    before = {id(n): n._shape_fp for n in fig.nodes()}
    fig.condition_edge_in_place(edge, True)
    node = edge[0]
    spine_ids = set()
    current = node
    while current is not None:
        spine_ids.add(id(current))
        current = current.parent
    for n in fig.nodes():
        if id(n) in spine_ids:
            assert n._shape_fp is None
        else:
            assert n._shape_fp == before[id(n)]


def test_restore_edge_roundtrips():
    pdoc = figure1_pdocument()
    for edge in pdoc.dist_edges():
        node, index = edge
        prior = pdoc.edge_prob(node, index)
        if prior == 0 or prior == 1:
            continue
        before_fp = pdoc.root.identity_fingerprint()
        snapshot = pdoc.edge_snapshot(edge)
        pdoc.condition_edge_in_place(edge, True)
        assert pdoc.root.identity_fingerprint() != before_fp
        pdoc.restore_edge(edge, snapshot)
        assert pdoc.root.identity_fingerprint() == before_fp


def test_in_place_conditioning_matches_clone_conditioning():
    rng = random.Random(3)
    for _ in range(20):
        pdoc = random_pdocument(rng, allow_exp=True)
        formula = random_formula(rng)
        for edge in pdoc.dist_edges():
            node, index = edge
            prior = pdoc.edge_prob(node, index)
            for chosen in (True, False):
                if (chosen and prior == 0) or (not chosen and prior == 1):
                    continue
                cloned = pdoc.conditioned_on_edge(edge, chosen)
                mutable = pdoc.clone()
                mutable.condition_edge_in_place(
                    (mutable.dist_edges()[pdoc.dist_edges().index(edge)][0], index),
                    chosen,
                )
                try:
                    expected = probability(cloned, formula)
                except TypeError:
                    break  # SUM/AVG drawn: not evaluable, skip this formula
                assert probability(mutable, formula) == expected


# -- engine cache correctness --------------------------------------------------

def test_incremental_engine_matches_from_scratch_on_random_instances():
    """Warm-cache probabilities along a random conditioning chain must be
    bit-identical to independent from-scratch evaluations."""
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        pdoc = random_pdocument(rng, allow_exp=True)
        formula = random_formula(rng)
        try:
            engine = IncrementalEngine.for_formula(formula)
        except TypeError:
            continue  # SUM/AVG atom: rejected by the polynomial evaluator
        current = pdoc.clone()
        assert engine.probability(current) == probability(pdoc, formula)
        for edge in current.dist_edges():
            node, index = edge
            prior = current.edge_prob(node, index)
            if prior == 0 or prior == 1:
                continue
            current.condition_edge_in_place(edge, rng.random() < 0.5 or prior == 1)
            assert engine.probability(current) == probability(current, formula)
        checked += 1


def _wide_pdocument(rng: random.Random) -> PDocument:
    """A root with 2–5 children, each a small random p-document."""
    root = PNode(ORD, rng.choice("abc"))
    for _ in range(rng.randint(2, 5)):
        root._attach(random_pdocument(rng, max_nodes=5, allow_exp=True).root)
    return PDocument(root)


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_root_tables_match_engineless_dp_under_random_conditioning(rng):
    """The outside table at a wide root, for three top formulas, equals the
    engine-less DP as exact Fractions, and its interval enclosures contain
    the exact values, along a random edge order with restores.  Besides a
    random formula, two descendant counts keep the answers moving as edges
    are conditioned (random formulas alone are mostly constant here)."""
    pdoc = _wide_pdocument(rng)
    formulas = [random_formula(rng)] + [
        CountAtom([selector(f"*//${rng.choice('abc')}")],
                  rng.choice(("<=", ">=", "=")), rng.randint(1, 3))
        for _ in range(2)
    ]
    try:
        exact = IncrementalEngine.for_formulas(formulas)
    except TypeError:
        assume(False)  # SUM/AVG atom: rejected by the polynomial evaluator
    interval = IncrementalEngine.for_formulas(formulas, backend="interval")
    current = pdoc.clone()

    def check():
        expected = probabilities(current, formulas)
        assert exact.probabilities(current) == expected
        for (lo, hi), value in zip(interval.probabilities(current), expected):
            assert lo <= value <= hi

    check()
    edges = current.dist_edges()
    rng.shuffle(edges)
    for edge in edges:
        prior = current.edge_prob(*edge)
        if prior == 0 or prior == 1:
            continue
        snapshot = current.edge_snapshot(edge)
        current.condition_edge_in_place(edge, rng.random() < 0.5)
        check()
        if rng.random() < 0.3:
            current.restore_edge(edge, snapshot)
            check()
    assert exact.root_tables is not None


def test_root_tables_hold_one_slot_per_child_position():
    """Bounded state: after 50 draws the root keeps at most one prefix
    product, one suffix product and one row table per child position
    (keeping every table under its fingerprints instead grows without
    bound, one table per conditioning state seen)."""
    pdoc = scaled_university(departments=4, members=2, students=2)
    condition = constraints_formula(figure1_constraints())
    engine = IncrementalEngine.for_formula(condition)
    rng = random.Random(50)
    for _ in range(50):
        sample(pdoc, condition, rng, engine=engine)
    tables = engine.root_tables
    assert not hasattr(tables, "__dict__")  # all state lives in the slots
    for slots in (tables.prefix, tables.suffix, tables.rows):
        assert len(slots) == 4
        assert any(slot is not None for slot in slots)
    for _chain, product in filter(None, tables.prefix + tables.suffix):
        assert isinstance(product, dict)
    for _prefix, _suffix, outside, rows in filter(None, tables.rows):
        assert isinstance(outside, dict) and isinstance(rows, dict)
    engine.clear()
    assert engine.root_tables is None


def test_warm_draw_starts_on_the_kept_first_table(tracing):
    """A new draw reverts every department, and its first run answers from
    the k = 0 table the previous draw left: |D_0| terms, no convolution."""
    pdoc = scaled_university(departments=3, members=2, students=1)
    condition = constraints_formula(figure1_constraints())
    engine = IncrementalEngine.for_formula(condition)
    sample(pdoc, condition, random.Random(1), engine=engine)
    tracing.reset()
    sample(pdoc, condition, random.Random(2), engine=engine)
    first = next(s for s in tracing.spans() if s["name"] == "dp.run")["attributes"]
    assert first["root_pairs"] == first["root_width"] > 0


def test_root_pairs_count_the_plain_convolution():
    """Without an engine the root convolves every child: root_pairs is
    Σ |accumulator|·|child| and root_width the product's width."""
    from repro.aggregates.minmax import rewrite

    pdoc = scaled_university(departments=3, members=2, students=1)
    condition = constraints_formula(figure1_constraints())
    evaluation = Evaluation(Registry([rewrite(condition)]), pdoc)
    evaluation.run()
    accumulator, expected = {evaluation.empty: Fraction(1)}, 0
    for child in pdoc.root.children:
        dist = evaluation.forest_dist(child)
        expected += len(accumulator) * len(dist)
        accumulator = evaluation.convolve(accumulator, dist)
    assert evaluation.root_pairs == expected
    assert evaluation.root_width == len(accumulator)


def test_identity_mode_engine_sound_for_node_predicates():
    """With a NodeIs predicate the cache must key on identity fingerprints;
    conditioned in-place versions still share unchanged subtrees soundly."""
    pdoc = scaled_university(departments=2, members=2, students=1)
    target = next(n for n in pdoc.ordinary_nodes() if n.label == "member")
    root = PatternNode(ANY)
    root.descendant(NodeIs(target.uid))
    formula = exists(Pattern(root))
    engine = IncrementalEngine.for_formula(formula)
    assert engine.identity_keys
    current = pdoc.clone()
    assert engine.probability(current) == probability(pdoc, formula)
    for edge in current.dist_edges():
        node, index = edge
        prior = current.edge_prob(node, index)
        if prior == 0 or prior == 1:
            continue
        current.condition_edge_in_place(edge, True)
        assert engine.probability(current) == probability(current, formula)
    assert engine.hits > 0  # sharing actually happened across runs


def test_engine_shares_work_across_runs():
    pdoc = scaled_university(departments=3, members=2, students=1)
    condition = constraints_formula(figure1_constraints())
    engine = IncrementalEngine.for_formula(condition)
    first = engine.probability(pdoc)
    cold_nodes = engine.nodes_computed
    second = engine.probability(pdoc.clone())
    assert first == second
    # The clone carries the same fingerprints: the second run recomputes
    # nothing below the root.
    assert engine.nodes_computed == cold_nodes
    assert engine.stats()["runs"] == 2


# -- sampler equivalence -------------------------------------------------------

def test_incremental_sampler_draws_identical_documents():
    """Same seed => same documents with and without the warm cache: the
    engine may never change which Bernoulli outcomes are drawn."""
    rng = random.Random(21)
    for _ in range(6):
        pdoc = random_pdocument(rng, allow_exp=True)
        condition = CountAtom([sel("*//$a")], ">=", 0)  # always satisfiable
        seed = rng.randrange(10**9)
        engine = IncrementalEngine.for_formula(condition)
        warm = [
            sample(pdoc, condition, random.Random(seed + i), engine=engine)
            for i in range(3)
        ]
        cold = [
            sample(pdoc, condition, random.Random(seed + i), incremental=False)
            for i in range(3)
        ]
        assert [d.uid_set() for d in warm] == [d.uid_set() for d in cold]


def test_sampler_matches_rejection_baseline_distribution():
    """Seeded two-sample check: the incremental sampler's empirical
    distribution agrees with the rejection baseline's on a small PXDB."""
    pd, root = pdocument("r")
    ind = root.ind()
    ind.add_edge("a", Fraction(1, 2))
    ind.add_edge("b", Fraction(1, 2))
    mux = root.mux()
    mux.add_edge("c", Fraction(1, 3))
    mux.add_edge("d", Fraction(1, 3))
    pd.validate()
    condition = CountAtom([sel("r/$a"), sel("r/$c")], ">=", 1)

    n = 1500
    rng = random.Random(123)
    engine = IncrementalEngine.for_formula(condition)
    from collections import Counter

    incr = Counter(
        sample(pd, condition, rng, engine=engine).uid_set() for _ in range(n)
    )
    rej = Counter(
        rejection_sample(pd, condition, rng)[0].uid_set() for _ in range(n)
    )
    worlds = sorted(set(incr) | set(rej), key=sorted)
    table = [[incr.get(w, 0) for w in worlds], [rej.get(w, 0) for w in worlds]]
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 1e-4, f"sampler vs rejection distributions differ (p={p_value})"


def test_pxdb_engine_persists_across_samples():
    db = PXDB(figure1_pdocument(), figure1_constraints())
    rng = random.Random(4)
    db.sample(rng)
    runs_first = db.sample_engine.stats()["runs"]
    db.sample(rng)
    second = db.sample_engine.stats()
    assert second["runs"] > runs_first  # same engine object, still counting
    assert second["cache_hits"] > 0


# -- satellite regressions -----------------------------------------------------

def test_sample_enumerates_dist_edges_once(monkeypatch):
    """O(m^2) regression: the loop must not rebuild the edge list per edge."""
    calls = {"n": 0}
    original = PDocument.dist_edges

    def counting(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(PDocument, "dist_edges", counting)
    sample(figure1_pdocument(), rng=random.Random(0))
    assert calls["n"] == 1


def test_sample_leaves_caller_pdocument_untouched():
    pdoc = figure1_pdocument()
    before = [(list(n.probs), list(n.subsets)) for n in pdoc.nodes()]
    sample(pdoc, constraints_formula(figure1_constraints()), random.Random(11))
    after = [(list(n.probs), list(n.subsets)) for n in pdoc.nodes()]
    assert before == after


def test_deterministic_instance_zero_probability_exp_subsets():
    """Regression: an exp node whose subsets all have probability 0 must
    raise the documented ValueError, not a bare IndexError."""
    root = PNode(ORD, "r")
    exp = PNode(EXP)
    root._attach(exp)
    exp._attach(PNode(ORD, "a"))
    exp.subsets = [(frozenset({0}), Fraction(0)), (frozenset(), Fraction(0))]
    with pytest.raises(ValueError, match="not fully determined"):
        deterministic_instance(PDocument(root, validate=False))


def test_evaluation_counters_are_per_run():
    """Regression: counters must describe the latest run only, not
    accumulate across repeated run() calls on the same object."""
    pdoc = scaled_university(departments=4, members=2, students=1, anonymous=True)
    condition = constraints_formula(figure1_constraints())
    from repro.aggregates.minmax import rewrite

    evaluation = Evaluation(Registry([rewrite(condition)]), pdoc)
    evaluation.run()
    first = (evaluation.cache_hits, evaluation.cache_misses, evaluation.nodes_computed)
    assert first[2] > 0
    evaluation.run()
    second = (evaluation.cache_hits, evaluation.cache_misses, evaluation.nodes_computed)
    # Not cumulative; the warm local cache makes the second run all hits.
    assert second[2] == 0
    assert second[0] <= first[0] + first[1]
    assert second[1] == 0


def test_engine_rejects_foreign_registry():
    condition = CountAtom([sel("r/$a")], ">=", 1)
    engine = IncrementalEngine.for_formula(condition)
    other = Registry([condition])
    with pytest.raises(ValueError):
        Evaluation(other, figure1_pdocument(), engine=engine)
