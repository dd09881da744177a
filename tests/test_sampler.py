"""Tests for the conditional sampler (Figure 3 / Theorems 6.1-6.2).

Exact checks where possible (deterministic regimes, support containment,
per-world frequencies against exact conditional probabilities with a
chi-square bound); the heavy statistical validation also runs in
benchmarks/bench_sampling.py.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from scipy import stats

from repro.baseline.naive import conditional_world_distribution
from repro.baseline.rejection import RejectionBudgetExceeded, rejection_sample
from repro.core.formulas import (
    CountAtom,
    DocumentEvaluator,
    SFormula,
    TRUE,
    conjunction,
    implies,
    negation,
)
from repro.core.sampler import deterministic_instance, sample
from repro.numeric import exact_bernoulli
from repro.pdoc.enumerate import world_distribution
from repro.pdoc.pdocument import pdocument
from repro.workloads.random_gen import random_formula, random_pdocument
from repro.xmltree.parser import parse_selector


def sel(text: str) -> SFormula:
    pattern, node = parse_selector(text)
    return SFormula(pattern, node)


def small_pxdb():
    pd, root = pdocument("r")
    ind = root.ind()
    ind.add_edge("a", Fraction(1, 2))
    ind.add_edge("a", Fraction(1, 2))
    ind.add_edge("b", Fraction(2, 5))
    mux = root.mux()
    mux.add_edge("c", Fraction(3, 10))
    mux.add_edge("d", Fraction(1, 2))
    pd.validate()
    condition = conjunction(
        [
            implies(
                CountAtom([sel("r/$b")], ">=", 1), CountAtom([sel("r/$a")], ">=", 1)
            ),
            negation(
                conjunction(
                    [
                        CountAtom([sel("r/$c")], ">=", 1),
                        CountAtom([sel("r/$a")], "=", 2),
                    ]
                )
            ),
        ]
    )
    return pd, condition


def test_bernoulli_exactness():
    rng = random.Random(0)
    n = 20000
    hits = sum(exact_bernoulli(Fraction(1, 3), rng) for _ in range(n))
    assert abs(hits / n - 1 / 3) < 0.02
    assert exact_bernoulli(Fraction(0), rng) is False
    assert exact_bernoulli(Fraction(1), rng) is True


def test_sample_satisfies_constraints():
    pd, condition = small_pxdb()
    rng = random.Random(5)
    for _ in range(50):
        document = sample(pd, condition, rng)
        assert DocumentEvaluator().satisfies(document.root, condition)


def test_sample_support_containment():
    pd, condition = small_pxdb()
    exact = conditional_world_distribution(pd, condition)
    rng = random.Random(6)
    for _ in range(120):
        assert sample(pd, condition, rng).uid_set() in exact


def test_sample_distribution_chi_square():
    pd, condition = small_pxdb()
    exact = conditional_world_distribution(pd, condition)
    rng = random.Random(7)
    n = 3000
    counts = Counter(sample(pd, condition, rng).uid_set() for _ in range(n))
    worlds = sorted(exact, key=sorted)
    observed = [counts.get(w, 0) for w in worlds]
    expected = [float(exact[w]) * n for w in worlds]
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-4, f"sampler distribution looks wrong (p={p_value})"


def test_unconditioned_sampling_equals_prior():
    pd, _ = small_pxdb()
    prior = world_distribution(pd)
    rng = random.Random(8)
    n = 3000
    counts = Counter(sample(pd, TRUE, rng).uid_set() for _ in range(n))
    tv = sum(abs(counts.get(w, 0) / n - float(p)) for w, p in prior.items()) / 2
    assert tv < 0.05


def test_inconsistent_constraints_rejected():
    pd, _ = small_pxdb()
    impossible = CountAtom([sel("r/$zzz")], ">=", 1)
    with pytest.raises(ValueError):
        sample(pd, impossible, random.Random(0))


def test_forcing_constraint_determinizes():
    """A constraint satisfied by exactly one world forces that world."""
    pd, root = pdocument("r")
    ind = root.ind()
    ind.add_edge("a", Fraction(1, 2))
    ind.add_edge("b", Fraction(1, 2))
    pd.validate()
    only_a = conjunction(
        [
            CountAtom([sel("r/$a")], "=", 1),
            CountAtom([sel("r/$b")], "=", 0),
        ]
    )
    rng = random.Random(1)
    for _ in range(10):
        document = sample(pd, only_a, rng)
        assert sorted(c.label for c in document.root.children) == ["a"]


def test_deterministic_instance_requires_determinism():
    pd, root = pdocument("r")
    root.ind().add_edge("a", Fraction(1, 2))
    pd.validate()
    with pytest.raises(ValueError):
        deterministic_instance(pd)


def test_sampler_matches_baseline_on_random_instances():
    """On random PXDBs the sampler's empirical distribution must track the
    exact conditional distribution (coarse TV bound, many instances)."""
    rng = random.Random(44)
    tested = 0
    while tested < 5:
        pd = random_pdocument(rng, max_nodes=6)
        condition = random_formula(rng)
        try:
            exact = conditional_world_distribution(pd, condition)
        except ValueError:
            continue
        if len(exact) < 2:
            continue
        tested += 1
        n = 600
        counts = Counter(sample(pd, condition, rng).uid_set() for _ in range(n))
        assert set(counts) <= set(exact)
        tv = sum(abs(counts.get(w, 0) / n - float(p)) for w, p in exact.items()) / 2
        assert tv < 0.15


def test_rejection_baseline_agrees():
    pd, condition = small_pxdb()
    rng = random.Random(9)
    document, attempts = rejection_sample(pd, condition, rng)
    assert DocumentEvaluator().satisfies(document.root, condition)
    assert attempts >= 1


def test_sample_with_shared_engine_stays_correct():
    """A single engine reused across many draws must not skew the
    distribution (chi-square against the exact conditional)."""
    from repro.core.evaluator import IncrementalEngine

    pd, condition = small_pxdb()
    exact = conditional_world_distribution(pd, condition)
    engine = IncrementalEngine.for_formula(condition)
    rng = random.Random(77)
    n = 3000
    counts = Counter(
        sample(pd, condition, rng, engine=engine).uid_set() for _ in range(n)
    )
    worlds = sorted(exact, key=sorted)
    observed = [counts.get(w, 0) for w in worlds]
    expected = [float(exact[w]) * n for w in worlds]
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-4, f"shared-engine sampler looks wrong (p={p_value})"
    assert engine.stats()["cache_hits"] > 0


def test_sample_reports_evaluations_through_engine():
    from repro.core.evaluator import IncrementalEngine

    pd, condition = small_pxdb()
    engine = IncrementalEngine.for_formula(condition)
    sample(pd, condition, random.Random(2), engine=engine)
    # One run for q_0 plus one per still-undetermined edge.
    edges = len(pd.dist_edges())
    assert 1 <= engine.stats()["runs"] <= 1 + edges


def test_rejection_baseline_budget():
    pd, root = pdocument("r")
    root.ind().add_edge("a", Fraction(1, 1000))
    pd.validate()
    needs_a = CountAtom([sel("r/$a")], ">=", 1)
    with pytest.raises(RejectionBudgetExceeded):
        rejection_sample(pd, needs_a, random.Random(1), max_attempts=3)
