"""Golden pin of seeded SAMPLE⟨C⟩ draws for every sampler arithmetic.

The Figure-3 sampler (``repro.core.sampler``) runs the same loop on three
arithmetics: ``exact``, ``float64`` and ``auto`` (interval evaluation with
exact fallback).  This snapshot freezes, per case, backend and
``incremental`` mode:

* every drawn document, serialized with ``document_to_xml(style="tags")``
  (uids come from a process-global counter, so uid sets would not be
  stable across test orders);
* the next 64 bits of the rng after the draws — a coin that consumed one
  chunk more or less shifts this;
* the evaluator runs of the engine and of the exact fallback engine, and
  the ``GUARD`` decision/fallback deltas, per draw.

The inputs reach every branch of the loop: Figure 1 and a scaled
university under C1–C4, a monotone condition that reaches q = 1, seeded
random PXDBs with ``exp`` nodes, and four gadgets:

* a rejection whose update cancels — float64 and the interval enclosure
  both re-evaluate q (driven by an rng whose every coin comes up tails);
* the same with a third, smaller edge, so the auto sampler's posterior
  enclosure touches 1 while the exact posterior is below it: the coin
  falls back and comes up tails, and q is updated exactly;
* a q that hovers just below 1 (the auto sampler's failed exact
  certification);
* the 21-edge needle, whose Pr(P ⊨ C) = 10⁻³³⁶ has no float64 enclosure
  away from 0 (the auto sampler's start fallback).

Regenerate intentionally with
``pytest tests/test_sampler_pin.py --update-golden``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core.constraints import constraints_formula
from repro.core.evaluator import IncrementalEngine, probability
from repro.core.formulas import CountAtom, disjunction
from repro.core.query import selector
from repro.core.sampler import sample
from repro.numeric import GUARD
from repro.pdoc.pdocument import pdocument
from repro.workloads.random_gen import random_formula, random_pdocument
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)
from repro.xmltree.serialize import document_to_xml

from .test_differential import _all_leaves_formula, _needle_pdocument

BACKENDS = ("exact", "float64", "auto")


class TailsRandom(random.Random):
    """``getrandbits(k)`` is always 2ᵏ − 1: every coin with p < 1 − 2⁻⁶⁴
    comes up tails, so the sampler rejects every edge it can."""

    def getrandbits(self, k: int) -> int:
        return (1 << k) - 1


def _ind_pdocument(*edges):
    """``r`` with one ind node holding the (label, probability) edges."""
    pd, root = pdocument("r")
    holder = root.ind()
    for label, prob in edges:
        holder.add_edge(label, prob)
    pd.validate()
    return pd


def _at_least_one(*paths):
    return disjunction([CountAtom([selector(path)], ">=", 1) for path in paths])


def _random_cases(count=10):
    """The first ``count`` seeded random PXDBs (with ``exp`` nodes) whose
    random condition is satisfiable but not certain, so the draws run
    Bayes coins rather than the q = 1 short-circuit alone."""
    cases = []
    seed = 0
    while len(cases) < count:
        rng = random.Random(seed)
        pdoc = random_pdocument(rng, allow_exp=True)
        condition = random_formula(rng)
        if 0 < probability(pdoc, condition) < 1:
            cases.append((f"random-{seed}", pdoc, condition, lambda: random.Random(3)))
        seed += 1
    return cases


def _cases():
    c1_c4 = constraints_formula(figure1_constraints())
    return [
        ("figure1-C1C4", figure1_pdocument(), c1_c4, lambda: random.Random(11)),
        ("university-2-2-1-C1C4", scaled_university(2, 2, 1), c1_c4,
         lambda: random.Random(12)),
        ("figure1-monotone", figure1_pdocument(),
         CountAtom([selector("*//$chair")], ">=", 1), lambda: random.Random(13)),
        *_random_cases(),
        ("cancellation-tails", _ind_pdocument(("a", Fraction(1, 2)),
                                              ("b", Fraction(1, 10**12))),
         _at_least_one("r/$a", "r/$b"), TailsRandom),
        ("resolved-rejection-tails",
         _ind_pdocument(("a", Fraction(1, 2)), ("b", Fraction(1, 10**12)),
                        ("c", Fraction(1, 10**30))),
         _at_least_one("r/$a", "r/$b", "r/$c"), TailsRandom),
        ("near-one", _ind_pdocument(("a", 1 - Fraction(1, 10**17)),
                                    ("c", Fraction(1, 2))),
         _at_least_one("r/$a"), lambda: random.Random(5)),
    ]


def _draws(pdoc, condition, make_rng, backend, incremental, count=3):
    eval_backend = "interval" if backend == "auto" else backend
    engine = IncrementalEngine.for_formula(condition, backend=eval_backend)
    fallback = IncrementalEngine.for_formula(condition) if backend == "auto" else None
    rng = make_rng()
    draws = []
    for _ in range(count):
        runs = engine.runs
        fallback_runs = fallback.runs if fallback else 0
        guard = GUARD.snapshot()
        document = sample(pdoc, condition, rng, engine=engine,
                          incremental=incremental, backend=backend,
                          fallback_engine=fallback)
        after = GUARD.snapshot()
        draws.append({
            "document": document_to_xml(document, style="tags"),
            "runs": engine.runs - runs,
            "fallback_runs": (fallback.runs if fallback else 0) - fallback_runs,
            "guard_decisions": after["decisions"] - guard["decisions"],
            "guard_fallbacks": after["fallbacks"] - guard["fallbacks"],
        })
    return {"draws": draws, "rng_next64": rng.getrandbits(64)}


def test_golden_sampler_draws(golden):
    payload = {}
    for name, pdoc, condition, make_rng in _cases():
        for backend in BACKENDS:
            for incremental in (True, False):
                key = f"{name}/{backend}/{'incremental' if incremental else 'scratch'}"
                payload[key] = _draws(pdoc, condition, make_rng, backend, incremental)
    needle = _needle_pdocument(21)
    for incremental in (True, False):
        key = f"needle-21/auto/{'incremental' if incremental else 'scratch'}"
        payload[key] = _draws(needle, _all_leaves_formula(21),
                              lambda: random.Random(21), "auto", incremental)
    golden("sampler_draws", payload)
