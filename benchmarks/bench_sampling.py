"""E4 — SAMPLE⟨C⟩ (Figure 3 / Theorems 6.1-6.2).

Claims regenerated:

* **correctness** (Thm 6.2) — the sampler's empirical distribution matches
  the exact conditional distribution Pr(D = d) (total-variation check);
* **efficiency** (Thm 6.1) — per-sample cost is polynomial and, crucially,
  *independent of Pr(P ⊨ C)*, whereas the rejection baseline's expected
  attempt count is 1/Pr(P ⊨ C) and blows up as constraints get tighter;
* **incrementality** — the persistent signature-distribution cache makes
  each conditioning step recompute only the touched spine: per sample the
  engine performs ≥ 3× fewer full-subtree signature recomputations than
  from-scratch evaluation on the scaled university workload (wall-clock
  speedup and evaluations-per-sample are reported alongside);
* **department scaling** — warm exact draws on ``scaled_university(d, 2,
  2)`` for d = 4, 8, 16.  The engine's outside table answers a run whose
  only changed department is k in |D_k| terms, so the signature products
  the root computes over three seeded draws (``root_pairs``) grow at most
  2.5× from d = 8 to d = 16; re-convolving every department grew them
  3.5×.  The guard counts work, not wall time, so it cannot flake.
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from repro.baseline.naive import conditional_world_distribution
from repro.baseline.rejection import RejectionBudgetExceeded, rejection_sample
from repro.core.constraints import constraints_formula
from repro.core.evaluator import IncrementalEngine, probability
from repro.core.formulas import CountAtom, SFormula
from repro.core.sampler import sample
from repro.obs.benchrec import benchmark_mean
from repro.obs.spans import TRACER
from repro.workloads.synthetic import star_pdocument
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)
from repro.xmltree.parser import parse_selector

CONDITION = constraints_formula(figure1_constraints())


def sel(text: str) -> SFormula:
    pattern, node = parse_selector(text)
    return SFormula(pattern, node)


def test_sampler_distribution_correct(benchmark, report, record):
    """2000 samples against the exact conditional distribution of the
    Figure 1 PXDB: support containment, a chi-square goodness-of-fit test
    (tail worlds binned so every expected count is >= 5), and the TV
    distance reported against its statistical noise floor."""
    import math

    from scipy import stats

    pdoc = figure1_pdocument()
    exact = conditional_world_distribution(pdoc, CONDITION)
    rng = random.Random(42)
    n = 700

    def draw_all():
        return Counter(sample(pdoc, CONDITION, rng).uid_set() for _ in range(n))

    counts = benchmark.pedantic(draw_all, rounds=1, iterations=1)
    assert set(counts) <= set(exact)
    record(
        f"figure1 n={n}",
        wall_s=benchmark_mean(benchmark),
        counters={"worlds": len(exact), "samples": n},
    )

    observed, expected = [], []
    tail_obs, tail_exp = 0, 0.0
    for world, p in sorted(exact.items(), key=lambda kv: -kv[1]):
        e = float(p) * n
        if e >= 5:
            observed.append(counts.get(world, 0))
            expected.append(e)
        else:
            tail_obs += counts.get(world, 0)
            tail_exp += e
    if tail_exp > 0:
        observed.append(tail_obs)
        expected.append(tail_exp)
    _, p_value = stats.chisquare(observed, expected)
    tv = sum(abs(counts.get(w, 0) / n - float(p)) for w, p in exact.items()) / 2
    noise_floor = math.sqrt(len(exact) / (2 * math.pi * n))
    report(
        f"E4  sampler over {n} samples: TV={tv:.4f} "
        f"(noise floor ≈ {noise_floor:.4f}, worlds={len(exact)}), "
        f"chi-square p={p_value:.3f}"
    )
    assert p_value > 1e-4, f"sampler distribution rejected (p={p_value})"
    assert tv < 3 * noise_floor


@pytest.mark.parametrize("required", [1, 6, 9, 11])
def test_bench_sampler_vs_rejection(benchmark, required, report, record):
    """Constraint hardness sweep: require >= `required` of 12 rare leaves.
    Figure-3 sampling cost stays flat; rejection attempts explode."""
    pdoc = star_pdocument(width=12, prob=Fraction(1, 4))
    condition = CountAtom([sel("root/$a")], ">=", required)
    p_c = probability(pdoc, condition)
    rng = random.Random(required)
    benchmark.group = "E4-sampler"
    benchmark(lambda: sample(pdoc, condition, rng))

    attempts = None
    start = time.perf_counter()
    try:
        _, attempts = rejection_sample(pdoc, condition, rng, max_attempts=20000)
        rejection_note = f"attempts={attempts}"
    except RejectionBudgetExceeded:
        rejection_note = "attempts>20000 (budget exceeded)"
    rejection_time = time.perf_counter() - start
    report(
        f"E4  required={required:>2}  Pr(P |= C)={float(p_c):.2e}  "
        f"figure-3 OK; rejection {rejection_note} ({rejection_time:.2f}s)"
    )
    record(
        f"star width=12 required={required}",
        wall_s=benchmark_mean(benchmark),
        counters={"rejection_attempts": attempts},
        constraint_probability=float(p_c),
        rejection_wall_s=rejection_time,
    )
    if required >= 9:
        expected_attempts = 1 / float(p_c)
        assert attempts is None or attempts > 50, (
            f"rejection should struggle at Pr={float(p_c):.1e} "
            f"(expected ~{expected_attempts:.0f} attempts)"
        )


def test_bench_sampler_scaling(benchmark, report, record):
    """Per-sample cost on the Figure 1 PXDB (13 distributional edges)."""
    pdoc = figure1_pdocument()
    rng = random.Random(3)
    benchmark.group = "E4-sampler"
    document = benchmark(lambda: sample(pdoc, CONDITION, rng))
    assert document.root.label == "university"
    record(
        "figure1 per-sample",
        wall_s=benchmark_mean(benchmark),
        counters={"dist_edges": len(pdoc.dist_edges())},
    )


def test_bench_incremental_engine(report, record):
    """Incremental vs. from-scratch evaluation inside SAMPLE⟨C⟩ on the
    scaled university: same seeds, same documents, but the warm signature
    cache must cut full-subtree recomputations per sample by ≥ 3× (in
    practice far more — only the conditioned spine is re-evaluated)."""
    pdoc = scaled_university(departments=4, members=3, students=2)
    edges = len(pdoc.dist_edges())
    draws = 3

    def measure(incremental):
        engine = IncrementalEngine.for_formula(CONDITION)
        rng = random.Random(17)
        start = time.perf_counter()
        documents = [
            sample(pdoc, CONDITION, rng, engine=engine, incremental=incremental)
            for _ in range(draws)
        ]
        elapsed = time.perf_counter() - start
        return documents, engine.stats(), elapsed

    incr_docs, incr, incr_time = measure(True)
    scratch_docs, scratch, scratch_time = measure(False)

    # Identical RNG draws => identical sample sequence: incrementality is
    # purely an evaluation-sharing optimization, never a semantic one.
    assert [d.uid_set() for d in incr_docs] == [d.uid_set() for d in scratch_docs]
    assert incr["runs"] == scratch["runs"]

    recompute_ratio = scratch["nodes_computed"] / incr["nodes_computed"]
    report(
        f"E4  incremental engine ({edges} dist edges, {draws} samples): "
        f"{incr['runs'] / draws:.1f} evaluations/sample; subtree recomputations "
        f"{incr['nodes_computed'] / draws:.0f} vs {scratch['nodes_computed'] / draws:.0f} "
        f"per sample ({recompute_ratio:.1f}x fewer), hit rate {incr['hit_rate']:.0%}, "
        f"wall-clock speedup {scratch_time / incr_time:.1f}x"
    )
    record(
        f"scaled university ({edges} dist edges, {draws} samples)",
        wall_s=incr_time,
        counters={
            "runs": incr["runs"],
            "nodes_computed": incr["nodes_computed"],
            "cache_hits": incr["cache_hits"],
            "cache_misses": incr["cache_misses"],
        },
        speedup=scratch_time / incr_time,
        scratch_wall_s=scratch_time,
        recompute_ratio=recompute_ratio,
    )
    assert recompute_ratio >= 3.0, (
        f"incremental engine saved only {recompute_ratio:.2f}x subtree "
        f"recomputations (expected >= 3x)"
    )
    assert incr_time < scratch_time


@functools.lru_cache(maxsize=None)
def _department_draws(departments: int) -> tuple[float, int, int]:
    """Three seeded warm exact draws on ``scaled_university(d, 2, 2)``
    under C1–C4, after one warm-up draw: (seconds per draw, Σ root_pairs
    of their ``dp.run`` spans, evaluator runs)."""
    pdoc = scaled_university(departments, 2, 2)
    engine = IncrementalEngine.for_formula(CONDITION)
    rng = random.Random(7)
    sample(pdoc, CONDITION, rng, engine=engine)
    runs = engine.runs
    TRACER.configure(enabled=True, ring_size=4096)
    TRACER.reset()
    try:
        start = time.perf_counter()
        for _ in range(3):
            sample(pdoc, CONDITION, rng, engine=engine)
        elapsed = time.perf_counter() - start
        spans = [s for s in TRACER.spans() if s["name"] == "dp.run"]
    finally:
        TRACER.configure(enabled=False, ring_size=4096)
        TRACER.reset()
    assert len(spans) == engine.runs - runs, "the span ring dropped runs"
    pairs = sum(span["attributes"]["root_pairs"] for span in spans)
    return elapsed / 3, pairs, engine.runs - runs


@pytest.mark.parametrize("departments", [4, 8, 16])
def test_bench_sampler_department_scaling(departments, report, record):
    per_draw, pairs, runs = _department_draws(departments)
    report(
        f"E4  scaled_university({departments:>2}, 2, 2) warm exact draw: "
        f"{per_draw * 1e3:.0f} ms/draw, {runs / 3:.0f} runs/draw, "
        f"root_pairs {pairs} over 3 draws"
    )
    record(
        f"scaled_university({departments}, 2, 2) warm exact draw",
        wall_s=per_draw,
        counters={"root_pairs": pairs, "runs": runs, "draws": 3},
    )


def test_sampler_root_pairs_grow_at_most_2_5x_per_doubling(report):
    _, pairs_8, _ = _department_draws(8)
    _, pairs_16, _ = _department_draws(16)
    ratio = pairs_16 / pairs_8
    report(f"E4  root_pairs d=8 -> 16: {pairs_8} -> {pairs_16} ({ratio:.2f}x)")
    assert ratio <= 2.5, f"root work grew {ratio:.2f}x from d = 8 to d = 16"
