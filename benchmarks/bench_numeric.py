"""E13 — the interval-guarded float fast path (docs/NUMERIC.md).

The serving regime the numeric backends exist for: a stored p-document
whose probabilities keep being *re-estimated* as 6-digit rationals, which
makes the exact ``Fraction`` arithmetic blow up (every DP weight is a
ratio of ~100-digit integers) while the answers themselves stay benign.

Three claims, each asserted here:

* **Circuit floor** — re-bind + forward in ``float64`` and in the
  guarded ``auto`` mode are no slower than the exact forward on the same
  re-estimated bindings, with float64 within 1e-9 relative error and
  auto certifying the same signs as exact.  This floor was 8× while the
  exact sweep did one ``Fraction`` operation, gcds included, per gate;
  the exact sweep now runs on unreduced integer (numerator, denominator)
  pairs, so the 8× measured the gcds that kernel removed.  Back to back
  on one shared 2-core VM, three alternating runs per side, 6
  re-estimates: exact 94–155 → 13–20 ms, float64 16.4–21.0× → 2.2–2.8×
  over exact, auto 7.6–12.3× → 1.3–1.6× (the 8× floor itself failed
  one of the three runs before the change).
  The 8× claim is retracted.
* **Sampler floor** — SAMPLE⟨C⟩ draws in ``float64`` and ``auto`` are no
  slower than exact draws, and the ``auto`` draws are *bit-identical* to
  the exact ones on pinned seeds (zero decisions differ).  This floor was
  4× until the engine's outside table stopped re-convolving the root's
  departments on every run: the 4× measured the ``Fraction`` cost of that
  convolution.  Same session, 10 draws: exact 24.99 → 2.82 s, float64
  3.29 → 1.88 s, auto 4.63 → 2.35 s; float64 and auto now read 1.5× and
  1.2× over exact, where they read 7.6× and 5.4×.  The 4× claim is
  retracted.
* **Guarded fallback** — on crafted near-ties (a float64-underflowing
  needle document; the Figure 1 rank tie) the guard's fallback counter
  moves and ``auto`` still returns exactly what exact returns.
"""

from __future__ import annotations

import random
import struct
import time
from fractions import Fraction

import pytest

from repro.aggregates.minmax import rewrite
from repro.circuit import compile_formulas
from repro.core.constraints import constraints_formula
from repro.core.evaluator import probability
from repro.core.formulas import CountAtom
from repro.core.pxdb import PXDB
from repro.core.query import selector
from repro.core.sampler import sample
from repro.numeric import GUARD
from repro.obs.benchrec import benchmark_mean
from repro.pdoc.parameters import apply_parameters, parameter_slots
from repro.pdoc.pdocument import IND, MUX, pdocument
from repro.service.server import query_payload
from repro.service.store import DocumentStore
from repro.workloads.university import (
    figure1_constraints,
    figure1_pdocument,
    scaled_university,
)

CIRCUIT_ROUNDS = 6
CIRCUIT_FLOOR = 1.0  # no slower than exact (was 8.0, see the docstring)
SAMPLER_DRAWS = 10
SAMPLER_FLOOR = 1.0  # no slower than exact (was 4.0, see the docstring)
REL_TOL = 1e-9
BATCH_BINDINGS = 1000
BATCH_FLOOR = 20.0   # asserted regression floor
BATCH_TARGET = 50.0  # the headline claim, reported


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _close(approx: float, exact: Fraction) -> bool:
    reference = float(exact)
    return abs(approx - reference) <= REL_TOL * (abs(reference) + 1e-12)


def _reestimate(pdoc, seed=7):
    """In-place 6-digit-rational jitter of every ind/mux probability —
    the re-estimated regime that makes exact ``Fraction`` weights huge."""
    rng = random.Random(seed)
    for node in pdoc.distributional_nodes():
        if node.kind == IND:
            node.probs = [
                Fraction(rng.randrange(900_000, 999_999), 1_000_000)
                for _ in node.probs
            ]
        elif node.kind == MUX:
            weights = [
                Fraction(rng.randrange(1, 999_999), 1_000_000) for _ in node.probs
            ]
            total = sum(weights) + Fraction(rng.randrange(1, 999_999), 1_000_000)
            node.probs = [weight / total for weight in weights]
    return pdoc


# -- circuit: re-bind + forward per backend -----------------------------------

def test_bench_numeric_circuit_forward(report, benchmark, record):
    pdoc = scaled_university(departments=3, members=3, students=2)
    condition = rewrite(constraints_formula(figure1_constraints()))
    circuit = compile_formulas(pdoc, [condition])
    stats = circuit.stats()
    # slot.value reads the document live, so capture the base vector once:
    # every backend must see the exact same per-round bindings.
    base = [(slot.value, slot.field) for slot in parameter_slots(pdoc)]

    def edited_values(round_index: int) -> list[Fraction]:
        # A 6-digit rational scale on every ind/mux edge probability
        # (mux sums stay <= 1; exp subset weights must keep summing to 1).
        factor = Fraction(999_983 - 4_409 * round_index, 1_000_000)
        return [
            value * factor if field == "edge" else value
            for value, field in base
        ]

    elapsed: dict[str, float] = {}
    outputs: dict[str, list] = {}
    for backend in (None, "float64", "auto"):
        name = backend or "exact"
        apply_parameters(pdoc, edited_values(0))
        circuit.rebind(pdoc).forward(backend=backend)  # warm the sweep
        outs = []
        spent = 0.0
        for round_index in range(CIRCUIT_ROUNDS):
            apply_parameters(pdoc, edited_values(round_index))
            start = time.perf_counter()
            value = circuit.rebind(pdoc).forward(backend=backend)[0]
            spent += time.perf_counter() - start
            outs.append(value)
        elapsed[name] = spent
        outputs[name] = outs

    for reference, approx, guarded in zip(
        outputs["exact"], outputs["float64"], outputs["auto"]
    ):
        assert _close(approx, reference)
        # auto never certifies a sign exact disagrees with; a Fraction
        # means it fell back, in which case it *is* the exact value.
        assert (guarded > 0) == (reference > 0)
        if isinstance(guarded, Fraction):
            assert guarded == reference
        else:
            assert _close(float(guarded), reference)

    speedups = {
        name: elapsed["exact"] / elapsed[name] for name in ("float64", "auto")
    }
    report(
        f"E13 circuit  {stats['nodes']} nodes / {stats['params']} params  "
        f"{CIRCUIT_ROUNDS} re-estimates: exact {elapsed['exact'] * 1000:7.1f} ms  "
        f"float64 {speedups['float64']:5.1f}x  auto {speedups['auto']:5.1f}x "
        f"(floor {CIRCUIT_FLOOR:.0f}x)"
    )
    for name, speedup in speedups.items():
        assert speedup >= CIRCUIT_FLOOR, (
            f"{name} rebind+forward should be >= {CIRCUIT_FLOOR}x faster than "
            f"exact: {elapsed['exact']:.4f}s vs {elapsed[name]:.4f}s "
            f"({speedup:.1f}x)"
        )

    def rebind_and_forward_auto():
        return circuit.rebind(pdoc).forward(backend="auto")

    benchmark(rebind_and_forward_auto)
    record(
        f"scaled university circuit, {CIRCUIT_ROUNDS} re-estimates",
        wall_s=benchmark_mean(benchmark),
        counters={"nodes": stats["nodes"], "params": stats["params"]},
        speedup=speedups["auto"],
        exact_s=elapsed["exact"],
        float64_s=elapsed["float64"],
        auto_s=elapsed["auto"],
        float64_speedup=speedups["float64"],
    )


# -- batch: one vectorized sweep vs a per-binding float64 loop ----------------

def test_bench_numeric_batch_sweep(report, record):
    """The parameter-sweep regime: Pr(P ⊨ C) at 1000 bindings, as one
    batched numpy sweep vs the per-binding scalar float64 loop.  The batch
    column i must be *bitwise* the scalar float64 forward at binding i
    (same operation order, same doubles), and stay inside the interval
    enclosure — the speedup is pure vectorization, not a numeric change."""
    pytest.importorskip("numpy")
    from repro.circuit.batch import BatchBinding
    from repro.pdoc.parameters import scaled_edge_bindings

    pdoc = scaled_university(departments=3, members=3, students=2)
    condition = rewrite(constraints_formula(figure1_constraints()))
    circuit = compile_formulas(pdoc, [condition])
    stats = circuit.stats()
    factors = [
        Fraction(500_000 + (499_999 * k) // (BATCH_BINDINGS - 1), 1_000_000)
        for k in range(BATCH_BINDINGS)
    ]
    rows = scaled_edge_bindings(pdoc, factors)

    # The pre-batch serving path: re-bind + scalar float64 forward per row.
    circuit.set_param_values(rows[0])
    circuit.forward(backend="float64")  # warm
    start = time.perf_counter()
    scalar = []
    for row in rows:
        circuit.set_param_values(row)
        scalar.append(circuit.forward(backend="float64")[0])
    scalar_s = time.perf_counter() - start

    # One vectorized sweep.  The Fraction -> float64 lowering of the
    # binding matrix is timed separately: the scalar loop re-lowers its
    # 54 parameters inside every forward call, whereas a sweep lowers the
    # matrix exactly once — the vectorization claim is about the
    # evaluation, so that is what the headline ratio measures (the
    # end-to-end ratio including lowering is asserted below too).
    circuit.forward_batch(rows[:2])  # warm the sweep
    start = time.perf_counter()
    batch = BatchBinding.from_rows(rows)
    lower_s = time.perf_counter() - start
    circuit.forward_batch(batch)  # warm the full-width buffers
    batch_s = min(
        _timed(lambda: circuit.forward_batch(batch)) for _ in range(3)
    )
    outputs = circuit.forward_batch(batch)

    # Certification: every column bitwise equal to the scalar loop...
    for i, value in enumerate(scalar):
        assert struct.pack("<d", value) == struct.pack("<d", float(outputs[0, i]))
    # ...and contained in the interval enclosure at sampled bindings.
    for i in (0, BATCH_BINDINGS // 2, BATCH_BINDINGS - 1):
        circuit.set_param_values(rows[i])
        enclosure = circuit.forward(backend="interval")[0]
        assert enclosure.lo <= outputs[0, i] <= enclosure.hi

    speedup = scalar_s / batch_s if batch_s else float("inf")
    end_to_end = scalar_s / (lower_s + batch_s)
    report(
        f"E14 batch    {stats['nodes']} nodes / {stats['params']} params  "
        f"{BATCH_BINDINGS} bindings: loop {scalar_s * 1000:7.1f} ms  "
        f"batch {batch_s * 1000:7.1f} ms (+{lower_s * 1000:.1f} ms lowering)  "
        f"speedup {speedup:6.1f}x / {end_to_end:.1f}x end-to-end "
        f"(floor {BATCH_FLOOR:.0f}x, target {BATCH_TARGET:.0f}x)"
    )
    assert speedup >= BATCH_FLOOR, (
        f"batched sweep should be >= {BATCH_FLOOR}x faster than the "
        f"per-binding float64 loop: {scalar_s:.4f}s vs {batch_s:.4f}s "
        f"({speedup:.1f}x)"
    )
    assert end_to_end >= 10.0, (
        f"even with the one-off Fraction lowering the sweep should stay "
        f">= 10x ahead: {scalar_s:.4f}s vs {lower_s + batch_s:.4f}s"
    )
    record(
        f"{BATCH_BINDINGS}-binding sweep, one vectorized pass",
        wall_s=batch_s,
        counters={
            "nodes": stats["nodes"],
            "params": stats["params"],
            "bindings": BATCH_BINDINGS,
        },
        speedup=speedup,
        loop_s=scalar_s,
        batch_s=batch_s,
        lowering_s=lower_s,
        end_to_end_speedup=end_to_end,
        hit_target=speedup >= BATCH_TARGET,
    )


# -- sampler: draws per backend, auto bit-identical to exact ------------------

def _uids(node):
    yield node.uid
    for child in node.children:
        yield from _uids(child)


def test_bench_numeric_sampler_draws(report, record):
    pdoc = _reestimate(scaled_university(departments=3, members=3, students=2))
    condition = constraints_formula(figure1_constraints())

    elapsed: dict[str, float] = {}
    worlds: dict[str, list] = {}
    guard_deltas: dict[str, dict[str, int]] = {}
    for backend in (None, "float64", "auto"):
        name = backend or "exact"
        warm = random.Random(99)
        for _ in range(2):
            sample(pdoc, condition, warm, backend=backend)
        before = GUARD.snapshot()
        rng = random.Random(5)
        start = time.perf_counter()
        draws = [
            sample(pdoc, condition, rng, backend=backend)
            for _ in range(SAMPLER_DRAWS)
        ]
        elapsed[name] = time.perf_counter() - start
        after = GUARD.snapshot()
        worlds[name] = [frozenset(_uids(document.root)) for document in draws]
        guard_deltas[name] = {
            key: after[key] - before[key] for key in ("decisions", "fallbacks")
        }

    # Zero decisions differ: pinned-seed auto draws are the exact draws.
    assert worlds["auto"] == worlds["exact"]

    speedups = {
        name: elapsed["exact"] / elapsed[name] for name in ("float64", "auto")
    }
    guard = guard_deltas["auto"]
    report(
        f"E13 sampler  {SAMPLER_DRAWS} draws: exact {elapsed['exact']:6.2f} s  "
        f"float64 {speedups['float64']:5.1f}x  auto {speedups['auto']:5.1f}x "
        f"(floor {SAMPLER_FLOOR:.0f}x)  guard {guard['decisions']} decided / "
        f"{guard['fallbacks']} fallbacks"
    )
    for name, speedup in speedups.items():
        assert speedup >= SAMPLER_FLOOR, (
            f"{name} draws should be >= {SAMPLER_FLOOR}x faster than exact: "
            f"{elapsed['exact']:.2f}s vs {elapsed[name]:.2f}s ({speedup:.1f}x)"
        )
    record(
        f"re-estimated scaled university, {SAMPLER_DRAWS} draws",
        wall_s=elapsed["auto"] / SAMPLER_DRAWS,
        counters=guard,
        speedup=speedups["auto"],
        exact_s=elapsed["exact"],
        float64_s=elapsed["float64"],
        auto_s=elapsed["auto"],
        float64_speedup=speedups["float64"],
    )


# -- guard: crafted near-ties force (counted) exact fallbacks -----------------

def test_bench_numeric_guard_fallbacks_on_near_ties(report, record):
    # A needle document: 21 independent leaves at 1e-16 each.  The
    # all-leaves event has probability 1e-336 — float64 underflows it to
    # an exact 0.0, so only the guard's fallback separates "astronomically
    # unlikely" from "impossible".
    pd, root = pdocument("root")
    holder = root.ind()
    for index in range(21):
        holder.add_edge(f"leaf{index}", Fraction(1, 10**16))
    pd.validate()
    formula = CountAtom([selector("root/$*")], ">=", 21)

    reference = probability(pd, formula)
    assert reference == Fraction(1, 10**336)
    assert probability(pd, formula, backend="float64") == 0.0  # underflow

    before = GUARD.snapshot()
    guarded = probability(pd, formula, backend="auto")
    after = GUARD.snapshot()
    needle_fallbacks = after["fallbacks"] - before["fallbacks"]
    assert guarded == reference  # the fallback recovered the exact value
    assert needle_fallbacks > 0

    # The Figure 1 rank tie: two answers at exactly probability 1.  Their
    # enclosures overlap whatever the rounding does, so the guarded
    # service ranking must fall back — and then agree with exact.
    store = DocumentStore()
    store.add("fig1", PXDB(figure1_pdocument(), figure1_constraints()))
    entry = store.get("fig1")
    exact_payload = query_payload(entry, "university/department/member/name/$*")
    before = GUARD.snapshot()
    auto_payload = query_payload(
        entry, "university/department/member/name/$*", backend="auto"
    )
    after = GUARD.snapshot()
    tie_fallbacks = after["fallbacks"] - before["fallbacks"]
    assert tie_fallbacks > 0
    assert [row["answer"] for row in auto_payload["answers"]] == [
        row["answer"] for row in exact_payload["answers"]
    ]

    report(
        f"E13 guard    needle 1e-336: auto == exact after "
        f"{needle_fallbacks} fallback(s); figure-1 rank tie: order kept "
        f"after {tie_fallbacks} fallback(s)"
    )
    record(
        "needle underflow + figure-1 rank tie",
        counters={
            "needle_fallbacks": needle_fallbacks,
            "tie_fallbacks": tie_fallbacks,
        },
    )
