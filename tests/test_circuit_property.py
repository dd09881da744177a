"""Property-based differential tests for the circuit compilation: on
randomized p-documents and c-formulae, the compiled circuit's forward pass
must return ``Fraction``s *identical* to the Theorem 5.3 evaluator, and
its backward pass must match exact central finite differences (the
outputs are multilinear in the parameters, so the differences are exact).

Each property also re-binds the circuit to a second binding whose
denominators mix 3 and 7, with some probabilities exactly 0 or 1 and mux
and exp weights normalized by their own totals.  The exact sweeps keep
every node as an unreduced integer (numerator, denominator) pair, and
such a binding makes their sums meet unequal denominators, zero
numerators and muxes whose absent branch is exactly 0.

Input distributions live in :mod:`tests.strategies`, shared with the
evaluator and numeric-backend differential suites.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given

from repro.circuit import compile_formulas
from repro.core.evaluator import probabilities
from repro.core.formulas import conjunction, disjunction, negation
from repro.pdoc.parameters import apply_parameters, parameter_slots
from repro.pdoc.pdocument import EXP, IND, MUX, PDocument
from repro.workloads.random_gen import random_formula, random_pdocument

from .strategies import DEFAULT_SETTINGS, rngs

_MIXED = (
    [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3)]
    + [Fraction(k, 7) for k in range(1, 7)]
)


def _mixed_binding(pdoc: PDocument, rng: random.Random) -> list[Fraction]:
    """A second parameter vector for ``pdoc``: ind edges drawn from
    ``_MIXED``; mux edges and exp subset weights drawn from it and divided
    by their own total (a mux's total includes one more draw for its
    absent branch, which may be 0)."""
    weights: dict[int, list[Fraction]] = {}
    values = []
    for slot in parameter_slots(pdoc):
        node = slot.node
        if id(node) not in weights:
            count = len(node.subsets) if node.kind == EXP else len(node.probs)
            drawn = [rng.choice(_MIXED) for _ in range(count)]
            if node.kind != IND:
                total = sum(drawn) + (rng.choice(_MIXED) if node.kind == MUX else 0)
                if total:
                    drawn = [weight / total for weight in drawn]
                elif node.kind == EXP:  # its weights must sum to exactly 1
                    drawn = [Fraction(1, count)] * count
            weights[id(node)] = drawn
        values.append(weights[id(node)][slot.index])
    return values


def _assert_forward_matches_evaluator(pdoc, formulas, rng) -> None:
    """Forward == the evaluator at the compile-time binding and again
    after a re-bind to a mixed-denominator binding."""
    circuit = compile_formulas(pdoc, formulas)
    assert circuit.probabilities() == probabilities(pdoc, formulas)
    apply_parameters(pdoc, _mixed_binding(pdoc, rng))
    assert circuit.rebind(pdoc).probabilities() == probabilities(pdoc, formulas)


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_matches_evaluator_count_formulae(rng):
    pdoc = random_pdocument(rng)
    formulas = [random_formula(rng, allow_ratio=False) for _ in range(2)]
    _assert_forward_matches_evaluator(pdoc, formulas, rng)


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_matches_evaluator_ratio_formulae(rng):
    pdoc = random_pdocument(rng)
    _assert_forward_matches_evaluator(
        pdoc, [random_formula(rng, allow_ratio=True)], rng
    )


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_matches_evaluator_exp_nodes(rng):
    pdoc = random_pdocument(rng, allow_exp=True)
    _assert_forward_matches_evaluator(pdoc, [random_formula(rng)], rng)


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_matches_evaluator_boolean_closure(rng):
    pdoc = random_pdocument(rng, allow_exp=True)
    f1 = random_formula(rng)
    f2 = random_formula(rng)
    formulas = [negation(f1), conjunction([f1, f2]), disjunction([f1, negation(f2)])]
    _assert_forward_matches_evaluator(pdoc, formulas, rng)


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_gradient_matches_exact_central_differences(rng):
    pdoc = random_pdocument(rng, max_nodes=8, max_depth=3, allow_exp=True)
    circuit = compile_formulas(pdoc, [random_formula(rng)])
    if circuit.num_params == 0:
        return
    step = Fraction(1, 9)
    for base in (list(circuit.param_values), _mixed_binding(pdoc, rng)):
        circuit.set_param_values(base)
        gradients = circuit.gradient(0)
        # One randomly chosen parameter per binding keeps the runtime sane.
        k = rng.randrange(circuit.num_params)
        up, down = list(base), list(base)
        up[k] = base[k] + step
        down[k] = base[k] - step
        circuit.set_param_values(up)
        high = circuit.forward()[0]
        circuit.set_param_values(down)
        low = circuit.forward()[0]
        assert (high - low) / (2 * step) == gradients[k]
