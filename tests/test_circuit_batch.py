"""Differential + property coverage for the batched numpy circuit backend.

The batch backend's contract (docs/CIRCUIT.md) is *bitwise*: column i of
``forward_batch`` equals the scalar float64 forward at binding i, double
for double.  These tests certify it on random circuits (the
differential harness's input distribution), check gradients against the
scalar reverse sweep bitwise and against exact central finite
differences (the outputs are multilinear, so Fraction differences are
exact), and pin the interval containment every float64 result already
enjoys.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.evaluator import probabilities
from repro.numeric import Interval
from repro.workloads.random_gen import random_formula, random_pdocument

from .strategies import DEFAULT_SETTINGS, reestimate, rngs

np = pytest.importorskip("numpy")

from repro.circuit import BatchBinding, compile_formulas  # noqa: E402
from repro.pdoc.parameters import parameter_values, scaled_edge_bindings  # noqa: E402


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _random_bindings(pdoc, rng, count: int) -> list[list[Fraction]]:
    """Scaled + jittered bindings: every edge probability swept, the
    occasional re-estimated document for awkward denominators."""
    factors = [
        Fraction(rng.randrange(1, 1_000_000), 1_000_000) for _ in range(count)
    ]
    return scaled_edge_bindings(pdoc, factors)


# -- forward: bitwise equality with the scalar float64 sweep ------------------

@given(rng=rngs(), count=st.integers(min_value=1, max_value=7))
@DEFAULT_SETTINGS
def test_forward_batch_columns_match_scalar_float64_bitwise(rng, count):
    pdoc = random_pdocument(rng, allow_exp=True)
    formulas = [random_formula(rng) for _ in range(2)]
    circuit = compile_formulas(pdoc, formulas)
    rows = _random_bindings(pdoc, rng, count)
    batch = BatchBinding.from_rows(rows)
    outputs = circuit.forward_batch(batch)
    assert outputs.shape == (len(circuit.outputs), count)
    for i, row in enumerate(rows):
        circuit.set_param_values(row)
        scalar = circuit.forward(backend="float64")
        for j, value in enumerate(scalar):
            assert _bits(value) == _bits(outputs[j, i])


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_batch_contained_in_interval_bounds(rng):
    pdoc = random_pdocument(rng, allow_exp=True)
    formulas = [random_formula(rng) for _ in range(2)]
    circuit = compile_formulas(pdoc, formulas)
    rows = _random_bindings(pdoc, rng, 4)
    outputs = circuit.forward_batch(BatchBinding.from_rows(rows))
    for i, row in enumerate(rows):
        circuit.set_param_values(row)
        enclosures = circuit.forward(backend="interval")
        for j, enclosure in enumerate(enclosures):
            assert isinstance(enclosure, Interval)
            assert enclosure.lo <= outputs[j, i] <= enclosure.hi


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_batch_on_reestimated_parameters(rng):
    """The awkward-denominator regime: 6-significant-digit rationals from
    ``reestimate`` as bindings, batch still bitwise equal to scalar."""
    pdoc = random_pdocument(rng, numeric=True)
    formulas = [random_formula(rng, allow_ratio=False)]
    circuit = compile_formulas(pdoc, formulas)
    rows = [parameter_values(reestimate(pdoc, rng)) for _ in range(3)]
    outputs = circuit.forward_batch(rows)
    for i, row in enumerate(rows):
        circuit.set_param_values(row)
        for j, value in enumerate(circuit.forward(backend="float64")):
            assert _bits(value) == _bits(outputs[j, i])


# -- gradients ----------------------------------------------------------------

@given(rng=rngs())
@DEFAULT_SETTINGS
def test_gradient_batch_matches_scalar_float64_bitwise(rng):
    pdoc = random_pdocument(rng, allow_exp=True)
    circuit = compile_formulas(pdoc, [random_formula(rng)])
    rows = _random_bindings(pdoc, rng, 5)
    gradients = circuit.gradient_batch(BatchBinding.from_rows(rows), output=0)
    assert gradients.shape == (circuit.num_params, 5)
    for i, row in enumerate(rows):
        circuit.set_param_values(row)
        scalar = circuit.gradient(0, backend="float64")
        for position, value in enumerate(scalar):
            assert _bits(value) == _bits(gradients[position, i])


@given(rng=rngs())
@DEFAULT_SETTINGS
def test_gradient_batch_matches_exact_central_differences(rng):
    """Outputs are multilinear in every parameter, so exact central
    differences equal the exact derivative; the float64 batch gradient
    must agree with it to float64 forward-difference accuracy (here:
    compared against the float of the exact derivative with a tolerance
    scaled to the circuit)."""
    pdoc = random_pdocument(rng)
    circuit = compile_formulas(pdoc, [random_formula(rng, allow_ratio=False)])
    if not circuit.num_params:
        return
    row = parameter_values(pdoc)
    gradients = circuit.gradient_batch([row], output=0)
    step = Fraction(1, 9)
    k = rng.randrange(circuit.num_params)
    plus = list(row)
    minus = list(row)
    plus[k] = row[k] + step
    minus[k] = row[k] - step
    circuit.set_param_values(plus)
    upper = circuit.forward()[0]
    circuit.set_param_values(minus)
    lower = circuit.forward()[0]
    exact = (upper - lower) / (2 * step)
    assert gradients[k, 0] == pytest.approx(float(exact), rel=1e-9, abs=1e-12)


# -- the forward value itself stays truthful ----------------------------------

@given(rng=rngs())
@DEFAULT_SETTINGS
def test_forward_batch_tracks_exact_evaluator(rng):
    """End-to-end sanity: batch float64 values approximate the exact
    evaluator's Fractions at every binding (loose tolerance — the tight
    statement is bitwise equality with the scalar float64 path above)."""
    pdoc = random_pdocument(rng)
    formula = random_formula(rng, allow_ratio=False)
    circuit = compile_formulas(pdoc, [formula])
    rows = _random_bindings(pdoc, rng, 3)
    outputs = circuit.forward_batch(rows)
    from repro.pdoc.parameters import apply_parameters

    for i, row in enumerate(rows):
        apply_parameters(pdoc, row)
        exact = probabilities(pdoc, [formula])[0]
        assert outputs[0, i] == pytest.approx(float(exact), rel=1e-9, abs=1e-12)


# -- BatchBinding unit behavior -----------------------------------------------

def test_batch_binding_validation():
    with pytest.raises(ValueError, match="at least one binding"):
        BatchBinding.from_rows([])
    with pytest.raises(ValueError, match="binding 1 has 1 values"):
        BatchBinding.from_rows([[0.5, 0.5], [0.5]])
    with pytest.raises(ValueError, match="matrix"):
        BatchBinding(np.zeros(3))
    binding = BatchBinding.from_rows([[Fraction(1, 3), 1], [0.25, 0]])
    assert binding.n == 2
    assert binding.num_params == 2
    assert binding.column(0) == [float(Fraction(1, 3)), 1.0]
    assert len(binding) == 2


def test_forward_batch_rejects_wrong_width():
    import random

    pdoc = random_pdocument(random.Random(7))
    circuit = compile_formulas(pdoc, [random_formula(random.Random(8))])
    wrong = [[Fraction(1, 2)] * (circuit.num_params + 1)]
    with pytest.raises(ValueError, match="parameter values per binding"):
        circuit.forward_batch(wrong)


def test_get_backend_batch_names_the_sweep_api():
    from repro.numeric import get_backend

    with pytest.raises(ValueError, match="forward_batch"):
        get_backend("batch")
