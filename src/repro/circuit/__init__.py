"""Arithmetic-circuit compilation of the c-formula DP (docs/CIRCUIT.md).

Compile once, evaluate many: for a fixed p-document *structure* and fixed
formulas, the Theorem 5.3 dynamic program is a polynomial-size arithmetic
circuit over the probability parameters.  This package traces evaluator
runs into that circuit (:func:`compile_formulas` for one run,
:func:`compile_passes` for several into one shared circuit), after which

* a **forward pass** reproduces the evaluator's exact ``Fraction``
  probabilities in |circuit| scalar operations,
* a **backward pass** yields ∂Pr(P ⊨ γ)/∂θ for *every* parameter in one
  sweep (the sensitivity API of ``repro.core.explain``), and
* **re-binding** swaps in new probability values — for probability-only
  edits of the p-document — in O(|params|) without recompiling.
"""

from .batch import HAVE_NUMPY, BatchBinding
from .ir import ADD, CONST, MUL, PARAM, Builder, Circuit
from .trace import (
    CircuitTracer,
    CompiledCircuit,
    ParamInfo,
    compile_formula,
    compile_formulas,
    compile_passes,
)

__all__ = [
    "ADD",
    "CONST",
    "HAVE_NUMPY",
    "MUL",
    "PARAM",
    "BatchBinding",
    "Builder",
    "Circuit",
    "CircuitTracer",
    "CompiledCircuit",
    "ParamInfo",
    "compile_formula",
    "compile_formulas",
    "compile_passes",
]
