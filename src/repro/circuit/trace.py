"""Compiling the c-formula DP into an arithmetic circuit.

:class:`CircuitTracer` runs the Theorem 5.3 evaluator
(:class:`repro.core.evaluator.Evaluation`) in a gate arithmetic:
signature-distribution values are circuit node ids, ``mul`` emits a
``MUL`` gate and ``add`` gathers its operands, which ``_settle`` turns
into one n-ary ``ADD`` gate wherever the DP finishes a sum.  Every
probability the p-document contributes (ind/mux edge probabilities, exp
subset weights) enters through the evaluator's weight methods as a
``PARAM`` node.  The traversal, the signature monoid, the spine
automata, ``consume`` and the root analysis are the evaluator's own
code, which is what makes the forward pass provably identical to the
evaluator: the same signatures flow through the same combinators; only
the scalar semiring differs.

Two deliberate deviations from the concrete evaluator:

* **no zero-weight pruning** — the evaluator's weight methods drop a
  branch whose probability is exactly 0 (and skip the mixture of an ind
  edge whose probability is exactly 1); the tracer's keep every
  structurally present branch, so the compiled circuit stays correct for
  *any* later parameter binding (including re-binding a 0 to a positive
  value);
* **no structural sharing across document positions** — the evaluator's
  shape cache computes identical fragments once, but two fragments at
  different positions carry *different* parameters, so the tracer traces
  every position (hash-consing in the builder still merges whatever is
  genuinely identical, e.g. fully deterministic sub-expressions).

The result, :class:`CompiledCircuit`, binds the circuit to its source
p-document's *structure*: :meth:`~CompiledCircuit.rebind` accepts any
p-document with the same structure fingerprint and re-points the
parameters at its probability values — one O(|params|) copy plus one
forward sweep instead of a fresh DP (experiment E12 quantifies the gap).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..core.compiler import Registry
from ..core.evaluator import Evaluation, SigDist
from ..core.formulas import CFormula
from ..numeric import NumericBackend
from ..obs.spans import TRACER
from ..pdoc.parameters import EDGE, SUBSET, parameter_slots
from ..pdoc.pdocument import PDocument, PNode
from .ir import Builder, Circuit


class ParamInfo:
    """Compile-time description of one parameter (no live tree refs)."""

    __slots__ = ("field", "path", "index", "description")

    def __init__(self, field: str, path: tuple[int, ...], index: int, description: str):
        self.field = field
        self.path = path
        self.index = index
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParamInfo({self.description})"


def _gate_arithmetic(builder: Builder) -> NumericBackend:
    """The DP's arithmetic on node ids of ``builder``.  A sum is gathered
    as a list of its terms until ``CircuitTracer._settle`` emits it."""

    def add(total, term):
        if type(total) is list:
            total.append(term)
            return total
        return [total, term]

    def mul(left: int, right: int) -> int:
        return builder.mul((left, right))

    return NumericBackend(
        "circuit", True, builder.zero, builder.one, add, mul, None, None, builder.const
    )


class CircuitTracer(Evaluation):
    """One evaluator run in the gate arithmetic.

    The per-document memo keyed by ``id(node)`` is the only cache in play
    (``use_cache=False``): structural sharing would merge distinct
    parameters.
    """

    def __init__(
        self,
        registry: Registry,
        pdoc: PDocument,
        builder: Builder,
        param_ids: dict[tuple[int, str, int], int],
    ):
        super().__init__(
            registry, pdoc, use_cache=False, backend=_gate_arithmetic(builder)
        )
        self.builder = builder
        self.param_ids = param_ids

    def _settle(self, dist: SigDist) -> SigDist:
        add = self.builder.add
        return {sig: add(v) if type(v) is list else v for sig, v in dist.items()}

    def _ind_weights(self, node: PNode, index: int) -> tuple:
        p = self.param_ids[(id(node), EDGE, index)]
        return p, self.builder.one_minus(p)

    def _mux_weights(self, node: PNode) -> tuple:
        params = [
            self.param_ids[(id(node), EDGE, index)]
            for index in range(len(node.children))
        ]
        builder = self.builder
        return builder.one_minus(builder.add(params)), list(enumerate(params))

    def _exp_weights(self, node: PNode) -> list:
        return [
            (subset, self.param_ids[(id(node), SUBSET, position)])
            for position, (subset, _) in enumerate(node.subsets)
        ]

    def trace(self) -> list[int]:
        """Output node ids, one per top formula of the registry."""
        return list(self._settle(dict(enumerate(self._run()))).values())


class CompiledCircuit(Circuit):
    """A circuit bound to the *structure* of its source p-document."""

    __slots__ = ("param_info", "structure_fp", "formulas", "rebinds")

    def __init__(
        self,
        builder: Builder,
        outputs: Sequence[int],
        param_values: Sequence[Fraction],
        param_info: Sequence[ParamInfo],
        structure_fp: int,
        formulas: Sequence[CFormula],
    ):
        super().__init__(
            builder.kinds, builder.args, builder.param_nodes, param_values, outputs
        )
        self.param_info = tuple(param_info)
        self.structure_fp = structure_fp
        self.formulas = tuple(formulas)
        self.rebinds = 0

    # -- parameter re-binding -------------------------------------------------
    def rebind(self, pdoc: PDocument) -> "CompiledCircuit":
        """Re-point the parameters at ``pdoc``'s probability values.

        ``pdoc`` must be structurally identical to the compile-time
        document (equal structure fingerprints) — its probabilities may
        differ arbitrarily.  Cost: O(|params|); the next :meth:`forward`
        evaluates the new binding without recompilation.
        """
        if not TRACER.enabled:
            return self._rebind(pdoc)
        with TRACER.span("circuit.rebind", params=len(self.param_nodes)):
            return self._rebind(pdoc)

    def _rebind(self, pdoc: PDocument) -> "CompiledCircuit":
        if pdoc.root.structure_fingerprint() != self.structure_fp:
            raise ValueError(
                "cannot rebind: the p-document's structure differs from the "
                "one the circuit was compiled for (recompile instead)"
            )
        self.set_param_values([slot.value for slot in parameter_slots(pdoc)])
        self.rebinds += 1
        return self

    # -- convenience ----------------------------------------------------------
    def probabilities(self, backend: str | None = None) -> list:
        """[Pr(P ⊨ γ) for γ in formulas] at the current binding, in the
        requested numeric backend (``repro.numeric``; default exact)."""
        return self.forward(backend)

    def probability(self, backend: str | None = None):
        return self.forward(backend)[0]

    def sensitivities(self, output: int = 0) -> list[dict]:
        """∂Pr(P ⊨ γ_output)/∂θ for every parameter θ, most influential
        (largest |∂|) first.  One backward sweep computes them all."""
        derivatives = self.gradient(output)
        rows = [
            {
                "parameter": info.description,
                "field": info.field,
                "path": info.path,
                "index": info.index,
                "value": self.param_values[position],
                "derivative": derivative,
            }
            for position, (info, derivative) in enumerate(
                zip(self.param_info, derivatives)
            )
        ]
        rows.sort(key=lambda row: (-abs(row["derivative"]), row["path"], row["index"]))
        return rows

    def stats(self) -> dict[str, int]:
        stats = super().stats()
        stats["rebinds"] = self.rebinds
        return stats


def compile_formulas(
    pdoc: PDocument, formulas: Sequence[CFormula]
) -> CompiledCircuit:
    """Compile [Pr(P ⊨ γ) for γ in formulas] into one shared circuit,
    traced in one evaluator pass.

    MIN/MAX atoms are rewritten to CNT atoms on the way in (Theorem 7.1),
    exactly as :func:`repro.core.evaluator.probabilities` does; SUM/AVG
    are rejected by the registry (Proposition 7.2).
    """
    return compile_passes(pdoc, [formulas])


def compile_passes(
    pdoc: PDocument, passes: Sequence[Sequence[CFormula]]
) -> CompiledCircuit:
    """Compile several formula groups into one circuit: each group is
    traced in its own evaluator pass into one shared builder and parameter
    table, and the outputs follow in group order.

    A group's root signature distribution is the joint over that group's
    formulas only.  Hash-consing merges the gates the passes have in
    common: for events that bind different nodes of one query, every
    subtree off the bound nodes' spines traces the same gates in each pass.
    """
    from ..aggregates.minmax import rewrite

    builder = Builder()
    slots = parameter_slots(pdoc)
    param_ids: dict[tuple[int, str, int], int] = {}
    values: list[Fraction] = []
    for slot in slots:
        param_ids[(id(slot.node), slot.field, slot.index)] = builder.param()
        values.append(slot.value)
    outputs: list[int] = []
    formulas: list[CFormula] = []
    for group in passes:
        registry = Registry([rewrite(f) for f in group])
        outputs += CircuitTracer(registry, pdoc, builder, param_ids).trace()
        formulas += group
    info = [
        ParamInfo(slot.field, slot.path, slot.index, slot.describe())
        for slot in slots
    ]
    return CompiledCircuit(
        builder, outputs, values, info,
        pdoc.root.structure_fingerprint(), formulas,
    )


def compile_formula(pdoc: PDocument, formula: CFormula) -> CompiledCircuit:
    """Single-output convenience wrapper around :func:`compile_formulas`."""
    return compile_formulas(pdoc, [formula])
