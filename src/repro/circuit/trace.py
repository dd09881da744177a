"""Compiling the c-formula DP into an arithmetic circuit.

:class:`CircuitTracer` subclasses the Theorem 5.3 evaluator
(:class:`repro.core.evaluator.Evaluation`) and replaces only its
*arithmetic*: signature-distribution values become circuit node ids, the
``Fraction`` multiplications/additions of ``convolve``/``mix`` become
``MUL``/``ADD`` gates, and every probability the p-document contributes
(ind/mux edge probabilities, exp subset weights) becomes a ``PARAM``
node.  All discrete machinery — the signature monoid, the spine automata,
``consume`` and the per-node formula analysis — is *inherited unchanged*,
which is what makes the forward pass provably identical to the evaluator:
the same signatures flow through the same combinators; only the scalar
semiring differs.

Two deliberate deviations from the concrete evaluator:

* **no zero-weight pruning** — the evaluator's ``mix`` skips branches
  whose current probability is 0; the tracer keeps every structurally
  present branch, so the compiled circuit stays correct for *any* later
  parameter binding (including re-binding a 0 to a positive value);
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
from ..obs.spans import TRACER
from ..pdoc.parameters import EDGE, SUBSET, parameter_slots
from ..pdoc.pdocument import EXP, IND, MUX, ORD, PDocument, PNode
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


class CircuitTracer(Evaluation):
    """One evaluator run with circuit-node arithmetic.

    Signature distributions map signatures to circuit node ids instead of
    ``Fraction``s; the inherited traversal (``forest_dist``) and the
    inherited discrete analysis (``consume``/``_local_analysis``) are
    reused as-is.  The per-document memo keyed by ``id(node)`` is the only
    cache in play (``use_cache=False``): structural sharing would merge
    distinct parameters.
    """

    def __init__(
        self,
        registry: Registry,
        pdoc: PDocument,
        builder: Builder,
        param_ids: dict[tuple[int, str, int], int],
    ):
        super().__init__(registry, pdoc, use_cache=False)
        self.builder = builder
        self.param_ids = param_ids

    # -- semiring swap --------------------------------------------------------
    def convolve(self, left: SigDist, right: SigDist) -> SigDist:
        builder = self.builder
        terms: dict = {}
        for sig1, v1 in left.items():
            for sig2, v2 in right.items():
                key = self.combine(sig1, sig2)
                terms.setdefault(key, []).append(builder.mul((v1, v2)))
        return {sig: builder.add(parts) for sig, parts in terms.items()}

    def mix(self, parts) -> SigDist:
        builder = self.builder
        terms: dict = {}
        for weight, dist in parts:
            for sig, v in dist.items():
                terms.setdefault(sig, []).append(builder.mul((weight, v)))
        return {sig: builder.add(ts) for sig, ts in terms.items()}

    def _unit(self) -> SigDist:
        return {self.empty: self.builder.one}

    def children_dist(self, node: PNode) -> SigDist:
        dist = self._unit()
        for child in node.children:
            dist = self.convolve(dist, self.forest_dist(child))
        return dist

    def _combine_children(self, node: PNode, memo: dict) -> SigDist:
        dist = self._unit()
        for child in node.children:
            dist = self.convolve(dist, memo[id(child)])
        return dist

    def _forest_dist_local(self, node: PNode, memo: dict) -> SigDist:
        builder = self.builder
        if node.kind == ORD:
            dist = self._combine_children(node, memo)
            out: dict = {}
            for forest_sig, value in dist.items():
                sig = self.consume(node, forest_sig)
                out.setdefault(sig, []).append(value)
            return {sig: builder.add(parts) for sig, parts in out.items()}
        if node.kind == IND:
            dist = self._unit()
            for index, child in enumerate(node.children):
                p = self.param_ids[(id(node), EDGE, index)]
                child_dist = self.mix(
                    [(p, memo[id(child)]), (builder.one_minus(p), self._unit())]
                )
                dist = self.convolve(dist, child_dist)
            return dist
        if node.kind == MUX:
            total = builder.add(
                [
                    self.param_ids[(id(node), EDGE, index)]
                    for index in range(len(node.children))
                ]
            )
            parts = [(builder.one_minus(total), self._unit())]
            parts += [
                (self.param_ids[(id(node), EDGE, index)], memo[id(child)])
                for index, child in enumerate(node.children)
            ]
            return self.mix(parts)
        if node.kind == EXP:
            parts = []
            for position, (subset, _) in enumerate(node.subsets):
                weight = self.param_ids[(id(node), SUBSET, position)]
                dist = self._unit()
                for index in sorted(subset):
                    dist = self.convolve(dist, memo[id(node.children[index])])
                parts.append((weight, dist))
            return self.mix(parts)
        raise AssertionError(f"unknown node kind {node.kind}")

    # -- the root -------------------------------------------------------------
    def trace(self) -> list[int]:
        """Output node ids, one per top formula of the registry."""
        root = self.pdoc.root
        dist = self.children_dist(root)
        terms: list[list[int]] = [[] for _ in self.registry.top]
        for forest_sig, value in dist.items():
            truths, _ = self._local_analysis(root, forest_sig)
            for index, formula in enumerate(self.registry.top):
                if truths[id(formula)]:
                    terms[index].append(value)
        return [self.builder.add(parts) for parts in terms]


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
