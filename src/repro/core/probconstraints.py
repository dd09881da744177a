"""Probabilistic constraints (Section 7.4): SNC and WNC semantics.

A probabilistic constraint is a pair (C, p_C): the constraint C should hold
with likelihood p_C.  The paper gives two semantics, each defined by a
reduction to mixtures of PXDBs with deterministic constraints; constraint
choices are made independently across the set:

* **SNC** (strict negated compliance) — with probability p_C the document
  must satisfy C, and with probability 1 − p_C it must satisfy ¬C.  The
  mixture component for a subset S of imposed constraints conditions on
  (∧_{C∈S} C) ∧ (∧_{C∉S} ¬C).  SNC can be *ill-defined*: if some subset
  with positive weight yields an unsatisfiable conjunction, there is a
  nonzero probability that no document qualifies.  The paper's example:
  "a full professor has ≥ 1 Ph.D. student" w.p. 0.7 and "≤ 15 Ph.D.
  students" w.p. 0.9 — with probability 0.03 both *negations* are imposed,
  which is unsatisfiable.
* **WNC** (weak negated compliance) — with probability p_C the constraint
  is imposed, otherwise it is simply disregarded.  The component for S
  conditions on ∧_{C∈S} C only.  WNC is well-defined whenever the
  conjunction of all constraints is satisfiable.

Both semantics support the three computational problems: constraint
satisfaction is a weighted sum over the (constantly many) components,
query evaluation mixes the components' conditional probabilities, and
sampling first draws a component and then runs Figure 3's algorithm with
that component's (possibly negated) deterministic constraints.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from ..numeric import exact_bernoulli
from ..pdoc.pdocument import PDocument
from ..xmltree.document import Document
from .constraints import Constraint
from .evaluator import probabilities, probability
from .formulas import CFormula, conjunction, negation
from .sampler import sample

SNC = "snc"
WNC = "wnc"


class ProbabilisticConstraint:
    """A constraint C together with its likelihood p_C ∈ [0, 1]."""

    __slots__ = ("constraint", "prob", "name")

    def __init__(self, constraint: Constraint | CFormula, prob, name: str | None = None):
        self.constraint = constraint
        self.prob = Fraction(prob)
        if not 0 <= self.prob <= 1:
            raise ValueError(f"constraint probability {self.prob} outside [0, 1]")
        self.name = name or getattr(constraint, "name", None)

    def formula(self) -> CFormula:
        if isinstance(self.constraint, Constraint):
            return self.constraint.to_cformula()
        return self.constraint

    def __repr__(self) -> str:
        tag = f"{self.name}: " if self.name else ""
        return f"⟨{tag}p={self.prob}⟩"


Component = tuple[Fraction, CFormula]  # (mixture weight, imposed condition)


class ProbabilisticPXDB:
    """A p-document plus probabilistic constraints under SNC or WNC.

    The probability space is the mixture over constraint subsets S:
    weight(S) = ∏_{C∈S} p_C · ∏_{C∉S} (1 − p_C), with each component the
    PXDB conditioned on the subset's condition (S's constraints, plus —
    under SNC — the negations of the others).
    """

    __slots__ = ("pdoc", "pconstraints", "semantics", "_components")

    def __init__(
        self,
        pdoc: PDocument,
        pconstraints: Iterable[ProbabilisticConstraint],
        semantics: str = WNC,
    ):
        if semantics not in (SNC, WNC):
            raise ValueError(f"semantics must be '{SNC}' or '{WNC}'")
        self.pdoc = pdoc
        self.pconstraints = tuple(pconstraints)
        self.semantics = semantics
        self._components: list[Component] | None = None

    def components(self) -> list[Component]:
        """The mixture: (weight, condition) per constraint subset with
        nonzero weight.  2^k components for k constraints — the constraint
        set is fixed, so this is a constant (Section 4's complexity model)."""
        if self._components is not None:
            return self._components
        formulas = [pc.formula() for pc in self.pconstraints]
        components: list[Component] = []
        for chosen in itertools.product((True, False), repeat=len(formulas)):
            weight = Fraction(1)
            parts: list[CFormula] = []
            for pc, formula, imposed in zip(self.pconstraints, formulas, chosen):
                weight *= pc.prob if imposed else 1 - pc.prob
                if imposed:
                    parts.append(formula)
                elif self.semantics == SNC:
                    parts.append(negation(formula))
            if weight > 0:
                components.append((weight, conjunction(parts)))
        self._components = components
        return components

    def is_well_defined(self) -> bool:
        """SNC: every positive-weight component must be satisfiable.
        WNC: satisfiability of the full conjunction suffices (and is also
        necessary for the all-imposed component when every p_C > 0)."""
        if self.semantics == WNC:
            all_constraints = conjunction([pc.formula() for pc in self.pconstraints])
            return probability(self.pdoc, all_constraints) > 0
        conditions = [condition for _, condition in self.components()]
        values = probabilities(self.pdoc, conditions)
        return all(value > 0 for value in values)

    def event_probability(self, event: CFormula) -> Fraction:
        """Pr(D ⊨ γ) = Σ_S weight(S) · Pr(P ⊨ γ | condition_S).

        Raises ``ValueError`` when the space is ill-defined.
        """
        components = self.components()
        queries: list[CFormula] = []
        for _, condition in components:
            queries.append(conjunction([condition, event]))
            queries.append(condition)
        values = probabilities(self.pdoc, queries)
        total = Fraction(0)
        for index, (weight, _) in enumerate(components):
            joint = values[2 * index]
            denominator = values[2 * index + 1]
            if denominator == 0:
                raise ValueError(
                    "ill-defined probabilistic PXDB: a positive-weight "
                    "component has an unsatisfiable condition"
                )
            total += weight * joint / denominator
        return total

    def sample(self, rng: random.Random | None = None) -> Document:
        """Draw a document: pick a component by its weight, then run the
        Figure 3 sampler conditioned on that component's condition."""
        rng = rng if rng is not None else random.Random()
        components = self.components()
        roll = _rational_roll(rng, [w for w, _ in components])
        _, condition = components[roll]
        return sample(self.pdoc, condition, rng)

    def __repr__(self) -> str:
        return (
            f"ProbabilisticPXDB({self.pdoc!r}, k={len(self.pconstraints)}, "
            f"semantics={self.semantics})"
        )


def _rational_roll(rng: random.Random, weights: Sequence[Fraction]) -> int:
    """Pick an index with exact rational probabilities (weights sum to 1)."""
    remaining = Fraction(1)
    for index, weight in enumerate(weights[:-1]):
        if remaining == 0:
            return index
        if exact_bernoulli(weight / remaining, rng):
            return index
        remaining -= weight
    return len(weights) - 1
