"""Query evaluation over PXDBs — the problem EVAL⟨Q, C⟩ (Section 4).

The result of a query Q over the PXDB D̃ = (P̃, C) maps every possible
answer tuple t to Pr(t ∈ Q(D)).  Following Section 5, the non-Boolean case
reduces to Boolean queries by "extending the notion of labels": for each
candidate tuple t, the pattern's projected nodes are *bound* to t's
document nodes (the :class:`~repro.xmltree.predicates.NodeIs` predicate),
which yields a Boolean pattern T_t, and then

    Pr(t ∈ Q(D)) = Pr(P ⊨ C ∧ T_t) / Pr(P ⊨ C).

Candidate tuples are harvested from the p-document's *skeleton* (the
document retaining every ordinary node): every match in every world is a
match in the skeleton, because a retained node keeps its lowest ordinary
ancestor as parent in all worlds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ..numeric import maybe_positive, surely_zero
from ..obs.spans import TRACER
from ..pdoc.pdocument import PDocument
from ..xmltree.matching import enumerate_matches
from ..xmltree.pattern import Pattern, PatternNode
from ..xmltree.predicates import NodeIs, PredAnd
from .evaluator import probabilities
from .formulas import CFormula, TRUE, conjunction, exists
from .query import Query

AnswerTable = dict[tuple[int, ...], Fraction]


def bound_formula(query: Query, tuple_uids: tuple[int, ...]) -> CFormula:
    """The Boolean c-formula T_t: the query's pattern with each projected
    node pinned to the corresponding document node of the candidate tuple."""
    mapping: dict[int, PatternNode] = {}

    def clone(node: PatternNode) -> PatternNode:
        copy = PatternNode(node.predicate, node.axis, node.name)
        mapping[id(node)] = copy
        for child in node.children:
            copy.add_child(clone(child))
        return copy

    new_root = clone(query.pattern.root)
    for position, node in enumerate(query.projection):
        bound = mapping[id(node)]
        bound.predicate = PredAnd((bound.predicate, NodeIs(tuple_uids[position])))
    new_alpha = {
        id(mapping[old_id]): formula
        for old_id, formula in query.alpha.items()
        if old_id in mapping
    }
    return exists(Pattern(new_root), new_alpha)


def candidate_tuples(query: Query, pdoc: PDocument) -> list[tuple[int, ...]]:
    """All tuples (as uid vectors) that any world could possibly return,
    read off the skeleton document.  α attachments are deliberately
    ignored here — they may hold in some world even if not in the
    skeleton — so this is a sound over-approximation."""
    if not TRACER.enabled:
        return _candidate_tuples(query, pdoc)[0]
    with TRACER.span("query.match") as span:
        ordered, matches = _candidate_tuples(query, pdoc)
        span.set(candidates=len(ordered), matches=matches)
    return ordered


def _candidate_tuples(
    query: Query, pdoc: PDocument
) -> tuple[list[tuple[int, ...]], int]:
    skeleton = pdoc.skeleton()
    seen: set[tuple[int, ...]] = set()
    ordered: list[tuple[int, ...]] = []
    matches = 0
    for match in enumerate_matches(query.pattern, skeleton.root):
        matches += 1
        answer = tuple(match[id(node)].uid for node in query.projection)
        if answer not in seen:
            seen.add(answer)
            ordered.append(answer)
    return ordered, matches


def check_denominator(denominator, backend: str | None = None) -> None:
    """Refuse to normalize by a zero Pr(P ⊨ C).

    ``surely_zero`` is proof of inconsistency in every guaranteed backend
    (exact zero, or an interval whose upper bound is exactly 0); a plain
    float64 zero is ambiguous — it may be the underflow of a tiny positive
    rational — and gets its own error instead of a false "inconsistent".
    """
    if backend == "float64":
        if denominator == 0.0:
            raise ValueError(
                "float64 evaluation of Pr(P |= C) underflowed to 0 "
                "(underflow is not proof of impossibility); use "
                "backend='auto' or 'exact'"
            )
        return
    if surely_zero(denominator):
        raise ValueError("the p-document is not consistent with the constraints")


def conditional_probabilities(
    pdoc: PDocument,
    condition: CFormula,
    events: Sequence[CFormula],
    backend: str | None = None,
    denominator=None,
) -> tuple[list, object]:
    """Corollary 5.4: [Pr(P ⊨ C ∧ γ) / Pr(P ⊨ C) for γ in events].

    Every event is conjoined with C and evaluated in a DP pass of its own,
    one Boolean c-formula per pass as the corollary reduces it.  Packing
    the events into one pass would make the root signature distribution
    the *joint* over all of them, exponential in their number.  The
    denominator Pr(P ⊨ C) rides in the first event's pass unless the
    caller passes a cached ``denominator`` (with no events it takes a pass
    of its own; with a cached one and no events, no pass runs).  It goes
    through :func:`check_denominator` before any further pass.  Returns
    ``(conditionals, denominator)``, so a caller can cache a denominator
    computed here.
    """
    joints = [conjunction([condition, event]) for event in events]
    values = []
    if denominator is None:
        *values, denominator = probabilities(
            pdoc, joints[:1] + [condition], backend=backend
        )
        joints = joints[1:]
    check_denominator(denominator, backend)
    for joint in joints:
        values += probabilities(pdoc, [joint], backend=backend)
    return [value / denominator for value in values], denominator


def evaluate_query(
    query: Query,
    pdoc: PDocument,
    condition: CFormula = TRUE,
    keep_zero: bool = False,
    backend: str | None = None,
) -> AnswerTable:
    """EVAL⟨Q, C⟩: {tuple of uids → Pr(t ∈ Q(D))} over the PXDB (P̃, C).

    ``condition`` is the constraint set as a single c-formula (see
    ``repro.core.constraints.constraints_formula``); TRUE evaluates over
    the unconstrained p-document.  Tuples with probability 0 are dropped
    unless ``keep_zero`` is set.

    Raises ``ValueError`` when Pr(P ⊨ C) = 0 (the PXDB is not well-defined).

    Each candidate tuple's event takes one DP pass of
    :func:`conditional_probabilities`, with the condition riding in the
    first, so the cost is #candidates × one Boolean evaluation.

    ``backend`` selects the arithmetic (``repro.numeric``).  The keep/drop
    decision is *sound* in every guaranteed backend: a tuple is dropped
    only when its probability cannot be positive (``maybe_positive``), so
    an interval evaluation never drops a tuple the exact evaluation would
    keep, and ``auto`` keeps exactly the tuples ``exact`` keeps (the
    evaluator certifies every output's sign).
    """
    answers = candidate_tuples(query, pdoc)
    values, _ = conditional_probabilities(
        pdoc,
        condition,
        [bound_formula(query, answer) for answer in answers],
        backend=backend,
    )
    return {
        answer: value
        for answer, value in zip(answers, values)
        if keep_zero or maybe_positive(value)
    }


def boolean_query_probability(
    pattern: Pattern,
    pdoc: PDocument,
    condition: CFormula = TRUE,
    alpha: Mapping[int, CFormula] | None = None,
    backend: str | None = None,
) -> Fraction:
    """Pr(D ⊨ T′) for a Boolean query over the PXDB (P̃, C) (Section 5):
    Pr(P ⊨ C ∧ T′) / Pr(P ⊨ C), both computed in one DP pass."""
    (value,), _ = conditional_probabilities(
        pdoc, condition, [exists(pattern, alpha)], backend=backend
    )
    return value


def decode_answers(table: AnswerTable, pdoc: PDocument) -> dict[tuple, Fraction]:
    """Human-readable view of an answer table: uid tuples become label tuples.

    Distinct nodes may share labels; colliding label tuples keep the
    highest probability (this is a presentation helper, not semantics).
    """
    decoded: dict[tuple, Fraction] = {}
    for answer, value in table.items():
        labels = tuple(pdoc.node_by_uid(uid).label for uid in answer)
        if labels not in decoded or decoded[labels] < value:
            decoded[labels] = value
    return decoded
