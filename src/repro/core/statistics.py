"""Distributional statistics of selector counts over a PXDB.

The paper evaluates *threshold* comparisons of aggregates (Section 7.2);
this module derives richer statistics from the same machinery — the
natural follow-up the paper's conclusion points to (aggregate queries in
the style of Re & Suciu's HAVING work):

* :func:`membership_probabilities` — Pr(v ∈ σ(D)) for every candidate
  node v, via the node-binding device of Section 5;
* :func:`expected_count` — E[CNT(σ(D))] by linearity (a sum of membership
  probabilities; polynomial);
* :func:`count_variance` — Var[CNT(σ(D))] from pairwise joint
  memberships (quadratically many evaluator calls; still polynomial);
* :func:`count_distribution` — the full distribution of CNT(σ(D)), one
  evaluator call per attainable value;
* :func:`expected_sum` — E[SUM of numeric labels of σ(D)].  Notable:
  although *threshold* questions about SUM are NP-hard (Proposition 7.2),
  the expectation is polynomial — linearity sidesteps the Subset-Sum
  structure entirely.

All results are conditional on the PXDB's constraints when a condition is
supplied, and exact (Fractions).
"""

from __future__ import annotations

from fractions import Fraction

from ..pdoc.pdocument import PDocument
from ..xmltree.predicates import is_numeric_label, numeric_value
from .evaluator import probability
from .formulas import CFormula, CountAtom, SFormula, TRUE, conjunction
from .query import Query
from .query_eval import bound_formula, check_denominator, conditional_probabilities


def _bound_event(sformula: SFormula, uid: int) -> CFormula:
    """The event 'the node with this uid is selected by σ' — the selector
    as a one-node query, bound to the uid (Section 5's label trick)."""
    query = Query(sformula.pattern, [sformula.projected], sformula.alpha)
    return bound_formula(query, (uid,))


def candidate_uids(sformula: SFormula, pdoc: PDocument) -> list[int]:
    """Uids of every node that could possibly be selected (skeleton pass)."""
    from ..xmltree.matching import selected_set

    skeleton = pdoc.skeleton()
    selected = selected_set(sformula.pattern, sformula.projected, skeleton.root)
    return sorted(node.uid for node in selected)


def membership_probabilities(
    sformula: SFormula, pdoc: PDocument, condition: CFormula = TRUE
) -> dict[int, Fraction]:
    """{uid: Pr(v ∈ σ(D))} over the PXDB (P̃, condition).

    All per-node events are evaluated *jointly* with the condition in a
    single DP pass (one registry compilation, one bottom-up traversal),
    instead of one evaluator run per candidate node — the same batching
    :func:`count_distribution` uses.
    """
    uids = candidate_uids(sformula, pdoc)
    values, _ = conditional_probabilities(
        pdoc, condition, [_bound_event(sformula, uid) for uid in uids]
    )
    return dict(zip(uids, values))


def expected_count(
    sformula: SFormula, pdoc: PDocument, condition: CFormula = TRUE
) -> Fraction:
    """E[CNT(σ(D))] = Σ_v Pr(v ∈ σ(D)) — linearity of expectation."""
    return sum(
        membership_probabilities(sformula, pdoc, condition).values(), Fraction(0)
    )


def count_variance(
    sformula: SFormula, pdoc: PDocument, condition: CFormula = TRUE
) -> Fraction:
    """Var[CNT(σ(D))] from pairwise joint membership probabilities.

    E[X²] = Σ_u Σ_v Pr(u ∈ σ ∧ v ∈ σ); the diagonal terms are the
    marginals, the off-diagonal ones need one evaluator call per unordered
    pair — O(n²) calls, each polynomial.
    """
    uids = candidate_uids(sformula, pdoc)
    denominator = probability(pdoc, condition)
    check_denominator(denominator)
    marginals = membership_probabilities(sformula, pdoc, condition)
    mean = sum(marginals.values(), Fraction(0))
    second_moment = sum(marginals.values(), Fraction(0))  # diagonal: Pr(u ∈ σ)
    for i, u in enumerate(uids):
        for v in uids[i + 1 :]:
            pair = conjunction([_bound_event(sformula, u), _bound_event(sformula, v)])
            (joint,), _ = conditional_probabilities(
                pdoc, condition, [pair], denominator=denominator
            )
            second_moment += 2 * joint
    return second_moment - mean * mean


def count_distribution(
    sformula: SFormula, pdoc: PDocument, condition: CFormula = TRUE
) -> dict[int, Fraction]:
    """The exact distribution {k: Pr(CNT(σ(D)) = k)}.

    One joint evaluator pass per attainable k (0 … #candidates), each with
    the atom CNT(σ) = k conjoined to the condition.
    """
    upper = len(candidate_uids(sformula, pdoc))
    values, _ = conditional_probabilities(
        pdoc, condition, [CountAtom([sformula], "=", k) for k in range(upper + 1)]
    )
    return {k: value for k, value in enumerate(values) if value > 0}


def expected_sum(
    sformula: SFormula, pdoc: PDocument, condition: CFormula = TRUE
) -> Fraction:
    """E[Σ numeric labels of σ(D)] — polynomial despite Proposition 7.2:
    linearity of expectation needs only per-node membership marginals,
    never the (NP-hard) distribution of the sum itself."""
    marginals = membership_probabilities(sformula, pdoc, condition)
    total = Fraction(0)
    for uid, prob in marginals.items():
        label = pdoc.node_by_uid(uid).label
        if is_numeric_label(label):
            total += numeric_value(label) * prob
    return total
