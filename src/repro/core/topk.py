"""Exact top-k most probable worlds of a PXDB.

Ranking by probability is a staple of probabilistic data management (the
paper cites Re, Dalvi & Suciu's top-k work as context).  For a PXDB
D̃ = (P̃, C), the k most probable documents are the k most probable
*satisfying* worlds of P̃, rescaled by 1/Pr(P ⊨ C).

Two regimes:

* **Flat p-documents** (no distributional node has a distributional
  child): every assignment of the distributional edges yields a distinct
  document, so a best-first branch-and-bound over edge decisions is exact.
  A search node is a partially conditioned p-document (reusing the Norm
  subroutine, :meth:`PDocument.conditioned_on_edge`, so mux
  renormalization lives in one place); its priority is an admissible upper
  bound on the attainable world probability; branches whose conditioning
  makes Pr(P ⊨ C) = 0 are pruned with one evaluator call.  The first k
  fully decided nodes popped are exactly the top-k.
* **Stacked distributional nodes**: several assignments may generate the
  *same* document (the paper's footnote 3), so assignment-level search
  cannot rank documents without aggregation; :func:`top_k_worlds` then
  falls back to exact enumeration (with a size guard).
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from ..numeric import surely_zero
from ..pdoc.pdocument import IND, PDocument
from ..xmltree.document import Document
from .evaluator import probability
from .formulas import CFormula, DocumentEvaluator, TRUE
from .query_eval import check_denominator
from .sampler import deterministic_instance


def has_stacked_distributional_nodes(pdoc: PDocument) -> bool:
    """Whether some distributional node has a distributional child."""
    return any(
        child.is_distributional()
        for node in pdoc.distributional_nodes()
        for child in node.children
    )


def _bound_suffixes(pdoc: PDocument) -> list[Fraction]:
    """suffix[i] = an admissible bound on the mass the edges i.. can still
    multiply in.  Only an ind edge whose parent has *no distributional
    ancestor* contributes a factor below 1:

    * its probability never changes under conditioning of other edges, and
    * it can never be skipped as unreachable (skipped edges multiply by 1
      — bounding them below 1 is exactly the non-admissibility this
      replaces; the regression test pins it).

    Mux/exp edges bound at 1 too: their priors can *rise* when a sibling
    is conditioned away (renormalization).
    """
    edges = pdoc.dist_edges()
    factors: list[Fraction] = []
    for node, child_index in edges:
        skippable = any(
            ancestor.is_distributional()
            for ancestor in _proper_ancestors(node)
        )
        if node.kind == IND and not skippable:
            p = node.probs[child_index]
            factors.append(max(p, 1 - p))
        else:
            factors.append(Fraction(1))
    suffixes = [Fraction(1)] * (len(edges) + 1)
    for index in range(len(edges) - 1, -1, -1):
        suffixes[index] = factors[index] * suffixes[index + 1]
    return suffixes


def _proper_ancestors(node):
    current = node.parent
    while current is not None:
        yield current
        current = current.parent


def _is_reachable(pdoc: PDocument, node) -> bool:
    """Whether the top-down process can still reach ``node``: no ancestor
    distributional edge on its path has been forced to probability 0.
    (Edges are processed in preorder, so every ancestor edge of the edge
    being decided is either undecided-fractional or already 0/1.)"""
    current = node
    while current.parent is not None:
        parent = current.parent
        if parent.is_distributional():
            index = next(
                i for i, child in enumerate(parent.children) if child is current
            )
            if pdoc.edge_prob(parent, index) == 0:
                return False
        current = parent
    return True


def _top_k_flat(
    pdoc: PDocument,
    k: int,
    condition: CFormula,
    normalizer: Fraction,
    backend: str | None = None,
) -> list[tuple[Document, Fraction]]:
    total = len(pdoc.dist_edges())
    counter = itertools.count()  # tie-breaker so heap never compares p-docs
    suffixes = _bound_suffixes(pdoc)  # constant across the whole search

    # Heap entries: (-bound, tiebreak, decided mass, decided count, p-doc).
    heap = [(-suffixes[0], next(counter), Fraction(1), 0, pdoc)]
    results: list[tuple[Document, Fraction]] = []
    while heap and len(results) < k:
        neg_bound, _, mass, decided, current = heapq.heappop(heap)
        if decided == total:
            results.append((deterministic_instance(current), mass / normalizer))
            continue
        edge = current.dist_edges()[decided]
        node, child_index = edge
        prior = current.edge_prob(node, child_index)
        if prior in (0, 1) or not _is_reachable(current, node):
            # The decision is already forced, or moot (the edge sits inside
            # a subtree an ancestor decision removed): branching here would
            # split one document's mass across several search leaves.
            bound = mass * suffixes[decided + 1]
            heapq.heappush(heap, (-bound, next(counter), mass, decided + 1, current))
            continue
        for chosen in (True, False):
            weight = prior if chosen else 1 - prior
            conditioned = current.conditioned_on_edge(edge, chosen)
            # Prune on certain inconsistency: exact 0, an interval with
            # upper bound exactly 0, or (for auto) a sign the guard
            # certified or resolved exactly.  float64 is the unguarded
            # mode: a 0.0 here may be underflow and prunes anyway.
            if surely_zero(probability(conditioned, condition, backend=backend)):
                continue
            new_mass = mass * weight
            new_bound = new_mass * suffixes[decided + 1]
            heapq.heappush(
                heap, (-new_bound, next(counter), new_mass, decided + 1, conditioned)
            )
    return results


def _top_k_by_enumeration(
    pdoc: PDocument, k: int, condition: CFormula, normalizer: Fraction
) -> list[tuple[Document, Fraction]]:
    from ..pdoc.enumerate import world_distribution

    satisfying: list[tuple[Fraction, frozenset[int]]] = []
    for uids, p in world_distribution(pdoc).items():
        if p == 0:
            continue
        document = pdoc.document_from_uids(uids)
        if DocumentEvaluator().satisfies(document.root, condition):
            satisfying.append((p, uids))
    satisfying.sort(key=lambda item: (-item[0], sorted(item[1])))
    return [
        (pdoc.document_from_uids(uids), p / normalizer)
        for p, uids in satisfying[:k]
    ]


def top_k_worlds(
    pdoc: PDocument,
    k: int,
    condition: CFormula = TRUE,
    max_enumeration_edges: int = 20,
    backend: str | None = None,
) -> list[tuple[Document, Fraction]]:
    """The k most probable documents of the PXDB (P̃, condition), with
    their conditional probabilities Pr(D = d), in decreasing order.

    Flat p-documents use the exact branch-and-bound; p-documents with
    stacked distributional nodes fall back to enumeration and refuse
    inputs with more than ``max_enumeration_edges`` distributional edges.

    ``backend`` selects the arithmetic for the *pruning* probabilities
    (``repro.numeric``); the search itself — edge masses, bounds, heap
    order — is always exact ``Fraction`` arithmetic, so the ranking is
    backend-independent whenever pruning is sound (every backend except
    raw ``float64``, whose underflow may over-prune).
    """
    if k <= 0:
        return []
    normalizer = probability(pdoc, condition, backend=backend)
    check_denominator(normalizer, backend)
    if not has_stacked_distributional_nodes(pdoc):
        return _top_k_flat(pdoc, k, condition, normalizer, backend=backend)
    edges = len(pdoc.dist_edges())
    if edges > max_enumeration_edges:
        raise ValueError(
            f"stacked distributional nodes require enumeration, but the "
            f"p-document has {edges} > {max_enumeration_edges} edges"
        )
    return _top_k_by_enumeration(pdoc, k, condition, normalizer)
