"""Sampling PXDBs — the algorithm Sample⟨C⟩(P̃) of Figure 3 (Section 6).

Drawing a random document *conditioned on the constraints* is nontrivial:
naive generation followed by rejection runs forever when Pr(P ⊨ C) is
small, and the constraints induce dependencies across the whole tree.  The
paper's algorithm processes the distributional edges (v1,w1)…(vm,wm) one
at a time; for edge i it computes the *posterior* probability of choosing
the edge given that the final sample satisfies C —

    p_i = P̃_{i-1}(v_i, w_i) · Pr(P_i ⊨ C) / q_{i-1}        (Bayes),

tosses an exact Bernoulli coin, and *conditions* the p-document on the
outcome (the Norm subroutine:
:meth:`~repro.pdoc.pdocument.PDocument.conditioned_on_edge`).  After all m
edges every edge probability is 0 or 1, so the remaining p-document is a
single document, which is returned.  Theorem 6.2: each document d is
produced with probability exactly Pr(D = d).

Each iteration costs one run of the polynomial evaluator, so the whole
sampler is polynomial (Theorem 6.1).  Lines 5–9 of Figure 3 — skipping
edges whose current probability is already 0 or 1 — are implemented
verbatim; as the paper notes, this is needed for correctness, not just
speed (conditioning on a sure/impossible edge is undefined).

The loop is driven by an :class:`~repro.core.evaluator.IncrementalEngine`:
the constraint formula is compiled once, the sampler works on a private
copy of the p-document that it conditions *in place* (Figure 3 only ever
moves forward), and after each conditioning only the root-to-edge spine
has a stale fingerprint — every other subtree's signature distribution is
a warm cache hit, so iteration i costs O(spine) evaluator work instead of
a full pass.  The Bayes step evaluates the tentatively-chosen document;
when the coin rejects, the snapshot is restored, the complement is applied
in place, and q is updated algebraically — no second evaluation, and the
spine distributions cached for the chosen variant stay available for later
iterations that revisit the same local distributions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..numeric import GUARD, INTERVAL, Interval, exact_bernoulli, guarded_bernoulli
from ..numeric.backends import _idiv, _imul, _isub
from ..obs.spans import TRACER
from ..pdoc.pdocument import EXP, IND, MUX, ORD, PDocument, PNode
from ..xmltree.document import DocNode, Document
from .evaluator import IncrementalEngine
from .formulas import CFormula, TRUE
from .query_eval import check_denominator

#: Backends SAMPLE⟨C⟩ accepts.  ``interval`` alone is rejected: a branch
#: coin needs a decision every iteration, which bounds cannot always give;
#: ``auto`` is the sound way to sample on interval arithmetic.
SAMPLER_BACKENDS = ("exact", "float64", "auto")


def sample(
    pdoc: PDocument,
    condition: CFormula = TRUE,
    rng: random.Random | None = None,
    *,
    engine: IncrementalEngine | None = None,
    incremental: bool = True,
    backend: str | None = None,
    fallback_engine: IncrementalEngine | None = None,
) -> Document:
    """Draw one document of the PXDB (P̃, C) with probability Pr(D = d).

    ``condition`` is the constraint set as a single c-formula; TRUE yields
    unconditioned sampling (in that case every posterior equals the prior
    and the algorithm degenerates to the two-step process of Section 3.1).

    ``engine`` — an :class:`~repro.core.evaluator.IncrementalEngine`
    compiled for ``condition``; pass one to share the compiled registry
    and the signature-distribution cache across samples (and to read the
    hit/miss/evaluation counters afterwards).  By default a fresh engine
    is created per call.  ``incremental=False`` clears the engine cache
    before every evaluation — the from-scratch reference mode used by the
    benchmarks and the differential tests.

    ``backend`` selects the arithmetic of the conditioned evaluator passes
    (``repro.numeric``): ``exact`` (default), ``float64`` (fast,
    unguarded — branch decisions may drift near ties), or ``auto``
    (interval evaluation; every coin whose posterior enclosure cannot
    certify the branch falls back to exact posteriors computed on
    ``fallback_engine``, so the draw sequence is identical to ``exact``
    under the same seed).  An ``engine`` passed explicitly must be bound
    to the evaluation backend (``interval`` when ``backend="auto"``).

    Raises ``ValueError`` when Pr(P ⊨ C) = 0.
    """
    backend = backend or "exact"
    if backend not in SAMPLER_BACKENDS:
        raise ValueError(
            f"sampling supports backends {SAMPLER_BACKENDS}, not {backend!r}"
        )
    eval_backend = "interval" if backend == "auto" else backend
    rng = rng if rng is not None else random.Random()
    if engine is None:
        engine = IncrementalEngine.for_formula(condition, backend=eval_backend)
    elif engine.backend.name != eval_backend:
        raise ValueError(
            f"the engine is bound to the {engine.backend.name!r} backend; "
            f"backend={backend!r} sampling needs {eval_backend!r}"
        )
    if backend == "auto":
        if fallback_engine is None:
            fallback_engine = IncrementalEngine.for_formula(condition)
        elif fallback_engine.backend.name != "exact":
            raise ValueError("the fallback engine must be exact")
    else:
        fallback_engine = None
    if not TRACER.enabled:
        return _draw(pdoc, rng, engine, incremental, fallback_engine)[0]
    runs_before = engine.runs
    nodes_before = engine.nodes_computed
    fallbacks_before = GUARD.fallbacks
    with TRACER.span("sample.draw", incremental=incremental, backend=backend) as span:
        document, edges, conditioned = _draw(
            pdoc, rng, engine, incremental, fallback_engine
        )
        span.set(
            edges=edges,
            conditioned=conditioned,
            evaluations=engine.runs - runs_before,
            nodes_computed=engine.nodes_computed - nodes_before,
            numeric_fallbacks=GUARD.fallbacks - fallbacks_before,
        )
    return document


def _draw(
    pdoc: PDocument,
    rng: random.Random,
    engine: IncrementalEngine,
    incremental: bool,
    fallback_engine: IncrementalEngine | None,
) -> tuple[Document, int, int]:
    """The Figure 3 loop; returns (document, #dist edges, #edges conditioned).

    The loop is the same for every arithmetic.  The four steps whose
    arithmetic differs — q_0 with its zero test, the q = 1 test, the Bayes
    coin and the update of q after a rejected coin — are methods of
    :class:`_PointSteps` (exact, float64) or :class:`_GuardedSteps` (auto).
    """
    if fallback_engine is None:
        steps = _PointSteps(engine, incremental)
    else:
        steps = _GuardedSteps(engine, incremental, fallback_engine)
    # A private copy: the loop conditions it in place (the caller's
    # p-document is never touched), so the distributional-edge list is
    # enumerated once and stays valid — the node objects are stable for
    # the whole run, no per-iteration re-enumeration or index remapping.
    current = pdoc.clone()
    steps.start(current)  # q_0 ← Pr(P_0 ⊨ C)
    edges = 0
    conditioned = 0
    for edge in current.dist_edges():
        node, index = edge
        edges += 1
        prior = current.edge_prob(node, index)  # q̂_i, always an exact Fraction
        if prior == 0 or prior == 1:
            continue  # lines 5–9: the choice is already determined
        conditioned += 1
        if steps.certain(current):
            # Every world of the current conditioned document satisfies C,
            # and conditioning an edge only restricts the world set — so
            # q′ = 1, the posterior equals the prior, and no evaluation is
            # needed.  Same coin on the same value: the draw sequence is
            # unchanged, only the evaluator calls disappear (a large win
            # once a monotone constraint is already met by kept edges).
            current.condition_edge_in_place(edge, exact_bernoulli(prior, rng))
            continue
        snapshot = current.edge_snapshot(edge)
        current.condition_edge_in_place(edge, True)  # Norm(P, v→w)
        q_chosen = steps.evaluate(current)  # q′
        if not steps.coin(prior, q_chosen, rng, current, edge, snapshot):
            current.restore_edge(edge, snapshot)
            current.condition_edge_in_place(edge, False)  # Norm(P, v↛w)
            steps.rejected(prior, q_chosen, current)
    return deterministic_instance(current), edges, conditioned


class _PointSteps:
    """The arithmetic of the loop when q is one value of the engine's
    backend: exact ``Fraction``s, or float64 — fast and unguarded, since a
    posterior rounded across a cell boundary can flip a branch vs exact.
    ``q`` is Pr(P_i ⊨ C) of the current conditioning state."""

    def __init__(self, engine: IncrementalEngine, incremental: bool):
        self.engine = engine
        self.incremental = incremental
        self.backend = engine.backend
        self.q = None

    def evaluate(self, target: PDocument):
        if not self.incremental:
            self.engine.clear()
        return self.engine.probability(target)

    def start(self, current: PDocument) -> None:
        self.q = self.evaluate(current)
        check_denominator(self.q, self.backend.name)

    def certain(self, current: PDocument) -> bool:
        return self.q == self.backend.one

    def coin(self, prior, q_chosen, rng, current, edge, snapshot) -> bool:
        """Toss p_i = q̂_i · q′ / q (Bayes' theorem); heads moves q to q′.
        A float64 posterior may round out of [0, 1], hence the clamp."""
        backend = self.backend
        posterior = backend.lift(prior) * q_chosen / self.q
        posterior = min(max(posterior, backend.zero), backend.one)
        if exact_bernoulli(Fraction(posterior), rng):
            self.q = q_chosen
            return True
        return False

    def rejected(self, prior, q_chosen, current: PDocument) -> None:
        """q after tails, algebraically.  Exact arithmetic never cancels;
        a float64 update that lost ~9 digits to the subtraction is replaced
        by a re-evaluation of the document."""
        p = self.backend.lift(prior)
        q = (self.q - q_chosen * p) / (self.backend.one - p)
        if not (self.backend.exact or q > 1e-9 * self.q):
            q = self.evaluate(current)
            check_denominator(q, self.backend.name)
        self.q = q


class _GuardedSteps(_PointSteps):
    """The arithmetic of the loop for ``auto``: interval q and posteriors,
    exact only where the enclosures cannot decide.

    Invariant kept per iteration: ``q`` encloses (and ``exact.q``, when not
    None, *is*) Pr(P_i ⊨ C) for the current conditioning state.  A coin
    fallback evaluates the exact q and q′ on the warm fallback engine and
    re-runs the identical coin protocol on the exact posterior, so draws
    match the exact backend bit-for-bit.
    """

    def __init__(self, engine, incremental, fallback_engine):
        super().__init__(engine, incremental)
        self.exact = _PointSteps(fallback_engine, incremental)
        self.last_uncertified = None
        self.resolved = None  # exact q′ of the last coin, when it fell back

    def start(self, current: PDocument) -> None:
        q = self.evaluate(current)
        if q[0] <= 0.0 < q[1]:
            # The enclosure cannot tell q_0 from 0: settle it exactly.
            GUARD.fell_back()
            self.exact.start(current)
            q = INTERVAL.lift(self.exact.q)
        else:
            check_denominator(Interval(*q))
            GUARD.decided()
        self.q = q

    def certain(self, current: PDocument) -> bool:
        """q = 1 is proven by the enclosure's lower bound or by an exact
        evaluation; the loop then flips the same exact coin the exact
        backend would — bit-identical draws, zero evaluator runs."""
        q = self.q
        if self.exact.q is None and q is not self.last_uncertified and (
            q[1] >= 1.0 and q[0] > 1.0 - 1e-9
        ):
            # The enclosure brushes 1 but outward rounding keeps the lower
            # bound a few ulps short, so it can never *prove* q = 1.  One
            # exact evaluation on the warm fallback engine settles it; on
            # success every remaining edge short-circuits.  A failed
            # attempt is remembered (by enclosure identity) so a q that
            # truly hovers below 1 costs at most one extra evaluation per
            # conditioning state, not one per edge.
            certified = self.exact.evaluate(current)
            if certified == 1:
                self.exact.q = certified
                self.q = INTERVAL.lift(certified)
            else:
                self.last_uncertified = q
        return self.exact.q == 1 or self.q[0] >= 1.0

    def coin(self, prior, q_chosen, rng, current, edge, snapshot) -> bool:
        lift = INTERVAL.lift
        plo, phi = _idiv(_imul(lift(prior), q_chosen), self.q)
        exact = self.exact
        self.resolved = None

        def resolve():
            # Exact q of the *pre-conditioning* state: roll the edge back,
            # evaluate, re-apply — the warm exact engine pays spine-only.
            if exact.q is None:
                current.restore_edge(edge, snapshot)
                exact.q = exact.evaluate(current)
                current.condition_edge_in_place(edge, True)
            self.resolved = exact.evaluate(current)
            return prior * self.resolved / exact.q

        if not guarded_bernoulli(plo, min(phi, 1.0), resolve, rng):
            return False
        if self.resolved is None:
            exact.q = None
            self.q = q_chosen
        else:
            exact.q = self.resolved
            self.q = lift(self.resolved)
        return True

    def rejected(self, prior, q_chosen, current: PDocument) -> None:
        if self.resolved is not None:
            self.exact.rejected(prior, self.resolved, current)
            self.q = INTERVAL.lift(self.exact.q)
            return
        lift = INTERVAL.lift
        update = _idiv(_isub(self.q, _imul(q_chosen, lift(prior))), lift(1 - prior))
        self.exact.q = None
        if update[0] > 0.0 and update[1] - update[0] <= 1e-9 * update[1]:
            self.q = update  # the algebraic enclosure is still tight: keep it
        else:
            # Interval subtraction lost too much width; a spine-only
            # interval re-evaluation restores a tight q, intersected
            # with the algebraic update (both enclose q_i).
            q = self.evaluate(current)
            self.q = (max(q[0], update[0]), min(q[1], update[1]))


def deterministic_instance(pdoc: PDocument) -> Document:
    """Materialize a p-document whose every distributional choice is fixed
    (all ind/mux edge probabilities 0/1; all positive exp subsets equal)."""

    def chosen_children(node: PNode) -> list[PNode]:
        if node.kind == IND:
            return [c for c, p in zip(node.children, node.probs) if _sure(p)]
        if node.kind == MUX:
            return [c for c, p in zip(node.children, node.probs) if _sure(p)]
        if node.kind == EXP:
            positive = [s for s, p in node.subsets if p > 0]
            if not positive:
                raise ValueError("p-document is not fully determined")
            first = positive[0]
            if any(s != first for s in positive):
                raise ValueError("exp node is not fully determined")
            return [node.children[i] for i in sorted(first)]
        raise AssertionError

    def _sure(p: Fraction) -> bool:
        if p == 1:
            return True
        if p == 0:
            return False
        raise ValueError("p-document is not fully determined")

    def build(pnode: PNode) -> DocNode:
        doc_node = DocNode(pnode.label, uid=pnode.uid)
        attach(pnode, doc_node)
        return doc_node

    def attach(pnode: PNode, doc_parent: DocNode) -> None:
        children = pnode.children if pnode.kind == ORD else chosen_children(pnode)
        for child in children:
            if child.kind == ORD:
                doc_parent.add_child(build(child))
            else:
                attach(child, doc_parent)

    return Document(build(pdoc.root))
