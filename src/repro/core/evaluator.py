"""The polynomial-time evaluation algorithm for c-formulae (Theorem 5.3).

Given a p-document P̃ and c-formulae γ1…γq, :func:`probabilities` computes
the exact values Pr(P ⊨ γi) — *jointly*, in one bottom-up dynamic program,
which both shares work and lets callers obtain correlated quantities such
as Pr(P ⊨ C ∧ T′) and Pr(P ⊨ C) from a single pass (the two probabilities
query evaluation divides, Section 5).

The DP state is the *signature* of the random forest generated below a
p-document node (see ``repro.core.compiler`` for the slot layout):

* one bit per (selector plan, side-branch pattern node, self/below) —
  "some root of the forest matches the branch node" / "some node of the
  forest does";
* one saturated counter per (atom, live automaton state) — "how many nodes
  of the forest are selected, given the spine walk arrives at the forest's
  parent in that state" (two counters for RATIO atoms).

Signatures form a commutative monoid under sibling combination (bits OR,
counters saturating-add), so distributional nodes reduce to mixtures and
convolutions of their children's signature *distributions*:

* ``ind``  — convolve each child's distribution mixed with "absent";
* ``mux``  — mixture of the children plus "all absent";
* ``exp``  — mixture over the explicitly listed subsets, each a convolution;
* ordinary — convolve the children, then *consume* the node: evaluate every
  registered formula at it (dependencies first, via the START entries),
  derive its side-branch match bits and advance every automaton state.

All arithmetic is exact (``fractions.Fraction``).  For a fixed formula the
signature space is polynomial in |P̃| and the numerical specification,
matching the paper's data-complexity claim; the exponential ground truth
(``repro.baseline.naive``) is used to validate the implementation.

:class:`IncrementalEngine` persists the subtree-distribution cache *across*
evaluation runs (keyed by the stable structural fingerprints of
``repro.pdoc.pdocument``), which turns the m evaluator calls of SAMPLE⟨C⟩
from m full passes into one full pass plus m spine-sized re-evaluations.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..numeric import GUARD, Interval, NumericBackend, get_backend
from ..numeric.backends import _imul
from ..obs.spans import TRACER
from ..pdoc.pdocument import EXP, IND, MUX, ORD, PDocument, PNode
from .compiler import CompiledAtom, Registry, SelectorPlan
from .formulas import CAnd, CFormula, FALSE, TRUE
from ..xmltree.pattern import CHILD

Signature = tuple[int, tuple[int, ...]]  # (bit mask, counter vector)
# Values are Fractions under the default exact backend; float64/interval
# evaluations (repro.numeric) store their own scalar type instead.
SigDist = dict[Signature, Fraction]


class IncrementalEngine:
    """A persistent, cross-run signature-distribution cache for one registry.

    The per-run structural cache of :class:`Evaluation` shares work *within*
    one bottom-up pass; this engine extends the sharing *across* passes: it
    keeps the ``fingerprint → SigDist`` table alive between evaluations, so
    re-evaluating a document that differs from a previously seen one in a
    single spine (the SAMPLE⟨C⟩ loop conditions one distributional edge per
    iteration) recomputes only the changed root-to-edge path — every
    untouched subtree is a cache hit, and the traversal does not even
    descend into it.

    Cache keys are the stable structural fingerprints of
    ``repro.pdoc.pdocument`` in the registry's
    :attr:`~repro.core.compiler.Registry.fingerprint_mode`:

    * ``"shape"`` (label-only registries) — uid-free, so identical
      fragments share an entry even within one document;
    * ``"identity"`` — uids included; sharing only between clones /
      in-place-conditioned versions of the same nodes, which keeps the
      cache sound when predicates inspect node identity (``NodeIs``).

    Counters (cumulative across the engine's lifetime):

    * ``runs``            — completed evaluation passes;
    * ``hits`` / ``misses`` — cache lookups during those passes;
    * ``nodes_computed``  — subtree signature distributions actually
      recomputed (the quantity the incremental sampler minimizes).

    ``max_entries`` bounds the cache for long-lived engines (the service
    layer keeps one warm engine per stored PXDB indefinitely): after each
    run the oldest entries — dict order is insertion order, i.e. bottom-up
    discovery order — are evicted down to the bound.  ``None`` (the
    default) keeps the cache unbounded, the original behavior.
    """

    __slots__ = ("registry", "identity_keys", "cache", "hits", "misses",
                 "runs", "nodes_computed", "max_entries", "evictions", "backend",
                 "combine_cache", "consume_cache", "root_cache")

    def __init__(
        self,
        registry: Registry,
        max_entries: int | None = None,
        backend: str | NumericBackend | None = None,
    ):
        self.registry = registry
        self.identity_keys = registry.fingerprint_mode == "identity"
        self.cache: dict[int, SigDist] = {}
        self.hits = 0
        self.misses = 0
        self.runs = 0
        self.nodes_computed = 0
        self.max_entries = max_entries
        self.evictions = 0
        # Cached distributions hold backend-typed scalars, so one engine is
        # permanently bound to one backend (PXDB keeps one per backend).
        self.backend = get_backend(backend)
        # Structure caches: pure functions of the registry and signatures /
        # node content, independent of the document's probabilities and of
        # the backend — sound to keep across runs, and the reason repeated
        # spine re-evaluations pay almost no signature bookkeeping.
        self.combine_cache: dict = {}
        self.consume_cache: dict = {}
        self.root_cache: dict = {}

    @classmethod
    def for_formulas(
        cls,
        formulas: list[CFormula],
        max_entries: int | None = None,
        backend: str | NumericBackend | None = None,
    ) -> "IncrementalEngine":
        """Compile ``formulas`` once (MIN/MAX rewritten, Theorem 7.1) and
        wrap the registry in a fresh engine."""
        from ..aggregates.minmax import rewrite

        return cls(Registry([rewrite(f) for f in formulas]), max_entries, backend)

    @classmethod
    def for_formula(
        cls,
        formula: CFormula,
        max_entries: int | None = None,
        backend: str | NumericBackend | None = None,
    ) -> "IncrementalEngine":
        return cls.for_formulas([formula], max_entries, backend)

    def evaluation(self, pdoc: PDocument) -> "Evaluation":
        """A fresh evaluation of ``pdoc`` backed by this engine's cache."""
        return Evaluation(self.registry, pdoc, engine=self)

    def probabilities(self, pdoc: PDocument) -> list[Fraction]:
        """[Pr(P ⊨ γ) for γ in registry.top], reusing all cached subtrees."""
        self.runs += 1
        with TRACER.span("engine.pass", run=self.runs) as span:
            results = self.evaluation(pdoc).run()
            span.set(cache_entries=len(self.cache))
        if self.max_entries is not None and len(self.cache) > self.max_entries:
            excess = len(self.cache) - self.max_entries
            for key in list(self.cache)[:excess]:
                del self.cache[key]
            self.evictions += excess
        if self.max_entries is not None:
            # Structure-cache entries are tiny (signature tuples); allow a
            # generous multiple before trimming oldest-first.
            bound = 8 * self.max_entries
            for cache in (self.combine_cache, self.consume_cache, self.root_cache):
                if len(cache) > bound:
                    for key in list(cache)[: len(cache) - bound]:
                        del cache[key]
        return results

    def probability(self, pdoc: PDocument) -> Fraction:
        return self.probabilities(pdoc)[0]

    def clear(self) -> None:
        """Drop the cached distributions (counters are kept)."""
        self.cache.clear()
        self.combine_cache.clear()
        self.consume_cache.clear()
        self.root_cache.clear()

    def stats(self) -> dict[str, int | float]:
        """Cumulative observability counters, plus derived rates."""
        lookups = self.hits + self.misses
        return {
            "runs": self.runs,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "nodes_computed": self.nodes_computed,
            "cache_entries": len(self.cache),
            "cache_evictions": self.evictions,
        }


class Evaluation:
    """One evaluation run: a compiled registry bound to a p-document.

    ``use_cache`` enables structure sharing: when the registry contains
    only label-only predicates, the signature distribution of a subtree is
    a function of its *shape* (kinds, labels, probabilities), so the
    distributions of the many identical fragments large workloads contain
    (e.g. the departments of the scaled university) are computed once.
    Without an engine the cache is automatically disabled when some
    predicate inspects node identity (``NodeIs``), where sharing by shape
    would be unsound; an :class:`IncrementalEngine` re-enables it with
    uid-including identity fingerprints (sound across clones).

    ``cache_hits`` / ``cache_misses`` / ``nodes_computed`` are *per-run*
    counters: :meth:`run` resets them, so repeated runs on one object
    report that run's work only (the engine keeps the cumulative view).
    """

    def __init__(
        self,
        registry: Registry,
        pdoc: PDocument,
        use_cache: bool = True,
        engine: IncrementalEngine | None = None,
        backend: str | NumericBackend | None = None,
    ):
        if engine is not None and engine.registry is not registry:
            raise ValueError("the engine was compiled for a different registry")
        if engine is not None:
            resolved = engine.backend if backend is None else get_backend(backend)
            if resolved is not engine.backend:
                raise ValueError(
                    f"the engine is bound to the {engine.backend.name!r} backend, "
                    f"cannot evaluate with {resolved.name!r}"
                )
        else:
            resolved = get_backend(backend)
        self.registry = registry
        self.pdoc = pdoc
        self.engine = engine
        self.backend = resolved
        self.empty: Signature = (0, (0,) * registry.count_len)
        self.use_cache = use_cache and (registry.label_only or engine is not None)
        self._identity_keys = not registry.label_only
        self._memo: dict[int, SigDist] = {}
        self._local_cache: dict[int, SigDist] = {}
        self._lift_memo: dict[Fraction, object] = {}
        if engine is not None:
            self._combine_cache = engine.combine_cache
            self._consume_cache = engine.consume_cache
            self._root_cache = engine.root_cache
        else:
            self._combine_cache = {}
            self._consume_cache = {}
            self._root_cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.nodes_computed = 0
        self.max_sig_width = 0
        self.root_width = 0

    # -- signature monoid ----------------------------------------------------
    def combine(self, left: Signature, right: Signature) -> Signature:
        # Zero count vectors dominate in practice (counting atoms touch few
        # nodes); adding one is the identity, so skip the capped zip.  The
        # general case is memoized (on the engine, when there is one): the
        # signature space is polynomial, so the same pairs recur endlessly
        # across convolutions and runs.
        lc = left[1]
        rc = right[1]
        zeros = self.empty[1]
        if lc == zeros:
            return (left[0] | right[0], rc)
        if rc == zeros:
            return (left[0] | right[0], lc)
        key = (lc, rc)
        counts = self._combine_cache.get(key)
        if counts is None:
            counts = tuple(
                value if (value := a + b) <= cap else cap
                for a, b, cap in zip(lc, rc, self.registry.count_caps)
            )
            self._combine_cache[key] = counts
        return (left[0] | right[0], counts)

    def _lift(self, value: Fraction):
        """The backend scalar for an exact document probability (memoized:
        documents reuse few distinct probabilities, and interval lifting
        checks representability)."""
        lifted = self._lift_memo.get(value)
        if lifted is None:
            lifted = self._lift_memo[value] = self.backend.lift(value)
        return lifted

    def convolve(self, left: SigDist, right: SigDist) -> SigDist:
        # Singleton-empty operands (IND p=1 children, fresh accumulators)
        # reduce to a scalar rescale — no signature work at all.
        backend = self.backend
        if len(left) == 1 and self.empty in left:
            p1 = left[self.empty]
            if p1 == backend.one:
                return dict(right)
            mul = backend.mul
            return {sig: mul(p1, p) for sig, p in right.items()}
        if len(right) == 1 and self.empty in right:
            p2 = right[self.empty]
            if p2 == backend.one:
                return dict(left)
            mul = backend.mul
            return {sig: mul(p, p2) for sig, p in left.items()}
        if backend.name == "interval":
            return self._convolve_interval(left, right)
        result: SigDist = {}
        combine = self.combine
        add = backend.add
        mul = backend.mul
        get = result.get
        for sig1, p1 in left.items():
            for sig2, p2 in right.items():
                key = combine(sig1, sig2)
                term = mul(p1, p2)
                current = get(key)
                result[key] = term if current is None else add(current, term)
        return result

    def _convolve_interval(self, left: SigDist, right: SigDist) -> SigDist:
        """convolve with the directed-rounding arithmetic inlined: the DP's
        weights are nonnegative up to rounding slack, so the nonneg product
        fast path applies almost always and each term costs two ``nextafter``
        calls instead of two Python-level operator calls."""
        result: SigDist = {}
        combine = self.combine
        get = result.get
        na = math.nextafter
        inf = math.inf
        imul = _imul
        for sig1, a in left.items():
            alo, ahi = a
            nonneg = alo >= 0.0
            for sig2, b in right.items():
                blo, bhi = b
                if nonneg and blo >= 0.0:
                    # Same zero-exactness rules as _imul: a 0.0 lower bound
                    # is already valid, and an upper 0.0 widens only when it
                    # is underflow (both factors nonzero) — exact zeros stay
                    # [0, 0] so downstream guards can certify them.
                    tlo = alo * blo
                    if tlo != 0.0:
                        tlo = na(tlo, -inf)
                    thi = ahi * bhi
                    if ahi != 0.0 and bhi != 0.0:
                        thi = na(thi, inf)
                else:
                    tlo, thi = imul(a, b)
                key = combine(sig1, sig2)
                current = get(key)
                if current is None:
                    result[key] = (tlo, thi)
                else:
                    clo, chi = current
                    slo = clo + tlo
                    if clo != 0.0 and tlo != 0.0:
                        slo = na(slo, -inf)
                    shi = chi + thi
                    if chi != 0.0 and thi != 0.0:
                        shi = na(shi, inf)
                    result[key] = (slo, shi)
        return result

    def mix(self, parts: list[tuple[Fraction, SigDist]]) -> SigDist:
        result: SigDist = {}
        backend = self.backend
        add = backend.add
        mul = backend.mul
        get = result.get
        for weight, dist in parts:
            # Prune only weights that are *certainly* zero: a float64 0.0
            # may be the underflow of a tiny positive rational, and an
            # interval is zero only when its upper bound is exactly 0
            # (underflow ≠ impossible — see docs/NUMERIC.md).
            if backend.is_zero(weight):
                continue
            for sig, p in dist.items():
                term = mul(weight, p)
                current = get(sig)
                result[sig] = term if current is None else add(current, term)
        return result

    # -- forest distributions --------------------------------------------------
    def forest_dist(self, node: PNode) -> SigDist:
        """Distribution over signatures of the forest generated by ``node``
        (given the node is reached by the top-down process).

        Computed iteratively (explicit postorder), so arbitrarily deep
        p-documents do not hit the interpreter's recursion limit, with
        memoization by structural fingerprint when the registry permits it.
        A cache hit *prunes the traversal*: the subtree below a known
        fingerprint is never visited, so with a warm engine cache the work
        is proportional to the changed spine, not the document size.
        """
        memo = self._memo
        if id(node) in memo:
            return memo[id(node)]
        cache = self.engine.cache if self.engine is not None else self._local_cache
        stack: list[tuple[PNode, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if id(current) in memo:
                continue
            if not expanded:
                if self.use_cache:
                    dist = cache.get(self._cache_key(current))
                    if dist is not None:
                        memo[id(current)] = dist
                        self._hit()
                        continue
                stack.append((current, True))
                stack.extend((child, False) for child in current.children)
                continue
            dist = self._forest_dist_local(current, memo)
            memo[id(current)] = dist
            self.nodes_computed += 1
            if len(dist) > self.max_sig_width:
                self.max_sig_width = len(dist)
            if self.engine is not None:
                self.engine.nodes_computed += 1
            if self.use_cache:
                cache[self._cache_key(current)] = dist
                self._miss()
        return memo[id(node)]

    def _cache_key(self, node: PNode) -> int:
        """The node's stable structural fingerprint in the registry's mode
        (cached on the node itself; O(1) when already computed)."""
        if self._identity_keys:
            return node.identity_fingerprint()
        return node.shape_fingerprint()

    def _hit(self) -> None:
        self.cache_hits += 1
        if self.engine is not None:
            self.engine.hits += 1

    def _miss(self) -> None:
        self.cache_misses += 1
        if self.engine is not None:
            self.engine.misses += 1

    def _forest_dist_local(self, node: PNode, memo: dict[int, SigDist]) -> SigDist:
        """One node's forest distribution, children's results in ``memo``."""
        one = self.backend.one
        if node.kind == ORD:
            dist = self._combine_children(node, memo)
            out: SigDist = {}
            add = self.backend.add
            get = out.get
            for forest_sig, p in dist.items():
                sig = self.consume(node, forest_sig)
                current = get(sig)
                out[sig] = p if current is None else add(current, p)
            return out
        # Zero/one short-circuits below test the *exact* document rationals
        # (always available, whatever the arithmetic backend), never their
        # lifted values: a float64 weight of 0.0 may be the underflow of a
        # tiny positive probability, and pruning it would silently drop
        # possible worlds (underflow ≠ impossible — docs/NUMERIC.md).  Both
        # weights are lifted from the exact values (1 - p computed as a
        # rational), so interval lifts stay as tight as representability
        # allows.
        lift = self._lift
        if node.kind == IND:
            dist = {self.empty: one}
            for index, child in enumerate(node.children):
                p = node.probs[index]
                if p == 0:
                    continue  # surely absent: convolving with "absent" is identity
                if p == 1:
                    dist = self.convolve(dist, memo[id(child)])
                    continue
                child_dist = self.mix(
                    [(lift(p), memo[id(child)]), (lift(1 - p), {self.empty: one})]
                )
                dist = self.convolve(dist, child_dist)
            return dist
        if node.kind == MUX:
            total = sum(node.probs, Fraction(0))
            parts = [] if total == 1 else [(lift(1 - total), {self.empty: one})]
            parts += [
                (lift(node.probs[i]), memo[id(child)])
                for i, child in enumerate(node.children)
                if node.probs[i] != 0
            ]
            return self.mix(parts)
        if node.kind == EXP:
            parts = []
            for subset, q in node.subsets:
                if q == 0:
                    continue
                dist = {self.empty: one}
                for index in sorted(subset):
                    dist = self.convolve(dist, memo[id(node.children[index])])
                parts.append((lift(q), dist))
            return self.mix(parts)
        raise AssertionError(f"unknown node kind {node.kind}")

    def _combine_children(self, node: PNode, memo: dict[int, SigDist]) -> SigDist:
        dist: SigDist = {self.empty: self.backend.one}
        for child in node.children:
            dist = self.convolve(dist, memo[id(child)])
        return dist

    def children_dist(self, node: PNode) -> SigDist:
        """Convolution of the forests of an ordinary node's children."""
        dist: SigDist = {self.empty: self.backend.one}
        for child in node.children:
            dist = self.convolve(dist, self.forest_dist(child))
        return dist

    # -- consuming an ordinary node ---------------------------------------------
    def consume(self, node: PNode, forest: Signature) -> Signature:
        """Signature of the tree rooted at ``node`` given its children's
        combined forest signature.

        Memoized on the engine: every predicate reads only ``node.label``
        (or ``node.uid`` for ``NodeIs``), so the result is a pure function
        of (uid, label, forest) for a fixed registry — independent of the
        document's probabilities, hence stable across conditioning."""
        key = (node.uid, node.label, forest)
        cached = self._consume_cache.get(key)
        if cached is None:
            truths, plan_bits = self._local_analysis(node, forest)
            cached = self._emit(node, forest, truths, plan_bits)
            self._consume_cache[key] = cached
        return cached

    def _local_analysis(
        self, node: PNode, forest: Signature
    ) -> tuple[dict[int, bool], dict[int, tuple[bool, ...]]]:
        """Compute the truth of every registered formula at ``node`` and the
        local-test bit vector of every selector plan, dependencies first."""
        registry = self.registry
        truths: dict[int, bool] = {}
        plan_bits: dict[int, tuple[bool, ...]] = {}

        def local_bits(compiled: CompiledAtom) -> list[tuple[bool, ...]]:
            vectors = []
            for plan in compiled.plans:
                cached = plan_bits.get(id(plan))
                if cached is None:
                    cached = tuple(
                        self._local_test(plan, i, node, forest, truths)
                        for i in range(plan.last + 1)
                    )
                    plan_bits[id(plan)] = cached
                vectors.append(cached)
            return vectors

        for formula in registry.order:
            if formula is TRUE:
                truths[id(formula)] = True
            elif formula is FALSE:
                truths[id(formula)] = False
            elif isinstance(formula, CAnd):
                truths[id(formula)] = all(truths[id(part)] for part in formula.parts)
            else:  # CountAtom / RatioAtom
                compiled = registry.atom_of[id(formula)]
                vectors = local_bits(compiled)
                state, accepted = compiled.start(vectors)
                if compiled.is_ratio:
                    yes, tot = self._state_pair(compiled, state, forest)
                    if accepted:
                        tot += 1
                        if truths[id(compiled.inner)]:
                            yes += 1
                    truths[id(formula)] = compiled.compare_ratio(yes, tot)
                else:
                    count = self._state_count(compiled, state, forest)
                    if accepted:
                        count = min(count + 1, compiled.cap)
                    truths[id(formula)] = compiled.compare(count)
        # Make sure every plan's bits exist for the emit phase.
        for compiled in registry.atoms:
            local_bits(compiled)
        return truths, plan_bits

    def _local_test(
        self,
        plan: SelectorPlan,
        position: int,
        node: PNode,
        forest: Signature,
        truths: dict[int, bool],
    ) -> bool:
        """L_i(node): predicate ∧ attached formula ∧ side branches."""
        spine_node = plan.spine[position]
        if not spine_node.predicate.matches(node):
            return False
        attached = plan.sformula.alpha_of(spine_node)
        if not truths[id(attached)]:
            return False
        bits, _ = forest
        bit_index = self.registry.bit_index
        for branch_root in plan.branches[position]:
            kind = "self" if branch_root.axis == CHILD else "below"
            slot = bit_index[(id(plan), id(branch_root), kind)]
            if not (bits >> slot) & 1:
                return False
        return True

    def _branch_bit(
        self,
        plan: SelectorPlan,
        pattern_node,
        node: PNode,
        forest: Signature,
        truths: dict[int, bool],
    ) -> bool:
        """B_m(node): the sub-pattern rooted at the branch node m matches
        with m ↦ node (within node's subtree)."""
        if not pattern_node.predicate.matches(node):
            return False
        attached = plan.sformula.alpha_of(pattern_node)
        if not truths[id(attached)]:
            return False
        bits, _ = forest
        bit_index = self.registry.bit_index
        for child in pattern_node.children:
            kind = "self" if child.axis == CHILD else "below"
            slot = bit_index[(id(plan), id(child), kind)]
            if not (bits >> slot) & 1:
                return False
        return True

    def _state_count(
        self, compiled: CompiledAtom, state, forest: Signature
    ) -> int:
        offset = self.registry.count_layout.get((id(compiled), state))
        return 0 if offset is None else forest[1][offset]

    def _state_pair(
        self, compiled: CompiledAtom, state, forest: Signature
    ) -> tuple[int, int]:
        offset = self.registry.count_layout.get((id(compiled), state))
        if offset is None:
            return 0, 0
        counts = forest[1]
        return counts[offset], counts[offset + 1]

    def _emit(
        self,
        node: PNode,
        forest: Signature,
        truths: dict[int, bool],
        plan_bits: dict[int, tuple[bool, ...]],
    ) -> Signature:
        """Build the tree signature of ``node`` from its forest signature."""
        registry = self.registry
        forest_bits = forest[0]
        bits = 0
        for compiled in registry.atoms:
            for plan in compiled.plans:
                for pattern_node in plan.branch_nodes:
                    self_slot = registry.bit_index[(id(plan), id(pattern_node), "self")]
                    below_slot = registry.bit_index[(id(plan), id(pattern_node), "below")]
                    matched = self._branch_bit(plan, pattern_node, node, forest, truths)
                    if matched:
                        bits |= 1 << self_slot
                    if matched or (forest_bits >> below_slot) & 1:
                        bits |= 1 << below_slot

        counts = [0] * registry.count_len
        for compiled in registry.atoms:
            vectors = [plan_bits[id(plan)] for plan in compiled.plans]
            inner_true = (
                truths[id(compiled.inner)] if compiled.is_ratio else False
            )
            for state in compiled.live_states:
                offset = registry.count_layout[(id(compiled), state)]
                nxt, accepted = compiled.step(state, vectors)
                if compiled.is_ratio:
                    yes, tot = self._state_pair(compiled, nxt, forest)
                    if accepted:
                        tot += 1
                        if inner_true:
                            yes += 1
                    counts[offset] = min(yes, compiled.cap)
                    counts[offset + 1] = min(tot, compiled.cap)
                else:
                    count = self._state_count(compiled, nxt, forest)
                    if accepted:
                        count += 1
                    counts[offset] = min(count, compiled.cap)
        return (bits, tuple(counts))

    # -- the root -----------------------------------------------------------------
    def run(self) -> list[Fraction]:
        """Pr(P ⊨ γ) for every top formula of the registry.

        Resets the per-run counters and the per-document memo first, so
        ``cache_hits`` / ``cache_misses`` / ``nodes_computed`` /
        ``max_sig_width`` / ``root_width`` afterwards describe exactly
        this run (the memo must not survive either: the p-document may
        have been conditioned in place since the last run).
        ``root_width`` is the number of signatures in the root's children
        distribution, the factor the root analysis is linear in.

        When tracing is on, the run is recorded as a ``dp.run`` span
        carrying those structural counters; when off, the cost is one
        attribute load and a branch.
        """
        if not TRACER.enabled:
            return self._run()
        with TRACER.span(
            "dp.run", formulas=len(self.registry.top), backend=self.backend.name
        ) as span:
            results = self._run()
            span.set(
                nodes_computed=self.nodes_computed,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                max_sig_width=self.max_sig_width,
                root_width=self.root_width,
            )
        return results

    def _run(self) -> list[Fraction]:
        self._memo.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.nodes_computed = 0
        self.max_sig_width = 0
        root = self.pdoc.root
        dist = self.children_dist(root)
        self.root_width = len(dist)
        add = self.backend.add
        top = self.registry.top
        results = [self.backend.zero for _ in top]
        root_cache = self._root_cache
        root_key = (root.uid, root.label)
        for forest_sig, p in dist.items():
            key = (root_key, forest_sig)
            top_truths = root_cache.get(key)
            if top_truths is None:
                truths, _ = self._local_analysis(root, forest_sig)
                top_truths = tuple(truths[id(formula)] for formula in top)
                root_cache[key] = top_truths
            for index, true in enumerate(top_truths):
                if true:
                    results[index] = add(results[index], p)
        return results


def probabilities(
    pdoc: PDocument,
    formulas: list[CFormula],
    backend: str | NumericBackend | None = None,
) -> list[Fraction]:
    """[Pr(P ⊨ γ) for γ in formulas], in one joint DP pass.

    MIN/MAX atoms are rewritten to CNT atoms on the way in (Theorem 7.1);
    SUM/AVG atoms are rejected (Proposition 7.2 — use the baseline).

    ``backend`` selects the arithmetic (``repro.numeric``): the default
    ``exact`` returns the exact ``Fraction``s of Theorem 5.3; ``float64``
    returns doubles; ``interval`` returns
    :class:`~repro.numeric.Interval` enclosures that always contain the
    exact value; ``"auto"`` evaluates in interval arithmetic and re-runs
    the pass exactly for the outputs whose sign the bounds cannot certify
    — those come back as exact ``Fraction``s, every other output as a
    midpoint float, so a ``> 0`` test on any output matches ``exact``.
    """
    from ..aggregates.minmax import rewrite

    rewritten = [rewrite(f) for f in formulas]
    registry = Registry(rewritten)
    if backend == "auto":
        return _auto_probabilities(registry, pdoc)
    evaluation = Evaluation(registry, pdoc, backend=backend)
    finalize = evaluation.backend.finalize
    return [finalize(value) for value in evaluation.run()]


def _auto_probabilities(registry: Registry, pdoc: PDocument) -> list:
    enclosures = Evaluation(registry, pdoc, backend="interval").run()
    straddling = [
        index for index, (lo, hi) in enumerate(enclosures) if lo <= 0.0 < hi
    ]
    certified = len(enclosures) - len(straddling)
    if certified:
        GUARD.decided(certified)
    if not straddling:
        return [Interval(*value).mid for value in enclosures]
    # One joint exact pass resolves every straddling output at once.
    GUARD.fell_back(len(straddling))
    exact_values = Evaluation(registry, pdoc).run()
    resolved = set(straddling)
    return [
        exact_values[index] if index in resolved else Interval(*value).mid
        for index, value in enumerate(enclosures)
    ]


def probability(
    pdoc: PDocument,
    formula: CFormula,
    backend: str | NumericBackend | None = None,
) -> Fraction:
    """Pr(P ⊨ γ) (Theorem 5.3), in the requested backend's arithmetic."""
    return probabilities(pdoc, [formula], backend=backend)[0]
