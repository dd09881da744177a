"""PXDBs: probabilistic XML databases (Section 3.2) — the user-facing API.

A PXDB D̃ = (P̃, C) is the probability sub-space of the p-document P̃
comprising the documents that satisfy the constraint set C, with

    Pr(D = d) = Pr(P = d) / Pr(P ⊨ C)     when d ⊨ C, else 0.

The class bundles the three computational problems of Section 4:

* :meth:`constraint_probability` / :meth:`is_well_defined` — CONSTRAINT-SAT⟨C⟩;
* :meth:`query` / :meth:`boolean_query` / :meth:`event_probability` — EVAL⟨Q, C⟩;
* :meth:`sample` — SAMPLE⟨C⟩ (Figure 3).

Constraints may be :class:`~repro.core.constraints.Constraint` objects
(Definition 2.2) or arbitrary c-formulae (Section 7.1 observes that all
results carry over to constraints expressed as c-formulae).
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from typing import Iterable, Sequence

from ..numeric import guarded_values, maybe_positive
from ..obs.spans import TRACER
from ..pdoc.enumerate import world_probability
from ..pdoc.pdocument import PDocument
from ..xmltree.document import Document
from ..xmltree.pattern import Pattern
from .constraints import Constraint, constraints_formula
from .evaluator import probability
from .formulas import CFormula, conjunction
from .query import Query
from .query_eval import (
    AnswerTable,
    bound_formula,
    candidate_tuples,
    check_denominator,
    conditional_probabilities,
    decode_answers,
)
from .sampler import sample as _sample


class PXDB:
    """The probability space D̃ = (P̃, C)."""

    #: Retained compiled circuits per event batch (see :meth:`compile_circuit`).
    CIRCUIT_CACHE_CAP = 8

    __slots__ = ("pdoc", "constraints", "_condition", "_constraint_prob",
                 "_sample_engine", "_event_circuits", "_circuit_lock",
                 "_aux_engines", "_approx_estimators")

    def __init__(
        self,
        pdoc: PDocument,
        constraints: Iterable[Constraint | CFormula] = (),
        check: bool = True,
    ):
        self.pdoc = pdoc
        self.constraints: tuple[Constraint | CFormula, ...] = tuple(constraints)
        self._condition = constraints_formula(self.constraints)
        self._constraint_prob: Fraction | None = None
        self._sample_engine = None
        # Compiled arithmetic circuits, keyed by the (identity-compared)
        # event tuple they answer.  Formula objects are immutable and the
        # cache holds references, so identity keys cannot be recycled.
        # Concurrent requests share it: the lock guards lookup, insert and
        # evict (compiling runs outside it; a duplicate compile wastes
        # work but answers the same).
        self._event_circuits: dict[tuple, object] = {}
        self._circuit_lock = threading.Lock()
        # Warm non-exact sampler engines, keyed by arithmetic name (an
        # engine is permanently bound to one backend — see
        # IncrementalEngine).  The exact engine stays in _sample_engine so
        # the store's warm-engine injection keeps working unchanged.
        self._aux_engines: dict = {}
        # Warm Monte-Carlo estimators (repro.approx), keyed by sampler
        # backend — one per backend so counters and engines stay warm
        # across approx_probability / approx_query calls.
        self._approx_estimators: dict = {}
        if check and not self.is_well_defined():
            raise ValueError(
                "the p-document is not consistent with the constraints "
                "(Pr(P ⊨ C) = 0): the PXDB is not well-defined"
            )

    # -- CONSTRAINT-SAT⟨C⟩ ----------------------------------------------------
    @property
    def condition(self) -> CFormula:
        """The constraint set as one c-formula."""
        return self._condition

    def constraint_probability(self, backend: str | None = None) -> Fraction:
        """Pr(P ⊨ C), computed by the polynomial algorithm (Theorem 5.3).

        ``backend`` selects the arithmetic (``repro.numeric``); only the
        exact value is cached — non-exact requests always re-evaluate (the
        evaluation itself is the cheap part in those backends)."""
        if backend not in (None, "exact"):
            return probability(self.pdoc, self._condition, backend=backend)
        if self._constraint_prob is None:
            self._constraint_prob = probability(self.pdoc, self._condition)
        return self._constraint_prob

    def is_well_defined(self) -> bool:
        """Whether the sub-space is nonempty: Pr(P ⊨ C) > 0."""
        return self.constraint_probability() > 0

    def prime_constraint_probability(self, value: Fraction) -> None:
        """Install a precomputed Pr(P ⊨ C) — e.g. the store warms an
        :class:`~repro.core.evaluator.IncrementalEngine` with one pass and
        hands the denominator over instead of paying a second cold pass."""
        if value < 0 or value > 1:
            raise ValueError(f"Pr(P |= C) must lie in [0, 1], got {value}")
        self._constraint_prob = value

    # -- EVAL⟨Q, C⟩ ------------------------------------------------------------
    def event_probability(
        self, event: CFormula, backend: str | None = None
    ) -> Fraction:
        """Pr(D ⊨ γ) = Pr(P ⊨ γ ∧ C) / Pr(P ⊨ C) for any c-formula event."""
        return self.event_probabilities([event], backend=backend)[0]

    def event_probabilities(
        self,
        events: Sequence[CFormula],
        via: str = "dp",
        backend: str | None = None,
    ) -> list:
        """[Pr(D ⊨ γ) for γ in events], one DP pass per event.

        Each event is evaluated in its own pass
        (:func:`~repro.core.query_eval.conditional_probabilities`).  The
        denominator Pr(P ⊨ C) is taken from the
        :meth:`constraint_probability` cache when warm; when cold it rides
        in the first event's pass and the cache is populated as a side
        effect, so no caller ever pays for it twice.

        ``via="circuit"`` answers from a compiled arithmetic circuit
        instead (compiled on first use for this event tuple, retained, and
        re-bound to the p-document's current probabilities on every call
        — so after probability-only edits the cost is one O(|circuit|)
        sweep, not a fresh DP).  Results are identical exact ``Fraction``s.

        ``backend`` selects the arithmetic on either route
        (``repro.numeric``); the circuit keeps per-backend kernels, so a
        float64 re-ask of a compiled event tuple is one tight float sweep.
        ``auto`` certifies every value's sign and rank
        (:func:`~repro.numeric.guard.guarded_values`): the DP route re-runs
        exact passes for the undecided events over the cached
        denominator, the circuit route one exact sweep of the same
        circuit.  Many parameter bindings at once are
        :meth:`sweep_probabilities`.
        """
        if via == "circuit":
            if not TRACER.enabled:
                return self._event_probabilities_circuit(tuple(events), backend)
            with TRACER.span("pxdb.events", via=via, events=len(events)):
                return self._event_probabilities_circuit(tuple(events), backend)
        if via != "dp":
            raise ValueError(f"unknown evaluation route {via!r}")
        if not TRACER.enabled:
            return self._event_probabilities_dp(events, backend)
        with TRACER.span(
            "pxdb.events",
            via=via,
            events=len(events),
            denominator_warm=self._constraint_prob is not None,
        ):
            return self._event_probabilities_dp(events, backend)

    def _event_probabilities_dp(
        self, events: Sequence[CFormula], backend: str | None = None
    ) -> list[Fraction]:
        exact = backend in (None, "exact")
        values, denominator = conditional_probabilities(
            self.pdoc,
            self._condition,
            events,
            backend=backend,
            # auto's interval and exact passes both divide by the exact one.
            denominator=self._constraint_prob if exact or backend == "auto" else None,
        )
        if exact:
            self._constraint_prob = denominator
        return values

    # -- arithmetic-circuit route (repro.circuit) -------------------------------
    def compile_circuit(self, events: Sequence[CFormula] = ()):
        """Compile [Pr(P ⊨ γ ∧ C) for γ in events] + [Pr(P ⊨ C)] into one
        arithmetic circuit (:class:`repro.circuit.CompiledCircuit`).

        Each event is traced in its own pass, as the DP route evaluates
        it, into one shared builder and parameter table; C rides in the
        last event's pass.  The constraint probability is always the
        *last* output, so a circuit compiled with no events is exactly the
        CONSTRAINT-SAT⟨C⟩ circuit, and a one-event circuit is one pass.
        The circuit is bound to the p-document's structure:
        probability-only edits re-bind in O(|params|), structural edits
        require recompiling.
        """
        from ..circuit import compile_passes

        passes = [[conjunction([self._condition, event])] for event in events]
        passes = passes or [[]]
        passes[-1].append(self._condition)
        return compile_passes(self.pdoc, passes)

    def circuit_for(self, events: Sequence[CFormula] = ()):
        """The retained compiled circuit for this event tuple (compiled on
        first use, then cached up to :data:`CIRCUIT_CACHE_CAP` tuples)."""
        key = tuple(events)
        with self._circuit_lock:
            circuit = self._event_circuits.get(key)
        if circuit is None:
            circuit = self.compile_circuit(key)
            with self._circuit_lock:
                while len(self._event_circuits) >= self.CIRCUIT_CACHE_CAP:
                    self._event_circuits.pop(next(iter(self._event_circuits)))
                self._event_circuits[key] = circuit
        return circuit

    def _event_probabilities_circuit(
        self, events: tuple[CFormula, ...], backend: str | None = None
    ) -> list[Fraction]:
        # Re-bind unconditionally: O(|params|) and keeps the circuit honest
        # after in-place probability edits (repro.pdoc.parameters).
        circuit = self.circuit_for(events).rebind(self.pdoc)
        if backend == "auto":
            return self._guarded_circuit(circuit)
        *joints, denominator = circuit.forward(backend)
        if backend in (None, "exact"):
            self._constraint_prob = denominator
        check_denominator(denominator, backend)
        return [joint / denominator for joint in joints]

    def _guarded_circuit(self, circuit) -> list:
        """``auto`` on a bound circuit: the interval sweep encloses every
        conditional, and one exact sweep of the same circuit resolves the
        events whose sign or rank the enclosures leave open."""
        *joints, bound = circuit.forward("interval")
        check_denominator(bound, "interval")

        def resolve(indices: list[int]) -> list:
            *exact, denominator = circuit.forward()
            self._constraint_prob = denominator
            check_denominator(denominator)
            return [exact[index] / denominator for index in indices]

        return guarded_values([joint / bound for joint in joints], resolve, rank=True)

    def sweep_probabilities(self, events: Sequence[CFormula], bindings):
        """Vectorized parameter sweep over the compiled circuit (numpy).

        ``bindings`` is a :class:`~repro.circuit.BatchBinding` or an
        iterable of N parameter vectors in canonical slot order
        (:func:`repro.pdoc.parameters.parameter_slots`).  Returns
        ``(conditionals, denominators)``: conditionals is the float64
        array of shape ``(len(events), N)`` with ``conditionals[i, j] =
        Pr(D ⊨ γ_i)`` at binding j, denominators the ``(N,)`` array of
        ``Pr(P ⊨ C)`` per binding.  Every joint/denominator entry is
        bitwise identical to the per-binding float64 circuit forward —
        the differential suite certifies this against the scalar and
        interval backends.
        """
        events = tuple(events)
        circuit = self.circuit_for(events)

        def _run():
            from ..circuit.batch import as_batch

            batch = as_batch(bindings, circuit.num_params)
            outputs = circuit.forward_batch(batch)
            denominators = outputs[-1]
            if (denominators <= 0.0).any():
                raise ValueError(
                    "float64 sweep evaluation of Pr(P |= C) reached 0 at "
                    "some binding (underflow is not proof of "
                    "impossibility); evaluate those bindings with "
                    "backend='auto' or 'exact'"
                )
            return outputs[:-1] / denominators, denominators

        if not TRACER.enabled:
            return _run()
        with TRACER.span("pxdb.sweep", events=len(events)):
            return _run()

    def circuit_stats(self) -> dict:
        """Aggregate statistics over the retained compiled circuits (the
        service's /metrics surfaces these per stored entry)."""
        with self._circuit_lock:
            circuits = list(self._event_circuits.values())
        return {
            "cached": len(circuits),
            "nodes": sum(len(circuit) for circuit in circuits),
            "params": sum(circuit.num_params for circuit in circuits),
            "rebinds": sum(circuit.rebinds for circuit in circuits),
        }

    def boolean_query(
        self, pattern: Pattern, backend: str | None = None
    ) -> Fraction:
        """Pr(D ⊨ T′) for a Boolean twig query (Section 5)."""
        from .formulas import exists

        return self.event_probability(exists(pattern), backend=backend)

    def query(
        self, query: Query | str, backend: str | None = None
    ) -> AnswerTable:
        """EVAL⟨Q, C⟩: per-tuple probabilities, keyed by uid tuples, from
        :meth:`event_probabilities` (one DP pass per candidate tuple over
        the cached Pr(P ⊨ C)); zero-probability tuples are dropped, as
        :func:`~repro.core.query_eval.evaluate_query` drops them."""
        if isinstance(query, str):
            query = Query.parse(query)
        answers = candidate_tuples(query, self.pdoc)
        values = self.event_probabilities(
            [bound_formula(query, answer) for answer in answers], backend=backend
        )
        return {
            answer: value
            for answer, value in zip(answers, values)
            if maybe_positive(value)
        }

    def query_labels(
        self, query: Query | str, backend: str | None = None
    ) -> dict[tuple, Fraction]:
        """Like :meth:`query`, with tuples decoded to node labels."""
        return decode_answers(self.query(query, backend=backend), self.pdoc)

    # -- SAMPLE⟨C⟩ --------------------------------------------------------------
    @property
    def sample_engine(self):
        """The incremental evaluation engine backing :meth:`sample` —
        compiled once per PXDB and warm across samples, so consecutive
        draws share every subtree distribution the constraint DP has ever
        computed.  Exposes the observability counters
        (:meth:`~repro.core.evaluator.IncrementalEngine.stats`)."""
        if self._sample_engine is None:
            from .evaluator import IncrementalEngine

            self._sample_engine = IncrementalEngine.for_formula(self._condition)
        return self._sample_engine

    @sample_engine.setter
    def sample_engine(self, engine) -> None:
        """Inject a pre-warmed engine (the document store compiles one per
        entry, runs the CONSTRAINT-SAT pass on it, and hands it over so the
        first sample request already starts from a hot cache).  The engine
        must have been compiled for this PXDB's condition."""
        self._sample_engine = engine

    def _engine_for(self, backend_name: str):
        """A warm engine bound to ``backend_name`` (built on first use)."""
        engine = self._aux_engines.get(backend_name)
        if engine is None:
            from .evaluator import IncrementalEngine

            engine = IncrementalEngine(
                self.sample_engine.registry, backend=backend_name
            )
            self._aux_engines[backend_name] = engine
        return engine

    def sample(
        self,
        rng: random.Random | None = None,
        incremental: bool = True,
        backend: str | None = None,
    ) -> Document:
        """Draw one document with probability exactly Pr(D = d) (Fig. 3).

        ``backend`` selects the sampler arithmetic: ``exact`` (default),
        ``float64`` (fast, distribution may drift by rounding) or ``auto``
        (interval evaluation, exact fallback on uncertified coins — draws
        are bit-identical to ``exact`` for the same rng).  Non-exact
        backends run on their own warm engines; ``auto`` additionally uses
        the exact sample engine for its fallbacks, so all modes share the
        compiled registry.
        """
        if backend in (None, "exact"):
            engine = self.sample_engine
            fallback = None
        elif backend == "float64":
            engine = self._engine_for("float64")
            fallback = None
        elif backend == "auto":
            engine = self._engine_for("interval")
            fallback = self.sample_engine
        else:
            raise ValueError(
                f"unknown sampler backend {backend!r} "
                "(expected 'exact', 'float64' or 'auto')"
            )
        return _sample(
            self.pdoc,
            self._condition,
            rng,
            engine=engine,
            incremental=incremental,
            backend=backend,
            fallback_engine=fallback,
        )

    # -- the approximation tier (repro.approx) ----------------------------------
    def approx_estimator(self, backend: str = "auto"):
        """The warm Monte-Carlo estimator for ``backend`` (built on first
        use, retained — its sampler engines and draw counters survive
        across calls, which is what makes repeated approximate queries
        cheap)."""
        estimator = self._approx_estimators.get(backend)
        if estimator is None:
            from ..approx.estimator import ApproxEstimator

            estimator = ApproxEstimator(self, backend=backend)
            self._approx_estimators[backend] = estimator
        return estimator

    def approx_probability(
        self,
        event: CFormula,
        *,
        epsilon: float = 0.05,
        delta: float = 0.05,
        max_samples: int = 200_000,
        rule: str | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        backend: str = "auto",
        conditioned: bool = True,
    ):
        """Certified Monte-Carlo estimate of Pr(D ⊨ event): an
        :class:`~repro.approx.estimator.ApproxResult` whose
        ``[lo, hi]`` contains the exact value with probability 1 − δ,
        with ``hi − lo ≤ 2ε`` unless ``max_samples`` truncated sampling.

        This is the serving tier for the NP-hard SUM/AVG events of
        Proposition 7.2: unlike :meth:`event_probability` it accepts
        *any* c-formula, at the price of an ε that is additive (the
        proposition rules out relative-error guarantees, not additive
        ones).  ``backend`` picks the sampler arithmetic (``auto`` by
        default: float-fast, bit-identical draws to ``exact``); ``rule``
        picks the stopping rule (empirical-Bernstein by default — see
        :mod:`repro.approx.bounds`).  Deterministic given ``seed``.
        """
        return self.approx_estimator(backend).estimate(
            event,
            epsilon=epsilon,
            delta=delta,
            rule=rule,
            max_samples=max_samples,
            seed=seed,
            rng=rng,
            conditioned=conditioned,
        )

    def approx_query(
        self,
        query: Query | str,
        *,
        epsilon: float = 0.05,
        delta: float = 0.05,
        max_samples: int = 200_000,
        rule: str | None = None,
        seed: int | None = None,
        rng: random.Random | None = None,
        backend: str = "auto",
    ) -> dict:
        """Approximate EVAL⟨Q, C⟩: every candidate answer's event is
        evaluated against *shared* conditioned draws (one sampler pass
        serves all answers), returning ``{uid tuple: ApproxResult}``.
        Answers whose interval is [0, 0]-adjacent are still reported —
        dropping them is the caller's decision, since a zero estimate
        only certifies Pr ≤ hi, never impossibility."""
        if isinstance(query, str):
            query = Query.parse(query)
        answers = candidate_tuples(query, self.pdoc)
        results = self.approx_estimator(backend).estimate_many(
            [bound_formula(query, answer) for answer in answers],
            epsilon=epsilon,
            delta=delta,
            rule=rule,
            max_samples=max_samples,
            seed=seed,
            rng=rng,
        )
        return dict(zip(answers, results))

    def approx_stats(self) -> dict:
        """Per-backend estimator counters (the service's /metrics and
        /stats surface these per stored entry)."""
        return {
            backend: estimator.stats()
            for backend, estimator in self._approx_estimators.items()
        }

    # -- document probabilities --------------------------------------------------
    def document_probability(self, document: Document) -> Fraction:
        """Pr(D = d) for a concrete world (identified by its uid set)."""
        from .formulas import DocumentEvaluator

        if not DocumentEvaluator().satisfies(document.root, self._condition):
            return Fraction(0)
        prior = world_probability(self.pdoc, document.uid_set())
        return prior / self.constraint_probability()

    def __repr__(self) -> str:
        return f"PXDB({self.pdoc!r}, constraints={len(self.constraints)})"
