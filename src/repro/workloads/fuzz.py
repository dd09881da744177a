"""Coverage-guided differential fuzzing over the scenario matrix.

Feeds :mod:`repro.workloads.scenarios` instances through the PR-5
differential suite, one instance at a time:

1. **exact-dp** — the exact ``Fraction`` joint DP pass (Theorem 5.3) on
   ``[C] + [C ∧ e]`` for every tractable event; the reference everything
   else is judged against.
2. **float64** — doubles within ``1e-9`` relative tolerance of exact.
3. **interval** — enclosures that contain the exact value.
4. **auto** — interval-guarded evaluation whose sign decisions match
   exact, and whose exact-fallback outputs equal exact.
5. **enum** — the possible-worlds baseline (``repro.baseline.naive``),
   ``Fraction``-equal to the DP on enumerable instances; also the only
   exact oracle for the NP-hard SUM/AVG events (Proposition 7.2).
6. **circuit** — the compiled arithmetic circuit's exact forward equals
   the DP; its float64 forward is within tolerance.
7. **rebind** — the circuit rebound to a parameter-perturbed document
   equals a fresh DP on the perturbed document.
8. **batch** — ``forward_batch`` columns are *bitwise* equal to the
   scalar float64 forward per binding (numpy only).
9. **approx** — the Monte-Carlo tier's certified interval contains the
   exact conditional probability (δ = 1e-6, so a 200-instance run has
   ≈ 2·10⁻⁴ overall false-failure probability).
10. **engine** — an ``IncrementalEngine`` over the same formulas, driven
    through up to 8 seeded in-place conditionings in a seeded random edge
    order with one ``restore_edge`` back-step, equals a fresh exact pass
    after every step (at a root with fan-out ≥ 2 this checks its outside
    table).
11. **sample** — one seeded SAMPLE⟨C⟩ draw per backend (exact, and float64
    and auto when enabled) is a possible world that satisfies C
    (``PXDB.document_probability > 0``), and the auto draw equals the
    exact one.

A disagreement is **shrunk** before it is reported: every axis of the
failing spec is reset toward its simplest value while the failure
persists, and the minimal ``(spec, seed)`` is written to
``tests/artifacts/`` as a JSON artifact that names the failing stage and
carries the serialized p-document plus the exact ``repro fuzz`` command
that reproduces it.  ``pxdb_fuzz_*`` counters make long sessions
observable (``repro fuzz --metrics``).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..baseline.naive import naive_probabilities
from ..circuit import HAVE_NUMPY, BatchBinding, compile_formulas
from ..core.evaluator import IncrementalEngine, probabilities
from ..core.formulas import conjunction
from ..core.pxdb import PXDB
from ..core.sampler import sample
from ..pdoc.parameters import apply_parameters, parameter_slots, scaled_edge_bindings
from ..pdoc.pdocument import EXP, PDocument
from ..pdoc.serialize import pdocument_to_xml
from ..service.metrics import Metrics
from .scenarios import (
    AXES,
    CoverageLedger,
    ScenarioInstance,
    ScenarioSpec,
    generate,
    standard_matrix,
)

#: Relative tolerance of the float64 differential contract (PR 5).
REL_TOL = 1e-9

#: Instances whose documents have at most this many distributional edges
#: go through the exponential possible-worlds baseline.
DEFAULT_MAX_ENUM_EDGES = 10

DEFAULT_ARTIFACT_DIR = Path("tests") / "artifacts"

STAGES = (
    "exact-dp",
    "float64",
    "interval",
    "auto",
    "enum",
    "circuit",
    "rebind",
    "batch",
    "approx",
    "engine",
    "sample",
)

#: Conditioning steps of the ``engine`` stage's walk.
ENGINE_WALK_STEPS = 8


class FuzzDisagreement(AssertionError):
    """Two members of the differential suite disagreed on one instance."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


@dataclass
class FuzzConfig:
    """Knobs of one fuzz run (all deterministic given the run seed)."""

    backends: tuple[str, ...] = ("float64", "interval", "auto")
    max_enum_edges: int = DEFAULT_MAX_ENUM_EDGES
    check_circuit: bool = True
    check_batch: bool = True
    check_approx: bool = True
    approx_epsilon: float = 0.3
    approx_delta: float = 1e-6
    approx_max_samples: int = 400

    @classmethod
    def from_backends(cls, names: Iterable[str] | None, **overrides) -> "FuzzConfig":
        """Map CLI ``--backends`` tokens onto a config: numeric backend
        names gate stages 2–4, ``circuit``/``batch``/``approx`` gate
        their stages; ``all`` (or None) enables everything."""
        if names is None:
            return cls(**overrides)
        tokens = [token.strip() for token in names if token.strip()]
        if "all" in tokens:
            return cls(**overrides)
        known = {"float64", "interval", "auto", "circuit", "batch", "approx"}
        unknown = sorted(set(tokens) - known)
        if unknown:
            raise ValueError(
                f"unknown backend {unknown[0]!r} "
                f"(choose from {', '.join(sorted(known))} or 'all')"
            )
        numeric = tuple(t for t in tokens if t in ("float64", "interval", "auto"))
        return cls(
            backends=numeric,
            check_circuit="circuit" in tokens,
            check_batch="batch" in tokens,
            check_approx="approx" in tokens,
            **overrides,
        )


@dataclass
class FuzzFailure:
    """One shrunk disagreement, ready to persist as an artifact."""

    spec: ScenarioSpec
    seed: int
    stage: str
    detail: str
    original_spec: ScenarioSpec
    artifact_path: str | None = None

    def to_artifact(self) -> dict:
        pdoc = generate(self.spec, self.seed).pdoc
        return {
            "schema": "pxdb-fuzz-failure/1",
            "stage": self.stage,
            "detail": self.detail,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "original_spec": self.original_spec.to_dict(),
            "pdocument_xml": pdocument_to_xml(pdoc),
            "reproduce": (
                f"repro fuzz --spec <this file> --budget 1"
            ),
        }


@dataclass
class FuzzReport:
    """The outcome of one :func:`run_fuzz` session."""

    seed: int
    budget: int
    instances: int = 0
    #: Instances whose root has fan-out ≥ 2 (the engine's outside table).
    wide_roots: int = 0
    elapsed_s: float = 0.0
    truncated: bool = False
    checks: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    ledger: CoverageLedger = field(default_factory=CoverageLedger)

    @property
    def disagreements(self) -> int:
        return len(self.failures)

    def as_dict(self) -> dict:
        return {
            "schema": "pxdb-fuzz-report/1",
            "seed": self.seed,
            "budget": self.budget,
            "instances": self.instances,
            "wide_roots": self.wide_roots,
            "elapsed_s": round(self.elapsed_s, 3),
            "truncated": self.truncated,
            "checks": dict(self.checks),
            "skipped": dict(self.skipped),
            "disagreements": self.disagreements,
            "failures": [
                {
                    "stage": failure.stage,
                    "spec": failure.spec.to_dict(),
                    "seed": failure.seed,
                    "artifact": failure.artifact_path,
                }
                for failure in self.failures
            ],
            "coverage": self.ledger.report(),
        }


# -- numeric comparisons (the PR-5 differential contract) ---------------------

def _close(approx: float, exact: Fraction) -> bool:
    target = float(exact)
    if target == 0.0:
        return abs(approx) < 1e-12
    return abs(approx - target) <= REL_TOL * abs(target)


def _contains(interval: tuple[float, float], exact: Fraction) -> bool:
    lo, hi = interval
    return lo <= float(exact) <= hi


def perturb_parameters(
    pdoc: PDocument, rng: random.Random
) -> PDocument:
    """A clone of ``pdoc`` with every probability parameter perturbed:
    ind/mux edges scaled into (0, 1], exp subset weights jittered and
    renormalized so each distribution still sums to exactly 1.  Applied
    through :func:`apply_parameters`, so the per-node laws are validated
    and only touched nodes get their fingerprints invalidated — exactly
    the path ``rebind`` consumes."""
    clone = pdoc.clone()
    slots = parameter_slots(clone)
    groups: dict[int, list] = {}
    order: list[int] = []
    for slot in slots:
        key = id(slot.node)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(slot)
    values: dict[tuple[int, str, int], Fraction] = {}
    for key in order:
        group = groups[key]
        node = group[0].node
        if node.kind == EXP:
            raw = [
                slot.value * Fraction(rng.randrange(500, 1000), 1000)
                for slot in group
            ]
            total = sum(raw)
            for slot, value in zip(group, raw):
                values[(key, slot.field, slot.index)] = value / total
        else:
            for slot in group:
                values[(key, slot.field, slot.index)] = slot.value * Fraction(
                    rng.randrange(500, 1000), 1000
                )
    vector = [values[(id(slot.node), slot.field, slot.index)] for slot in slots]
    apply_parameters(clone, vector)
    return clone


# -- the per-instance differential check --------------------------------------

def check_instance(
    instance: ScenarioInstance,
    config: FuzzConfig | None = None,
    metrics: Metrics | None = None,
) -> dict[str, int]:
    """Run one instance through every enabled differential stage.

    Returns ``{stage: 1}`` for the stages that ran (0 = skipped); raises
    :class:`FuzzDisagreement` on the first stage whose result contradicts
    the exact reference."""
    config = config or FuzzConfig()
    ran: dict[str, int] = {stage: 0 for stage in STAGES}

    def bump(stage: str) -> None:
        ran[stage] = 1
        if metrics is not None:
            metrics.increment(f"fuzz.checks.{stage.replace('-', '_')}")

    pdoc = instance.pdoc
    condition = instance.condition
    events = list(instance.dp_events)
    formulas = [condition] + [conjunction([condition, e]) for e in events]

    # 1. exact Fraction reference.
    exact = probabilities(pdoc, formulas)
    if not 0 < exact[0] <= 1:
        raise FuzzDisagreement(
            "exact-dp", f"Pr(P |= C) = {exact[0]} outside (0, 1]"
        )
    for value in exact[1:]:
        if not 0 <= value <= exact[0]:
            raise FuzzDisagreement(
                "exact-dp",
                f"Pr(C and e) = {value} outside [0, Pr(C) = {exact[0]}]",
            )
    bump("exact-dp")

    # 2–4. numeric backends against the exact reference.
    if "float64" in config.backends:
        floats = probabilities(pdoc, formulas, backend="float64")
        for index, (value, reference) in enumerate(zip(floats, exact)):
            if not _close(value, reference):
                raise FuzzDisagreement(
                    "float64",
                    f"output {index}: {value!r} vs exact {reference} "
                    f"(= {float(reference)!r})",
                )
        bump("float64")
    if "interval" in config.backends:
        enclosures = probabilities(pdoc, formulas, backend="interval")
        for index, (enclosure, reference) in enumerate(zip(enclosures, exact)):
            if not _contains(tuple(enclosure), reference):
                raise FuzzDisagreement(
                    "interval",
                    f"output {index}: enclosure {enclosure} misses exact "
                    f"{float(reference)!r}",
                )
        bump("interval")
    if "auto" in config.backends:
        auto = probabilities(pdoc, formulas, backend="auto")
        for index, (value, reference) in enumerate(zip(auto, exact)):
            if (value > 0) != (reference > 0):
                raise FuzzDisagreement(
                    "auto",
                    f"output {index}: sign of {value!r} disagrees with "
                    f"exact {reference}",
                )
            if isinstance(value, Fraction):
                if value != reference:
                    raise FuzzDisagreement(
                        "auto",
                        f"output {index}: exact fallback {value} != "
                        f"reference {reference}",
                    )
            elif not _contains((value - 1e-9, value + 1e-9), reference) and \
                    not _close(value, reference):
                raise FuzzDisagreement(
                    "auto",
                    f"output {index}: midpoint {value!r} far from exact "
                    f"{float(reference)!r}",
                )
        bump("auto")

    # 5. possible-worlds baseline — also the SUM/AVG oracle.
    hard_exact: list[Fraction] = []
    enumerable = instance.dist_edges() <= config.max_enum_edges
    if enumerable:
        hard_formulas = [
            conjunction([condition, event]) for event in instance.hard_events
        ]
        enum = naive_probabilities(pdoc, formulas + hard_formulas)
        for index, (value, reference) in enumerate(zip(enum, exact)):
            if value != reference:
                raise FuzzDisagreement(
                    "enum",
                    f"output {index}: enumeration {value} != DP {reference}",
                )
        hard_exact = enum[len(formulas):]
        bump("enum")
    elif metrics is not None:
        metrics.increment("fuzz.enum_skipped")

    # 6–8. compiled circuit: forward, rebind, batch columns.
    circuit = None
    if config.check_circuit:
        circuit = compile_formulas(pdoc, formulas)
        forward = circuit.forward()
        if forward != exact:
            raise FuzzDisagreement(
                "circuit", f"exact forward {forward} != DP {exact}"
            )
        for index, value in enumerate(circuit.forward(backend="float64")):
            if not _close(value, exact[index]):
                raise FuzzDisagreement(
                    "circuit",
                    f"float64 forward output {index}: {value!r} vs exact "
                    f"{float(exact[index])!r}",
                )
        bump("circuit")

        perturb_rng = random.Random(instance.seed ^ 0x5EED)
        perturbed = perturb_parameters(pdoc, perturb_rng)
        rebound = circuit.rebind(perturbed)
        fresh = probabilities(perturbed, formulas)
        if rebound.forward() != fresh:
            raise FuzzDisagreement(
                "rebind",
                f"rebound forward {rebound.forward()} != fresh DP {fresh} "
                "on the perturbed document",
            )
        bump("rebind")

    if config.check_batch and circuit is not None:
        if HAVE_NUMPY and circuit.num_params > 0:
            import struct

            factor_rng = random.Random(instance.seed ^ 0xBA7C4)
            factors = [
                Fraction(factor_rng.randrange(1, 1_000_000), 1_000_000)
                for _ in range(3)
            ]
            rows = scaled_edge_bindings(pdoc, factors)
            columns = circuit.forward_batch(BatchBinding.from_rows(rows))
            for i, row in enumerate(rows):
                circuit.set_param_values(row)
                scalar = circuit.forward(backend="float64")
                for j, value in enumerate(scalar):
                    if struct.pack("<d", float(value)) != struct.pack(
                        "<d", float(columns[j, i])
                    ):
                        raise FuzzDisagreement(
                            "batch",
                            f"binding {i} output {j}: batch column "
                            f"{columns[j, i]!r} not bitwise equal to scalar "
                            f"{value!r}",
                        )
            bump("batch")
        elif metrics is not None:
            metrics.increment("fuzz.batch_skipped")

    # 9. approx interval contains the exact conditional probability.
    if config.check_approx:
        if hard_exact:
            targets = list(zip(instance.hard_events, hard_exact))
        else:
            targets = [(events[0], exact[1])] if events else []
        if targets:
            pxdb = PXDB(pdoc, instance.constraints, check=False)
            for offset, (event, joint) in enumerate(targets[:2]):
                reference = joint / exact[0]
                result = pxdb.approx_probability(
                    event,
                    epsilon=config.approx_epsilon,
                    delta=config.approx_delta,
                    max_samples=config.approx_max_samples,
                    seed=instance.seed * 31 + offset,
                )
                if not result.lo <= float(reference) <= result.hi:
                    raise FuzzDisagreement(
                        "approx",
                        f"event {offset}: interval [{result.lo}, {result.hi}] "
                        f"misses exact conditional {float(reference)!r} "
                        f"(delta={config.approx_delta})",
                    )
            bump("approx")

    # 10. the incremental engine along a seeded conditioning walk.
    _check_engine_walk(pdoc, formulas, random.Random(instance.seed ^ 0xE6E))
    bump("engine")

    # 11. seeded SAMPLE⟨C⟩ draws: possible worlds satisfying C; auto = exact.
    pxdb = PXDB(pdoc, instance.constraints, check=False)
    draws = {}
    for backend in ("exact", "float64", "auto"):
        if backend != "exact" and backend not in config.backends:
            continue
        try:
            draws[backend] = sample(
                pdoc, condition, random.Random(instance.seed), backend=backend
            )
        except ValueError as exc:
            if backend == "float64" and "underflowed" in str(exc):
                continue  # documented: float64 cannot sample this Pr(P |= C)
            raise FuzzDisagreement("sample", f"{backend} draw failed: {exc}")
        if not pxdb.document_probability(draws[backend]) > 0:
            raise FuzzDisagreement(
                "sample",
                f"{backend} drew a document that is not a possible world "
                f"satisfying C: {sorted(draws[backend].uid_set())}",
            )
    if "auto" in draws and draws["auto"].uid_set() != draws["exact"].uid_set():
        raise FuzzDisagreement(
            "sample",
            f"auto draw {sorted(draws['auto'].uid_set())} != exact draw "
            f"{sorted(draws['exact'].uid_set())} under one seed",
        )
    bump("sample")

    return ran


def _check_engine_walk(
    pdoc: PDocument, formulas: list, rng: random.Random
) -> None:
    """Condition a clone in place, in a seeded random edge order, and
    compare the engine's outputs with a fresh exact pass after each step.
    The first conditioning is rolled back with ``restore_edge`` and
    redone the other way, so the engine also sees a reverted child."""
    engine = IncrementalEngine.for_formulas(formulas)
    current = pdoc.clone()

    def compare(step: str) -> None:
        got = engine.probabilities(current)
        want = probabilities(current, formulas)
        if got != want:
            raise FuzzDisagreement(
                "engine", f"{step}: engine {got} != fresh DP {want}"
            )

    compare("start")
    edges = current.dist_edges()
    rng.shuffle(edges)
    steps = 0
    for edge in edges:
        if steps == ENGINE_WALK_STEPS:
            break
        prior = current.edge_prob(*edge)
        if prior == 0 or prior == 1:
            continue
        chosen = rng.random() < 0.5
        snapshot = current.edge_snapshot(edge)
        current.condition_edge_in_place(edge, chosen)
        steps += 1
        compare(f"step {steps}")
        if steps == 1:
            current.restore_edge(edge, snapshot)
            compare("restore")
            current.condition_edge_in_place(edge, not chosen)
            steps += 1
            compare(f"step {steps}")


# -- shrinking ---------------------------------------------------------------

def _failure_stage(
    spec: ScenarioSpec, seed: int, config: FuzzConfig
) -> tuple[str, str] | None:
    """(stage, detail) if (spec, seed) still fails, else None."""
    try:
        check_instance(generate(spec, seed), config)
    except FuzzDisagreement as exc:
        return exc.stage, exc.detail
    except Exception as exc:  # generation/evaluator crash: also a failure
        return "crash", f"{type(exc).__name__}: {exc}"
    return None


def shrink_spec(
    spec: ScenarioSpec,
    seed: int,
    fails: Callable[[ScenarioSpec, int], bool],
) -> ScenarioSpec:
    """Greedily reset axes toward their simplest value (the first entry
    of each :data:`AXES` row) while the failure persists.  Terminates:
    every adoption strictly simplifies one axis."""
    current = spec
    changed = True
    while changed:
        changed = False
        for axis in AXES:
            if getattr(current, axis) == AXES[axis][0]:
                continue
            candidate = current.simplified(axis)
            if fails(candidate, seed):
                current = candidate
                changed = True
    return current


def write_artifact(failure: FuzzFailure, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    name = f"fuzz-{failure.stage}-{failure.spec.name}-seed{failure.seed}.json"
    path = directory / name
    artifact = failure.to_artifact()
    artifact["reproduce"] = (
        f"PYTHONPATH=src python -m repro.cli fuzz --spec {path} --budget 1"
    )
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    failure.artifact_path = str(path)
    return path


# -- the fuzz loop ------------------------------------------------------------

def run_fuzz(
    specs: Sequence[ScenarioSpec] | None = None,
    seed: int = 0,
    budget: int = 50,
    config: FuzzConfig | None = None,
    artifact_dir: Path | str | None = DEFAULT_ARTIFACT_DIR,
    metrics: Metrics | None = None,
    time_budget: float | None = None,
    progress: Callable[[int, "FuzzReport"], None] | None = None,
) -> FuzzReport:
    """Fuzz ``budget`` instances: cycle ``specs`` (default: the standard
    matrix), instance ``i`` generated at seed ``seed + i`` — fully
    deterministic given ``seed``.  Disagreements are shrunk and persisted
    to ``artifact_dir``; the report carries per-stage check counts and
    the pairwise-coverage ledger."""
    specs = tuple(standard_matrix() if specs is None else specs)
    config = config or FuzzConfig()
    report = FuzzReport(seed=seed, budget=budget)
    report.checks = {stage: 0 for stage in STAGES}
    started = time.monotonic()
    for index in range(budget):
        if time_budget is not None and time.monotonic() - started > time_budget:
            report.truncated = True
            break
        spec = specs[index % len(specs)]
        instance_seed = seed + index
        if metrics is not None:
            metrics.increment("fuzz.instances")
        try:
            instance = generate(spec, instance_seed)
            report.wide_roots += len(instance.pdoc.root.children) >= 2
            ran = check_instance(instance, config, metrics)
        except Exception as exc:
            if isinstance(exc, FuzzDisagreement):
                stage, detail = exc.stage, exc.detail
            else:
                stage, detail = "crash", f"{type(exc).__name__}: {exc}"
            if metrics is not None:
                metrics.increment("fuzz.disagreements")
            minimal = shrink_spec(
                spec,
                instance_seed,
                lambda s, sd: _failure_stage(s, sd, config) is not None,
            )
            final = _failure_stage(minimal, instance_seed, config)
            if final is not None:
                stage, detail = final
            failure = FuzzFailure(
                spec=minimal,
                seed=instance_seed,
                stage=stage,
                detail=detail,
                original_spec=spec,
            )
            if artifact_dir is not None:
                write_artifact(failure, Path(artifact_dir))
            report.failures.append(failure)
            report.ledger.record(spec.features, tag=f"{spec.name}@{instance_seed}")
            report.instances += 1
            continue
        for stage, flag in ran.items():
            report.checks[stage] += flag
            if not flag:
                report.skipped[stage] = report.skipped.get(stage, 0) + 1
        report.ledger.record(spec.features, tag=f"{spec.name}@{instance_seed}")
        report.instances += 1
        if progress is not None:
            progress(index, report)
    report.elapsed_s = time.monotonic() - started
    return report


def load_spec_file(path: Path | str) -> tuple[list[ScenarioSpec], int | None]:
    """Parse a ``--spec`` file: a failure artifact (``{"spec": ..,
    "seed": ..}``), a single spec object, or a list of spec objects.
    Returns (specs, seed-from-artifact-or-None)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "spec" in data:
        return [ScenarioSpec.from_dict(data["spec"])], data.get("seed")
    if isinstance(data, dict):
        return [ScenarioSpec.from_dict(data)], None
    if isinstance(data, list):
        return [ScenarioSpec.from_dict(entry) for entry in data], None
    raise ValueError(f"unrecognized spec file shape: {type(data).__name__}")
