"""Tests for the differential fuzz harness (repro.workloads.fuzz) and the
satellite edges the PR-5 suite never fuzzed: approx interval-contains-
exact on generated aggregate events, concurrent-dispatch identity on
generated mixed workloads, and circuit ``rebind()`` after generated
parameter perturbations.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baseline.naive import naive_probabilities
from repro.circuit import compile_formulas
from repro.core.evaluator import probabilities
from repro.core.formulas import conjunction
from repro.core.pxdb import PXDB
from repro.pdoc.parameters import parameter_values
from repro.service.metrics import Metrics
from repro.service.server import PXDBService, query_payload, sat_payload, topk_payload
from repro.service.store import DocumentStore
from repro.workloads.fuzz import (
    DEFAULT_MAX_ENUM_EDGES,
    FuzzConfig,
    FuzzDisagreement,
    FuzzFailure,
    check_instance,
    load_spec_file,
    perturb_parameters,
    run_fuzz,
    shrink_spec,
    write_artifact,
)
from repro.workloads.scenarios import (
    AXES,
    ScenarioSpec,
    generate,
    standard_matrix,
)

from .test_service import dispatch_concurrently


# -- the harness itself -------------------------------------------------------

def test_run_fuzz_smoke_zero_disagreements(tmp_path):
    metrics = Metrics()
    report = run_fuzz(
        seed=7, budget=6, artifact_dir=tmp_path, metrics=metrics
    )
    assert report.instances == 6
    assert report.disagreements == 0
    assert report.checks["exact-dp"] == 6
    assert report.checks["float64"] == 6
    assert report.checks["circuit"] == 6
    assert report.checks["rebind"] == 6
    assert metrics.counter("fuzz.instances") == 6
    assert metrics.counter("fuzz.disagreements") == 0
    assert not list(tmp_path.iterdir())
    # Counters surface under the pxdb_fuzz_* namespace.
    rendered = metrics.render_prometheus()
    assert "pxdb_fuzz_instances_total 6" in rendered


def test_run_fuzz_is_deterministic(tmp_path):
    first = run_fuzz(seed=3, budget=4, artifact_dir=tmp_path)
    second = run_fuzz(seed=3, budget=4, artifact_dir=tmp_path)
    assert first.as_dict()["checks"] == second.as_dict()["checks"]
    assert first.ledger.report()["instances"] == second.ledger.report()["instances"]


def test_check_instance_reports_which_stages_ran():
    instance = generate(ScenarioSpec(), seed=1)
    ran = check_instance(instance, FuzzConfig(check_approx=False))
    assert ran["exact-dp"] == 1
    assert ran["float64"] == 1
    assert ran["approx"] == 0
    # A restricted backend list gates the corresponding stages.
    ran = check_instance(
        instance,
        FuzzConfig(
            backends=("float64",),
            check_circuit=False,
            check_batch=False,
            check_approx=False,
        ),
    )
    assert ran["interval"] == 0
    assert ran["auto"] == 0
    assert ran["circuit"] == 0


def test_check_instance_skips_enumeration_above_the_edge_bound():
    instance = generate(
        ScenarioSpec(kinds="mixed", depth="deep", fanout="wide"), seed=2
    )
    config = FuzzConfig(max_enum_edges=0, check_approx=False)
    ran = check_instance(instance, config)
    assert ran["enum"] == 0


def test_fuzz_config_from_backends():
    config = FuzzConfig.from_backends(["float64", "approx"])
    assert config.backends == ("float64",)
    assert config.check_approx and not config.check_circuit
    assert FuzzConfig.from_backends(["all"]).check_batch
    assert FuzzConfig.from_backends(None).backends == (
        "float64", "interval", "auto"
    )
    with pytest.raises(ValueError, match="unknown backend"):
        FuzzConfig.from_backends(["quantum"])


# -- shrinking and artifacts --------------------------------------------------

def test_shrink_resets_irrelevant_axes_to_simplest():
    spec = ScenarioSpec(kinds="mixed", depth="deep", fanout="wide",
                        mass="extreme", constraint="cformula",
                        aggregate="sum")
    minimal = shrink_spec(
        spec, 7, lambda s, seed: s.mass == "extreme" and s.depth == "deep"
    )
    assert minimal == ScenarioSpec(depth="deep", mass="extreme")
    for axis in ("kinds", "fanout", "constraint", "aggregate"):
        assert getattr(minimal, axis) == AXES[axis][0]


def test_shrink_keeps_an_already_minimal_spec():
    spec = ScenarioSpec()
    assert shrink_spec(spec, 0, lambda s, seed: True) == spec


def test_artifact_round_trip(tmp_path):
    failure = FuzzFailure(
        spec=ScenarioSpec(depth="deep", mass="extreme"),
        seed=11,
        stage="float64",
        detail="output 1 drifted",
        original_spec=ScenarioSpec(depth="deep", mass="extreme",
                                   constraint="cformula"),
    )
    path = write_artifact(failure, tmp_path)
    assert failure.artifact_path == str(path)
    data = json.loads(path.read_text())
    assert data["schema"] == "pxdb-fuzz-failure/1"
    assert data["stage"] == "float64"
    assert "repro" in data["reproduce"] and str(path) in data["reproduce"]
    assert "<" in data["pdocument_xml"]
    specs, seed = load_spec_file(path)
    assert specs == [failure.spec]
    assert seed == 11


def test_load_spec_file_accepts_plain_specs_and_lists(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps({"kinds": "mux", "depth": "deep"}))
    specs, seed = load_spec_file(single)
    assert specs == [ScenarioSpec(kinds="mux", depth="deep")] and seed is None

    many = tmp_path / "many.json"
    many.write_text(json.dumps([{"kinds": "ind"}, {"kinds": "exp"}]))
    specs, _ = load_spec_file(many)
    assert [s.kinds for s in specs] == ["ind", "exp"]


def test_injected_disagreement_is_shrunk_and_persisted(tmp_path, monkeypatch):
    import repro.workloads.fuzz as fuzz_module

    real_check = fuzz_module.check_instance

    def broken_check(instance, config=None, metrics=None):
        if instance.spec.mass == "extreme":
            raise FuzzDisagreement("float64", "injected for the test")
        return real_check(instance, config, metrics)

    monkeypatch.setattr(fuzz_module, "check_instance", broken_check)
    metrics = Metrics()
    spec = ScenarioSpec(kinds="mixed", depth="deep", mass="extreme",
                        constraint="atmost", aggregate="boolean")
    report = fuzz_module.run_fuzz(
        specs=[spec], seed=5, budget=1, artifact_dir=tmp_path, metrics=metrics
    )
    assert report.disagreements == 1
    assert metrics.counter("fuzz.disagreements") == 1
    failure = report.failures[0]
    # Every axis irrelevant to the (injected) failure shrank to simplest.
    assert failure.spec == ScenarioSpec(mass="extreme")
    assert failure.stage == "float64"
    artifacts = list(tmp_path.glob("fuzz-*.json"))
    assert len(artifacts) == 1
    assert json.loads(artifacts[0].read_text())["spec"]["mass"] == "extreme"


# -- perturbation helper ------------------------------------------------------

def test_perturb_parameters_keeps_documents_valid():
    for spec_index, spec in enumerate(standard_matrix()[:6]):
        instance = generate(spec, seed=spec_index)
        rng = random.Random(spec_index)
        perturbed = perturb_parameters(instance.pdoc, rng)
        perturbed.validate()
        assert perturbed is not instance.pdoc
        # The original is untouched.
        again = generate(spec, seed=spec_index)
        assert parameter_values(instance.pdoc) == parameter_values(again.pdoc)
        # Exp distributions still sum to exactly 1.
        for node in perturbed.nodes():
            if node.subsets:
                assert sum(w for _, w in node.subsets) == 1


# -- satellite: the previously unfuzzed differential edges --------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_approx_interval_contains_exact_on_generated_aggregates(seed):
    """Approx tier vs exact enumeration on generated SUM/AVG events —
    the NP-hard side (Proposition 7.2) where the DP offers no reference."""
    spec = ScenarioSpec(kinds="mux", mass="skewed", constraint="atmost",
                        aggregate="sum")
    instance = generate(spec, seed)
    assert instance.dist_edges() <= DEFAULT_MAX_ENUM_EDGES
    condition = instance.condition
    exact = naive_probabilities(
        instance.pdoc,
        [condition] + [
            conjunction([condition, event]) for event in instance.hard_events
        ],
    )
    assert exact[0] > 0
    pxdb = PXDB(instance.pdoc, instance.constraints)
    for offset, event in enumerate(instance.hard_events):
        reference = exact[1 + offset] / exact[0]
        result = pxdb.approx_probability(
            event, epsilon=0.25, delta=1e-6, max_samples=400,
            seed=seed * 97 + offset,
        )
        assert result.lo <= float(reference) <= result.hi


def test_scheduler_heterogeneous_batch_identity_on_generated_workload():
    """Concurrent ``dispatch_route`` calls on a *generated* mixed workload
    return bodies identical to sequential evaluation."""
    instance = generate(
        ScenarioSpec(kinds="mixed", depth="deep", fanout="wide",
                     mass="skewed", constraint="atmost"),
        seed=4,
    )
    store = DocumentStore()
    store.add("gen", PXDB(instance.pdoc, instance.constraints))
    queries = ["r//$*", "$*"]
    requests = [
        ("/sat", {"db": "gen"}),
        ("/query", {"db": "gen", "query": queries[0]}),
        ("/topk", {"db": "gen", "query": queries[0], "k": 2}),
        ("/query", {"db": "gen", "query": queries[1]}),
        ("/sat", {"db": "gen"}),
    ]
    served = dispatch_concurrently(PXDBService(store), requests)
    fresh_store = DocumentStore()
    fresh_store.add("gen", PXDB(instance.pdoc.clone(), instance.constraints))
    fresh = fresh_store.get("gen")
    expected = [
        sat_payload(fresh),
        query_payload(fresh, queries[0]),
        topk_payload(fresh, queries[0], 2),
        query_payload(fresh, queries[1]),
        sat_payload(fresh),
    ]
    assert json.dumps(served) == json.dumps(
        [[200, {"ok": True, **payload}] for payload in expected]
    )


@pytest.mark.parametrize("spec", [
    ScenarioSpec(kinds="ind", depth="deep", mass="reestimated"),
    ScenarioSpec(kinds="exp", fanout="wide", mass="skewed"),
    ScenarioSpec(kinds="mixed", depth="deep", fanout="wide",
                 aggregate="ratio"),
], ids=lambda s: s.name)
def test_circuit_rebind_after_generated_perturbations(spec):
    """rebind() on a parameter-perturbed generated document equals a
    fresh exact DP pass over the perturbed document."""
    instance = generate(spec, seed=6)
    condition = instance.condition
    formulas = [condition] + [
        conjunction([condition, event]) for event in instance.dp_events
    ]
    circuit = compile_formulas(instance.pdoc, formulas)
    assert circuit.forward() == probabilities(instance.pdoc, formulas)
    rng = random.Random(99)
    for _ in range(3):
        perturbed = perturb_parameters(instance.pdoc, rng)
        rebound = circuit.rebind(perturbed)
        assert rebound.forward() == probabilities(perturbed, formulas)
        # float64 forward of the rebound circuit stays within tolerance.
        exact = probabilities(perturbed, formulas)
        for value, reference in zip(
            rebound.forward(backend="float64"), exact
        ):
            target = float(reference)
            assert value == pytest.approx(target, rel=1e-9, abs=1e-12)
