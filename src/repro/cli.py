"""Command-line interface: ``python -m repro <command> …``.

Operates on p-documents serialized in the ProTDB-style XML of
``repro.pdoc.serialize`` and constraint files in the textual syntax of
``repro.core.constraint_parser``.

Commands
--------

* ``validate  PDOC``                       — well-formedness check (Section 3.1);
* ``worlds    PDOC [--limit K]``           — the K most probable worlds;
* ``sat       PDOC -c CONSTRAINTS``        — CONSTRAINT-SAT⟨C⟩: Pr(P ⊨ C);
* ``query     PDOC -q QUERY [-c FILE]``    — EVAL⟨Q, C⟩: per-answer probabilities;
* ``sample    PDOC [-c FILE] [-n N] [--stats] [--no-incremental]``
                                           — SAMPLE⟨C⟩: conditioned samples (Fig. 3);
* ``approx    PDOC [-c FILE] -e EVENT [--epsilon E] [--delta D] [--seed S]``
                                           — certified Monte-Carlo estimate of an
                                             NP-hard aggregate event (repro.approx);
* ``check     PDOC DOCUMENT -c FILE``      — explain a document's violations;
* ``skeleton  PDOC``                       — print the skeleton document;
* ``circuit   {compile,eval,grad,stats,sweep} PDOC [-c FILE] [-q PATTERN]``
                                           — arithmetic-circuit compilation
                                             (docs/CIRCUIT.md): compile the
                                             c-formula DP, evaluate it (optionally
                                             after ``--rebind``-ing another
                                             p-document's probabilities), or rank
                                             parameters by sensitivity;
* ``serve     --db NAME=PDOC[:FILE] …``    — the JSON/HTTP service (docs/SERVICE.md);
* ``trace     {top,show,export} [--url U]``— span traces of a running service
                                             (docs/OBSERVABILITY.md).

Example::

    python -m repro sat university.pxml -c constraints.txt

Every load failure (missing file, malformed XML, bad constraint syntax)
prints a one-line ``error: …`` to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .approx import DEFAULT_DELTA as APPROX_DELTA
from .approx import DEFAULT_EPSILON as APPROX_EPSILON
from .approx import DEFAULT_MAX_SAMPLES as APPROX_MAX_SAMPLES
from .approx import RULES as APPROX_RULES
from .core.constraints import constraints_formula
from .core.evaluator import probability
from .core.explain import explain_violations
from .core.pxdb import PXDB
from .numeric import BACKEND_NAMES, Interval, maybe_positive, value_fields
from .obs import package_version
from .pdoc.enumerate import world_documents
from .service.store import read_constraints, read_document, read_pdocument
from .xmltree.serialize import document_to_xml


def _load_pdocument(path: str):
    return read_pdocument(path)


def _load_constraints(path: str | None):
    return read_constraints(path)


def _cmd_validate(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    pdoc.validate()
    print(
        f"ok: {pdoc.ordinary_size()} ordinary nodes, "
        f"{len(pdoc.dist_edges())} distributional edges"
    )
    return 0


def _cmd_worlds(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    edges = len(pdoc.dist_edges())
    if edges > args.max_edges:
        print(
            f"refusing: {edges} distributional edges means up to 2^{edges} "
            f"worlds (raise --max-edges to force)",
            file=sys.stderr,
        )
        return 1
    for document, prob in world_documents(pdoc)[: args.limit]:
        print(f"Pr = {prob}  ≈ {float(prob):.6f}")
        print(document_to_xml(document, style="tags"))
        print()
    return 0


def _rank(value):
    """Descending-sort key across backends (interval → midpoint)."""
    return value.mid if isinstance(value, Interval) else value


def _cmd_sat(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    constraints = _load_constraints(args.constraints)
    value = probability(pdoc, constraints_formula(constraints), backend=args.backend)
    text, approx = value_fields(value)
    print(f"Pr(P |= C) = {text}  ≈ {approx:.6f}")
    print(f"well-defined PXDB: {maybe_positive(value)}")
    return 0


def _cmd_query(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    constraints = _load_constraints(args.constraints)
    db = PXDB(pdoc, constraints)
    table = db.query_labels(args.query, backend=args.backend)
    for labels, prob in sorted(
        table.items(), key=lambda kv: (-_rank(kv[1]), str(kv[0]))
    ):
        rendered = ", ".join(str(v) for v in labels)
        text, approx = value_fields(prob)
        print(f"({rendered})  Pr = {text}  ≈ {approx:.6f}")
    return 0


def _cmd_sample(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    constraints = _load_constraints(args.constraints)
    db = PXDB(pdoc, constraints)
    rng = random.Random(args.seed)
    incremental = not args.no_incremental
    for _ in range(args.count):
        print(
            document_to_xml(
                db.sample(rng, incremental=incremental, backend=args.backend),
                style="tags",
            )
        )
        print()
    if args.stats:
        stats = db.sample_engine.stats()
        print(f"samples:               {args.count}", file=sys.stderr)
        print(f"evaluator runs:        {stats['runs']}", file=sys.stderr)
        per_sample = stats["runs"] / args.count if args.count else 0.0
        print(f"evaluations/sample:    {per_sample:.1f}", file=sys.stderr)
        print(f"subtree dists computed: {stats['nodes_computed']}", file=sys.stderr)
        if incremental:
            print(
                f"cache hits/misses:     {stats['cache_hits']}/{stats['cache_misses']} "
                f"(hit rate {stats['hit_rate']:.1%})",
                file=sys.stderr,
            )
            print(f"cache entries:         {stats['cache_entries']}", file=sys.stderr)
        else:
            # The engine still drives the evaluations, but its cache is
            # cleared before each one — hit/miss counters would describe
            # intra-run sharing only, not the cross-run cache the flag
            # disabled, so they are suppressed rather than misreported.
            print(
                "incremental engine bypassed (--no-incremental): the counts "
                "above are from-scratch evaluation work; cross-run cache "
                "statistics do not apply",
                file=sys.stderr,
            )
    return 0


def _cmd_approx(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    constraints = _load_constraints(args.constraints)
    db = PXDB(pdoc, constraints)
    result = db.approx_probability(
        args.event,
        epsilon=args.epsilon,
        delta=args.delta,
        max_samples=args.max_samples,
        rule=args.rule,
        seed=args.seed,
        backend=args.backend or "auto",
    )
    print(f"Pr(event | C) ~= {result.estimate:.6f}")
    print(f"interval      = [{result.lo:.6f}, {result.hi:.6f}]  "
          f"(eps={result.epsilon:g}, delta={result.delta:g})")
    print(f"samples       = {result.n}  (rule={result.rule}, "
          f"stopped={result.stopped})")
    if result.seed is not None:
        print(f"seed          = {result.seed}")
    if result.stopped == "max_samples":
        print(
            "warning: sample budget exhausted before the +/-epsilon target; "
            "the interval above is the certified width at the budget",
            file=sys.stderr,
        )
    return 0


def _cmd_check(args) -> int:
    document = read_document(args.document)
    constraints = _load_constraints(args.constraints)
    violations = explain_violations(document, constraints)
    if not violations:
        print("document satisfies all constraints")
        return 0
    for violation in violations:
        print(violation.describe())
    return 1


def _cmd_skeleton(args) -> int:
    pdoc = _load_pdocument(args.pdocument)
    print(document_to_xml(pdoc.skeleton(), style="tags"))
    return 0


def _cmd_circuit(args) -> int:
    from .core.formulas import exists
    from .xmltree.parser import parse_boolean_pattern

    pdoc = _load_pdocument(args.pdocument)
    constraints = _load_constraints(args.constraints)
    db = PXDB(pdoc, constraints, check=False)
    events = []
    labels = []
    if args.query:
        events.append(exists(parse_boolean_pattern(args.query)))
        labels.append(f"Pr(P |= {args.query} AND C)")
    labels.append("Pr(P |= C)")
    circuit = db.compile_circuit(events)

    if args.action == "stats":
        for key, value in circuit.stats().items():
            print(f"{key:>8}: {value}")
        return 0

    if args.action == "compile":
        stats = circuit.stats()
        print(
            f"compiled: {stats['nodes']} nodes "
            f"({stats['adds']} add, {stats['muls']} mul, {stats['edges']} edges), "
            f"{stats['params']} parameters, {stats['outputs']} outputs"
        )
        for label, value in zip(labels, circuit.forward()):
            print(f"{label} = {value}  ≈ {float(value):.6f}")
        return 0

    if args.action == "eval":
        if args.rebind:
            circuit.rebind(_load_pdocument(args.rebind))
            print(f"re-bound to the probabilities of {args.rebind}")
        values = circuit.forward()
        for label, value in zip(labels, values):
            print(f"{label} = {value}  ≈ {float(value):.6f}")
        if args.query:
            denominator = values[-1]
            if denominator == 0:
                print("Pr(D |= event) undefined: Pr(P |= C) = 0")
                return 1
            conditional = values[0] / denominator
            print(
                f"Pr(D |= {args.query}) = {conditional}  ≈ {float(conditional):.6f}"
            )
        return 0

    if args.action == "sweep":
        return _circuit_sweep(args, db, circuit, labels)

    # grad: one backward sweep ranks every parameter by |d output / d theta|.
    rows = circuit.sensitivities(0)
    if args.top is not None:
        rows = rows[: args.top]
    print(f"d {labels[0]} / d theta, most influential first:")
    for row in rows:
        print(
            f"  {row['parameter']:<44} value={row['value']}  "
            f"d={row['derivative']}  ≈ {float(row['derivative']):+.6f}"
        )
    return 0


def _circuit_sweep(args, db, circuit, labels) -> int:
    """``repro circuit sweep``: evaluate the compiled circuit at many
    parameter bindings in one batched numpy pass (docs/CIRCUIT.md)."""
    import json as _json

    from .circuit.batch import require_numpy
    from .pdoc.parameters import scaled_edge_bindings

    require_numpy()
    factors = None
    if args.bindings:
        with open(args.bindings) as handle:
            raw = _json.load(handle)
        if not isinstance(raw, list) or not raw:
            raise ValueError(
                f"{args.bindings}: expected a non-empty JSON list of "
                "parameter vectors"
            )
        rows = [[Fraction(value) for value in row] for row in raw]
    else:
        if args.points < 1:
            raise ValueError("--points must be at least 1")
        lo_text, _, hi_text = args.scale.partition(":")
        try:
            lo, hi = Fraction(lo_text), Fraction(hi_text or lo_text)
        except (ValueError, ZeroDivisionError) as error:
            raise ValueError(f"invalid --scale {args.scale!r}: {error}") from error
        steps = max(args.points - 1, 1)
        factors = [
            lo + (hi - lo) * k / steps for k in range(args.points)
        ]
        rows = scaled_edge_bindings(db.pdoc, factors)
    outputs = circuit.forward_batch(rows)
    denominators = outputs[-1]
    print(
        f"sweep: {len(rows)} bindings x {circuit.num_params} parameters, "
        f"{len(circuit)} circuit nodes"
    )
    for index in range(len(rows)):
        prefix = f"[{index}]"
        if factors is not None:
            prefix += f" scale={float(factors[index]):.6f}"
        parts = [
            f"{label} = {outputs[j][index]:.6f}"
            for j, label in enumerate(labels)
        ]
        denominator = denominators[index]
        if args.query:
            if denominator > 0.0:
                parts.append(
                    f"Pr(D |= {args.query}) = {outputs[0][index] / denominator:.6f}"
                )
            else:
                parts.append(f"Pr(D |= {args.query}) undefined (Pr(P |= C) = 0)")
        print(f"{prefix}  " + "  ".join(parts))
    return 0


def _parse_db_spec(spec: str) -> tuple[str, str, str | None]:
    """``NAME=PDOC[:CONSTRAINTS]`` → (name, pdocument_path, constraints_path)."""
    if "=" not in spec:
        raise ValueError(
            f"invalid --db spec {spec!r}: expected NAME=PDOC[:CONSTRAINTS]"
        )
    name, _, paths = spec.partition("=")
    if not name:
        raise ValueError(f"invalid --db spec {spec!r}: empty name")
    pdocument_path, _, constraints_path = paths.partition(":")
    if not pdocument_path:
        raise ValueError(f"invalid --db spec {spec!r}: empty p-document path")
    return name, pdocument_path, constraints_path or None


def _cmd_serve(args) -> int:
    from .obs import configure_logging
    from .obs.spans import TRACER
    from .service.frontend import build_service, serve_async
    from .service.store import DocumentStore

    configure_logging(args.log_level, json_mode=args.log_json)
    TRACER.configure(
        enabled=args.trace,
        ring_size=args.trace_ring,
        jsonl_path=args.trace_jsonl,
        jsonl_max_bytes=args.trace_jsonl_max_bytes,
        tail_sample=args.trace_tail,
        tail_slow_ms=args.trace_tail_slow_ms,
        tail_rate=args.trace_tail_rate,
    )
    store = DocumentStore(max_entries=args.max_entries)
    for spec in args.db:
        name, pdocument_path, constraints_path = _parse_db_spec(spec)
        entry = store.register(name, pdocument_path, constraints_path)
        probability = entry.pxdb.constraint_probability()
        print(
            f"registered {name!r}: {pdocument_path}"
            + (f" + {constraints_path}" if constraints_path else "")
            + f"  Pr(P |= C) = {probability} ~= {float(probability):.6f}",
            file=sys.stderr,
        )
    if args.trace:
        print(
            f"tracing on: ring={args.trace_ring}"
            + (f", jsonl={args.trace_jsonl}" if args.trace_jsonl else "")
            + (
                f", tail sampling (slow>={args.trace_tail_slow_ms:g}ms, "
                f"rate={args.trace_tail_rate:g})"
                if args.trace_tail
                else ""
            ),
            file=sys.stderr,
        )
    if args.backend != "exact":
        print(f"default numeric backend: {args.backend}", file=sys.stderr)

    def _announce(address) -> None:
        print(f"serving PXDBs on http://{address[0]}:{address[1]}", file=sys.stderr)

    service = build_service(
        store,
        pool=args.pool,
        slow_ms=args.slow_ms,
        default_backend=args.backend,
        pool_timeout=args.pool_timeout,
    )
    if service.pool is not None:
        print(
            f"process pool: {args.pool} workers, {args.pool_timeout:g}s timeout",
            file=sys.stderr,
        )
    try:
        serve_async(
            service, args.host, args.port, verbose=args.verbose,
            drain_timeout=args.drain_timeout, on_bound=_announce,
        )
    finally:
        service.close()
    print("shutting down", file=sys.stderr)
    return 0


def _render_span_tree(node: dict, indent: int = 0) -> None:
    pad = "  " * indent
    attrs = node.get("attributes") or {}
    rendered = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    status = "" if node["status"] == "ok" else f"  [{node['status']}]"
    print(
        f"{pad}{node['name']}  {node['duration_ms']:.3f} ms"
        f"  (pid {node['pid']}){status}"
        + (f"  {rendered}" if rendered else "")
    )
    for child in node.get("children", ()):
        _render_span_tree(child, indent + 1)


def _cmd_trace(args) -> int:
    import json as _json

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.action == "show":
            if not args.trace_id:
                print("error: trace show requires a trace id", file=sys.stderr)
                return 2
            body = client.trace(args.trace_id)
            print(f"trace {body['trace_id']}: {len(body['spans'])} spans")
            for root in body["tree"]:
                _render_span_tree(root)
            return 0
        summaries = client.traces(slow_ms=args.slow_ms, limit=args.limit)
        if args.action == "top":
            if not summaries:
                print("no recorded traces (is the server running with --trace?)")
                return 0
            for row in summaries:
                print(
                    f"{row['trace_id']}  {row['duration_ms']:>10.3f} ms  "
                    f"{row['spans']:>3} spans  {row['name']}"
                    + ("" if row["status"] == "ok" else f"  [{row['status']}]")
                )
            return 0
        # export: each summary expanded to its full flat span list.
        dump = [client.trace(row["trace_id"]) for row in summaries]
        text = _json.dumps(dump, indent=2, default=str)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {len(dump)} traces to {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_obs(args) -> int:
    import json as _json

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.action == "profile":
            if (args.format or "collapsed") == "collapsed":
                text = client.profile("collapsed")
                if not text:
                    print(
                        "empty profile (no traces folded yet; is the server "
                        "running with --trace and taking requests?)",
                        file=sys.stderr,
                    )
            else:
                body = client.profile("json")
                text = _json.dumps(body.get("profile", body), indent=2)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text + ("\n" if text else ""))
                print(f"wrote profile to {args.output}", file=sys.stderr)
            elif text:
                print(text)
            return 0
        # costs
        body = client.costs()
        if args.format == "json":
            print(_json.dumps(body, indent=2, default=str))
            return 0
        entries = body.get("entries", [])
        if not entries:
            print("no cost records (is the server running with --trace?)")
            return 0
        print(
            f"{'route':<10} {'db':<16} {'requests':>8} "
            f"{'cost units':>12} {'ms':>10}"
        )
        for row in entries:
            print(
                f"{row['route']:<10} {row['db']:<16} "
                f"{row['requests']:>8} {row['cost_units']:>12} "
                f"{row['duration_ms']:>10.3f}"
            )
        return 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_stats(args) -> int:
    from .pdoc.stats import summary

    pdoc = _load_pdocument(args.pdocument)
    report = summary(pdoc)
    for key, value in report.items():
        if key == "expected_size":
            print(f"{key:>22}: {value} ≈ {float(value):.3f}")
        elif key == "process_entropy_bits":
            print(f"{key:>22}: {value:.3f}")
        else:
            print(f"{key:>22}: {value}")
    return 0


def _cmd_fuzz(args) -> int:
    import json as _json
    from pathlib import Path

    from .service.metrics import Metrics
    from .workloads.fuzz import FuzzConfig, load_spec_file, run_fuzz
    from .workloads.scenarios import CoverageLedger, standard_matrix

    if args.list:
        matrix = standard_matrix()
        ledger = CoverageLedger()
        for spec in matrix:
            ledger.record(spec.features, tag=spec.name)
        for spec in matrix:
            print(spec.name)
        print(
            f"{len(matrix)} specs, pairwise coverage "
            f"{ledger.coverage():.1%} ({len(ledger.hit)}/"
            f"{len(ledger.universe)} pairs)"
        )
        return 0

    seed = args.seed
    if args.spec and args.spec != "standard":
        specs, artifact_seed = load_spec_file(args.spec)
        if seed is None:
            seed = artifact_seed
    else:
        specs = None
    if seed is None:
        seed = 0

    config = FuzzConfig.from_backends(
        args.backends.split(",") if args.backends else None,
        max_enum_edges=args.max_enum_edges,
    )
    metrics = Metrics()

    def progress(index: int, report) -> None:
        if (index + 1) % 25 == 0:
            print(
                f"  {report.instances} instances, "
                f"{report.disagreements} disagreements, "
                f"coverage {report.ledger.coverage():.1%}"
            )

    report = run_fuzz(
        specs=specs,
        seed=seed,
        budget=args.budget,
        config=config,
        artifact_dir=args.artifacts,
        metrics=metrics,
        time_budget=args.time_budget,
        progress=progress if args.budget >= 25 else None,
    )
    if args.ledger:
        path = Path(args.ledger)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"ledger written to {path}")
    print(
        f"fuzz: {report.instances} instances (seed {seed}), "
        f"{report.wide_roots} with root fan-out >= 2, "
        f"{report.disagreements} disagreements, "
        f"pairwise coverage {report.ledger.coverage():.1%}"
        + (", TRUNCATED by time budget" if report.truncated else "")
    )
    for stage, count in report.checks.items():
        skipped = report.skipped.get(stage, 0)
        note = f" ({skipped} skipped)" if skipped else ""
        print(f"  {stage:>9}: {count} checks{note}")
    for failure in report.failures:
        print(
            f"  DISAGREEMENT [{failure.stage}] spec {failure.spec.name} "
            f"seed {failure.seed} -> {failure.artifact_path}"
        )
    if args.metrics:
        print(metrics.render_prometheus(), end="")
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PXDB: probabilistic XML with constraints (PODS 2008)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check p-document well-formedness")
    p.add_argument("pdocument")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("worlds", help="enumerate the most probable worlds")
    p.add_argument("pdocument")
    p.add_argument("--limit", type=int, default=5)
    p.add_argument("--max-edges", type=int, default=16)
    p.set_defaults(func=_cmd_worlds)

    p = sub.add_parser("sat", help="CONSTRAINT-SAT: compute Pr(P |= C)")
    p.add_argument("pdocument")
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help="numeric backend (docs/NUMERIC.md): exact Fractions (default), "
        "float64, interval enclosures, or the guarded auto policy",
    )
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("query", help="EVAL<Q,C>: per-answer probabilities")
    p.add_argument("pdocument")
    p.add_argument("-q", "--query", required=True, help="pattern with $ markers")
    p.add_argument("-c", "--constraints")
    p.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help="numeric backend for the DP passes (docs/NUMERIC.md)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sample", help="SAMPLE<C>: conditioned samples (Figure 3)")
    p.add_argument("pdocument")
    p.add_argument("-c", "--constraints")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--stats",
        action="store_true",
        help="print incremental-engine counters (evaluations per sample, "
        "cache hit rate, subtree distributions recomputed) to stderr",
    )
    p.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable the cross-run signature cache (from-scratch "
        "evaluation per edge, the pre-engine behavior; for comparison)",
    )
    p.add_argument(
        "--backend",
        choices=["exact", "float64", "auto"],
        default=None,
        help="sampler arithmetic (docs/NUMERIC.md): exact (default), "
        "float64 (fast, unguarded), or auto (interval-guarded draws "
        "with exact fallback; bit-identical to exact)",
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "approx",
        help="Monte-Carlo estimate of an NP-hard aggregate event with a "
        "certified +/-epsilon interval (docs/ALGORITHM.md section 10)",
    )
    p.add_argument("pdocument")
    p.add_argument("-c", "--constraints")
    p.add_argument(
        "-e",
        "--event",
        required=True,
        help="aggregate event over conditioned documents, e.g. "
        "\"sum(*//$*) > 20 and count($*) >= 2\" (see repro.approx.events)",
    )
    p.add_argument("--epsilon", type=float, default=APPROX_EPSILON,
                   help="additive error target (default %(default)s)")
    p.add_argument("--delta", type=float, default=APPROX_DELTA,
                   help="failure probability (default %(default)s)")
    p.add_argument("--max-samples", type=int, default=APPROX_MAX_SAMPLES,
                   help="hard sample budget (default %(default)s)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; the same seed reproduces the estimate exactly")
    p.add_argument(
        "--rule",
        choices=sorted(APPROX_RULES),
        default=None,
        help="stopping rule: empirical-Bernstein (default; adaptive, stops "
        "early on low variance), fixed-n Hoeffding, or anytime Hoeffding",
    )
    p.add_argument(
        "--backend",
        choices=["exact", "float64", "auto"],
        default=None,
        help="sampler arithmetic for the conditioned draws (docs/NUMERIC.md)",
    )
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("check", help="explain a document's constraint violations")
    p.add_argument("document")
    p.add_argument("-c", "--constraints", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("skeleton", help="print the all-nodes skeleton document")
    p.add_argument("pdocument")
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("stats", help="structural/distributional statistics")
    p.add_argument("pdocument")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "circuit",
        help="compile the c-formula DP into an arithmetic circuit "
        "(docs/CIRCUIT.md)",
    )
    p.add_argument(
        "action",
        choices=["compile", "eval", "grad", "stats", "sweep"],
        help="compile: build + report + evaluate; eval: evaluate (after an "
        "optional --rebind); grad: parameter sensitivities; stats: sizes "
        "only; sweep: batched numpy evaluation over many parameter bindings",
    )
    p.add_argument("pdocument")
    p.add_argument("-c", "--constraints")
    p.add_argument(
        "-q", "--query",
        help="also compile this Boolean pattern event (no $ markers): the "
        "circuit outputs Pr(P |= event AND C) alongside Pr(P |= C)",
    )
    p.add_argument(
        "--rebind",
        metavar="PDOC",
        help="(eval) re-bind to this structurally identical p-document's "
        "probabilities before evaluating — no recompilation",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="(grad) how many parameters to print (default 10)",
    )
    p.add_argument(
        "--points",
        type=int,
        default=8,
        help="(sweep) how many scaled bindings to generate (default 8)",
    )
    p.add_argument(
        "--scale",
        default="0.5:1.0",
        metavar="LO:HI",
        help="(sweep) scale every edge probability by factors spaced evenly "
        "over [LO, HI] (default 0.5:1.0)",
    )
    p.add_argument(
        "--bindings",
        metavar="FILE",
        help="(sweep) JSON file with explicit bindings (a list of parameter "
        "vectors in canonical slot order) instead of --points/--scale",
    )
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser(
        "serve",
        help="serve stored PXDBs over JSON/HTTP (see docs/SERVICE.md)",
    )
    p.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=PDOC[:CONSTRAINTS]",
        help="register a PXDB at startup (repeatable); more can be added "
        "at runtime via POST /register",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="on SIGTERM/Ctrl-C, seconds to answer the requests in flight "
        "(and then to wait out pool work) before exiting",
    )
    p.add_argument(
        "--pool",
        type=int,
        default=0,
        metavar="N",
        help="dispatch evaluation to N worker processes with warm stores "
        "(0 = one process, in-process execution only)",
    )
    p.add_argument(
        "--pool-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a pooled request may take before it is answered "
        "503 (it is not re-run in-process)",
    )
    p.add_argument(
        "--max-entries",
        type=int,
        default=64,
        help="LRU bound on simultaneously loaded PXDBs",
    )
    p.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="exact",
        help="default numeric backend for sat/query/sample requests that "
        "do not name one (per-request 'backend' field overrides; "
        "docs/NUMERIC.md)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record per-request span traces, browsable at /trace/<id> and "
        "/traces (docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--trace-ring",
        type=int,
        default=4096,
        metavar="N",
        help="in-memory span ring size (oldest spans evicted first)",
    )
    p.add_argument(
        "--trace-jsonl",
        metavar="FILE",
        help="also append every finished span to FILE as JSON lines",
    )
    p.add_argument(
        "--trace-jsonl-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate the JSONL export to FILE.1 when it would exceed "
        "BYTES (rotation never drops a span)",
    )
    p.add_argument(
        "--trace-tail",
        action="store_true",
        help="tail-based trace retention: keep slow/error traces whole, "
        "sample the rest at --trace-tail-rate (cost attribution still "
        "sees every trace)",
    )
    p.add_argument(
        "--trace-tail-slow-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="(with --trace-tail) always keep traces at least MS long "
        "(default 25)",
    )
    p.add_argument(
        "--trace-tail-rate",
        type=float,
        default=0.1,
        metavar="R",
        help="(with --trace-tail) keep fast, healthy traces with "
        "probability R (default 0.1)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS milliseconds and keep them in "
        "the /traces?slow_ms= slow-query ring",
    )
    p.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="stdlib logging level for the 'repro' logger tree",
    )
    p.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line instead of plain text",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="inspect span traces of a running service "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "action",
        choices=["top", "show", "export"],
        help="top: slowest recent root spans; show: one trace as a tree; "
        "export: dump recent traces (flat spans) as JSON",
    )
    p.add_argument(
        "trace_id",
        nargs="?",
        help="(show) the trace id, e.g. from 'repro trace top' or a "
        "/metrics exemplar",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service base URL (default http://127.0.0.1:8642)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="(top/export) only traces at least MS milliseconds long",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=20,
        help="(top/export) at most this many traces (default 20)",
    )
    p.add_argument(
        "-o", "--output",
        metavar="FILE",
        help="(export) write JSON here instead of stdout",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "obs",
        help="cost and profile views of a running service "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "action",
        choices=["profile", "costs"],
        help="profile: cumulative span-folded collapsed-stack profile; "
        "costs: per-(route, db) cost attribution",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service base URL (default http://127.0.0.1:8642)",
    )
    p.add_argument(
        "--format",
        choices=["collapsed", "json", "table"],
        default=None,
        help="profile: collapsed (default, flamegraph-compatible) or "
        "json; costs: table (default) or json",
    )
    p.add_argument(
        "-o", "--output",
        metavar="FILE",
        help="(profile) write the profile here instead of stdout",
    )
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing over the scenario "
        "matrix (docs/WORKLOADS.md)",
    )
    p.add_argument(
        "--spec",
        metavar="FILE",
        help="scenario spec source: 'standard' (default) for the shipped "
        "matrix, or a JSON file (a spec object, a list of specs, or a "
        "fuzz failure artifact — artifacts carry their seed)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="run seed; instance i is generated at seed+i "
        "(default 0, or the artifact's seed with --spec <artifact>)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=200,
        help="number of instances to generate and check (default 200)",
    )
    p.add_argument(
        "--backends",
        metavar="LIST",
        help="comma-separated stages to enable: float64,interval,auto,"
        "circuit,batch,approx or 'all' (default all)",
    )
    p.add_argument(
        "--max-enum-edges",
        type=int,
        default=10,
        metavar="N",
        help="run the possible-worlds baseline only on instances with at "
        "most N distributional edges (default 10)",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop generating new instances after this many seconds",
    )
    p.add_argument(
        "--artifacts",
        default="tests/artifacts",
        metavar="DIR",
        help="where shrunk failure artifacts go (default tests/artifacts)",
    )
    p.add_argument(
        "--ledger",
        metavar="FILE",
        help="write the full JSON report (coverage ledger included) here",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="print the standard scenario matrix and its pairwise "
        "coverage, then exit",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="dump pxdb_fuzz_* counters in Prometheus format after the run",
    )
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
