"""End-to-end and per-layer benchmark of the PXDB service.

Run from the repository root; the benchmark starts its own servers::

    python3 bench/run.py --seed 1                   # all four workloads
    python3 bench/run.py --workload eval-point --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --seed 1 --traced          # per-layer replay
    python3 bench/run.py --seed 1 --repeat 3        # three runs, one JSON each
    python3 bench/run.py compare --base A.json… --new B.json… [--out FILE]

Every run prints each metric with its unit and sample count, checks
every response against the in-process oracle, writes a run JSON under
``bench/out/runs/`` and ends with one JSON line: ``{"correct",
"attempted", "failed", "metrics"}``.  It exits 1 when any response was
wrong or failed, or a server outlived its SIGTERM wait.  See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_STARTS = 5
RTT_PROBES = 50
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def git_commit() -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess, nothing
    read outside the checkout); "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p50_ms(seconds: list[float]) -> float:
    return 1000.0 * statistics.median(seconds)


def class_stats(executed) -> dict:
    """n, p50 and (n >= 100) p90 per role and request template."""
    groups: dict = {}
    for step, outcome in executed:
        if outcome is not None:
            groups.setdefault(f"{step.role}: {step.label}", []).append(outcome.seconds)
    stats = {}
    for key, seconds in sorted(groups.items()):
        row = {"n": len(seconds), "p50_ms": p50_ms(seconds)}
        if len(seconds) >= 100:
            row["p90_ms"] = 1000.0 * statistics.quantiles(seconds, n=10)[-1]
        stats[key] = row
    return stats


def run_workload(name: str, seed: int, seconds: float, scale: str, trace: bool) -> dict:
    """One workload end to end; returns its section of the run JSON."""
    from harness import Server, cold_start, run_phase, write_inputs
    from oracle import Oracle, verify
    from plans import Request, build, setup_requests

    phases: dict[str, float] = {}

    @contextmanager
    def phase(label: str):
        start = time.perf_counter()
        yield
        phases[label] = phases.get(label, 0.0) + time.perf_counter() - start

    workload = build(name, seed, scale)
    inputs = OUT / "inputs" / name
    logs = OUT / "logs"
    write_inputs(workload, inputs)
    oracle = Oracle(workload)
    if workload.verify_ahead:
        with phase("oracle"):
            for request in setup_requests(workload):
                oracle.expected(request)
            for steps in workload.cycle:
                for step in steps:
                    if isinstance(step, Request):
                        oracle.expected(step)
    servers: list[Server] = []
    answered: list = []
    setup: list[float] = []
    probes: list = []
    try:
        for index in range(1 if trace else SETUP_STARTS):
            if servers:
                # A server still exiting would compete with the next start.
                client.close()
                with phase("stop"):
                    servers[-1].stop()
            servers.append(Server(ROOT, workload, inputs, logs / f"{name}-{index}.log"))
            elapsed, client, pairs = cold_start(servers[-1])
            setup.append(elapsed)
            answered += pairs
        client.think = random.Random(f"{seed}:{name}:think")
        if trace:
            probes = [client.get("/health") for _ in range(RTT_PROBES)]
        thought = client.thought
        executed, wall = run_phase(workload, client, inputs, seconds)
        phases["think"] = client.thought - thought
        busy = wall - phases["think"]
        rss = servers[-1].peak_rss_mb()
        client.close()
    finally:
        with phase("stop"):
            for server in servers:
                server.stop()
    served = [(step, outcome) for step, outcome in executed if outcome is not None]
    answered += served
    with phase("oracle"):
        failures = verify(oracle, answered)
    failures += [f"/health: HTTP {outcome.status}" for outcome in probes
                 if outcome.status != 200]
    failures += [f"server {server.argv} outlived SIGTERM" for server in servers
                 if server.leftover]
    section = {
        "server_argv": servers[-1].argv,
        "seconds_timed": wall,
        "requests": len(served),
        "attempted": len(answered) + len(probes),
        "classes": class_stats(executed),
        "roles": workload.roles,
    }
    if trace:
        from replay import Replay, replay_service

        with phase("replay"):
            write_inputs(workload, inputs)
            replay = Replay(workload, inputs)
            failures += replay.play(executed, inputs)
            service_seconds = replay_service(workload, executed, inputs)
        values = replay.metrics([o.seconds for _, o in served],
                                [o.seconds for o in probes], service_seconds)
        section["layers"] = replay.layer_table()
        counts = {metric: len(served) for metric in values}
        counts["server.rtt_ms"] = len(probes)
    else:
        by_role = {role: [o.seconds for s, o in served if s.role == role]
                   for role in ("primary", "secondary")}
        values = {
            "setup_s": statistics.median(setup),
            "primary_p50_ms": p50_ms(by_role["primary"]),
            "secondary_p50_ms": p50_ms(by_role["secondary"]),
            "throughput_rps": len(served) / busy,
            "peak_rss_mb": rss,
        }
        counts = {
            "setup_s": len(setup),
            "primary_p50_ms": len(by_role["primary"]),
            "secondary_p50_ms": len(by_role["secondary"]),
            "throughput_rps": len(served),
            "peak_rss_mb": 1,
        }
        section["setup_runs_s"] = setup
    section["values"] = values
    section["counts"] = counts
    section["phase_seconds"] = {"setup": sum(setup), "timed": wall, **phases}
    section["failed"] = len(failures)
    section["failures"] = failures[:20]
    return section


def report(name: str, section: dict, metrics: list[dict]) -> None:
    print(f"== {name}: {section['requests']} timed requests in "
          f"{section['seconds_timed']:.1f} s, {section['failed']} failed ==")
    for metric in metrics:
        key = metric["name"]
        print(f"  {key:<28} {section['values'][key]:>12.4f} {metric['unit']:<8} "
              f"n={section['counts'][key]}")
    print(f"  {'error_rate':<28} {section['failed'] / section['attempted']:>12.4f} "
          f"{'failed/attempted':<8} n={section['attempted']}")
    for role, meaning in section["roles"].items():
        print(f"  {role}: {meaning}")
    for key, row in section["classes"].items():
        p90 = f"  p90 {row['p90_ms']:.2f} ms" if "p90_ms" in row else ""
        print(f"    {key:<58} n={row['n']:<4} p50 {row['p50_ms']:.2f} ms{p90}")
    if "layers" in section:
        print(f"  {'layer':<22} {'ms/request':>11} {'share %':>8} {'calls':>6}")
        for layer, row in section["layers"].items():
            print(f"  {layer:<22} {row['ms_per_request']:>11.3f} "
                  f"{row['share_pct']:>8.2f} {row['calls']:>6}")
    print("  phase seconds: " + ", ".join(
        f"{label} {value:.1f}" for label, value in section["phase_seconds"].items()))
    for failure in section["failures"]:
        print(f"  FAILED {failure}")


def run_once(args, spec: dict, workloads: list[str]) -> tuple[dict, Path]:
    kind = "per_layer" if args.trace else "end_to_end"
    run = {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for name in workloads:
        section = run_workload(name, args.seed, args.seconds, args.scale, bool(args.trace))
        run["workloads"][name] = section
        report(name, section, spec[kind])
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "runs" / f"{stamp}-{os.getpid()}-seed{args.seed}-{kind}.json"
    path.write_text(json.dumps(run, indent=1) + "\n")
    return run, path


def result_line(runs: list[dict], spec: dict, trace: int) -> dict:
    """Counts over every run; metrics of the last run, named
    ``workload/metric`` when it covered more than one workload."""
    sections = [section for run in runs for section in run["workloads"].values()]
    attempted = sum(section["attempted"] for section in sections)
    failed = sum(section["failed"] for section in sections)
    last = runs[-1]["workloads"]
    metrics = {}
    for name, section in last.items():
        for metric in spec["per_layer" if trace else "end_to_end"]:
            key = metric["name"] if len(last) == 1 else f"{name}/{metric['name']}"
            metrics[key] = {"value": section["values"][metric["name"]],
                            "unit": metric["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer replay instead of end-to-end metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run everything K times (one run JSON each)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    from plans import WORKLOADS

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    workloads = args.workloads or list(WORKLOADS)
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    runs = []
    for _ in range(args.repeat):
        run, path = run_once(args, spec, workloads)
        runs.append(run)
        print(f"run JSON: {path.relative_to(ROOT)}")
    line = result_line(runs, spec, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
