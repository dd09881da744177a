"""End-to-end tests for the command-line interface."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.cli import main
from repro.pdoc.pdocument import PNode, pdocument
from repro.pdoc.serialize import pdocument_to_xml
from repro.xmltree.serialize import document_to_xml

CONSTRAINTS = "forall catalog/$shelf : count(*/$book) >= 1\n"


@pytest.fixture()
def files(tmp_path):
    pd, root = pdocument("catalog")
    shelf = root.ordinary("shelf")
    books = shelf.ind()
    b1 = PNode("ord", "book")
    b1.ordinary("title").ordinary("Dune")
    books.add_edge(b1, Fraction(1, 2))
    b2 = PNode("ord", "book")
    b2.ordinary("title").ordinary("Solaris")
    books.add_edge(b2, Fraction(1, 4))
    pd.validate()

    pdoc_path = tmp_path / "catalog.pxml"
    pdoc_path.write_text(pdocument_to_xml(pd))
    constraints_path = tmp_path / "constraints.txt"
    constraints_path.write_text(CONSTRAINTS)
    return pdoc_path, constraints_path


def test_validate(files, capsys):
    pdoc_path, _ = files
    assert main(["validate", str(pdoc_path)]) == 0
    out = capsys.readouterr().out
    assert "ordinary nodes" in out


def test_sat(files, capsys):
    pdoc_path, constraints_path = files
    assert main(["sat", str(pdoc_path), "-c", str(constraints_path)]) == 0
    out = capsys.readouterr().out
    assert "Pr(P |= C) = 5/8" in out
    assert "well-defined PXDB: True" in out


def test_query(files, capsys):
    pdoc_path, constraints_path = files
    assert (
        main(
            [
                "query",
                str(pdoc_path),
                "-q",
                "catalog/shelf/book/title/$*",
                "-c",
                str(constraints_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Dune" in out and "Solaris" in out


def test_sample(files, capsys):
    pdoc_path, constraints_path = files
    assert (
        main(
            [
                "sample",
                str(pdoc_path),
                "-c",
                str(constraints_path),
                "-n",
                "3",
                "--seed",
                "7",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("<catalog>") == 3
    assert "<book>" in out  # every sample satisfies the constraint


def test_sample_stats_and_no_incremental(files, capsys):
    pdoc_path, constraints_path = files
    args = [
        "sample",
        str(pdoc_path),
        "-c",
        str(constraints_path),
        "-n",
        "2",
        "--seed",
        "7",
        "--stats",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.count("<catalog>") == 2
    assert "evaluations/sample" in captured.err
    assert "cache hits/misses" in captured.err
    # the from-scratch mode draws the same documents under the same seed
    assert main(args + ["--no-incremental"]) == 0
    again = capsys.readouterr()
    assert again.out == captured.out


def test_worlds_limit_and_guard(files, capsys):
    pdoc_path, _ = files
    assert main(["worlds", str(pdoc_path), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Pr =") == 2
    # the guard refuses huge enumerations
    assert main(["worlds", str(pdoc_path), "--max-edges", "1"]) == 1


def test_check_violations(files, tmp_path, capsys):
    _, constraints_path = files
    from repro.xmltree.document import Document, doc

    bad = Document(doc("catalog", doc("shelf", "lamp")))
    bad_path = tmp_path / "bad.xml"
    bad_path.write_text(document_to_xml(bad))
    assert main(["check", str(bad_path), "-c", str(constraints_path)]) == 1
    assert "violated" in capsys.readouterr().out

    good_path = tmp_path / "good.xml"
    good = Document(doc("catalog", doc("shelf", doc("book", "x"))))
    good_path.write_text(document_to_xml(good))
    assert main(["check", str(good_path), "-c", str(constraints_path)]) == 0


def test_skeleton(files, capsys):
    pdoc_path, _ = files
    assert main(["skeleton", str(pdoc_path)]) == 0
    out = capsys.readouterr().out
    assert "<title>" in out and "Dune" in out and "Solaris" in out


def test_stats(files, capsys):
    pdoc_path, _ = files
    assert main(["stats", str(pdoc_path)]) == 0
    out = capsys.readouterr().out
    assert "ordinary_nodes" in out
    assert "expected_size" in out
    assert "process_entropy_bits" in out


def test_error_handling(tmp_path, capsys):
    missing = tmp_path / "nope.pxml"
    assert main(["validate", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_error_paths_are_one_line_exit_2(files, tmp_path, capsys):
    """Every malformed or missing input prints one ``error:`` line to
    stderr and exits 2 — no traceback leaks through any subcommand."""
    pdoc_path, constraints_path = files

    malformed = tmp_path / "broken.pxml"
    malformed.write_text("<catalog><unclosed")
    assert main(["sat", str(malformed), "-c", str(constraints_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed XML" in err
    assert len(err.strip().splitlines()) == 1

    assert main(["sat", str(pdoc_path), "-c", str(tmp_path / "no.cons")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot read constraint file" in err

    bad_constraints = tmp_path / "bad.cons"
    bad_constraints.write_text("forall gibberish\n")
    assert main(["query", str(pdoc_path), "-q", "catalog/$shelf",
                 "-c", str(bad_constraints)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid constraint file" in err

    bad_document = tmp_path / "bad.xml"
    bad_document.write_text("<oops")
    assert main(["check", str(bad_document), "-c", str(constraints_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed XML in document" in err

    assert main(["sample", str(tmp_path / "ghost.pxml")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sample_stats_no_incremental_reports_bypass(files, capsys):
    """With --no-incremental the stats block reports the from-scratch
    work and says so explicitly, instead of printing cross-run cache
    counters the bypassed engine never benefits from."""
    pdoc_path, constraints_path = files
    args = ["sample", str(pdoc_path), "-c", str(constraints_path),
            "-n", "2", "--seed", "7", "--stats", "--no-incremental"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "incremental engine bypassed" in err
    assert "evaluations/sample" in err
    assert "cache hits/misses" not in err


def test_serve_db_spec_parsing():
    from repro.cli import _parse_db_spec

    assert _parse_db_spec("uni=a.pxml:c.txt") == ("uni", "a.pxml", "c.txt")
    assert _parse_db_spec("uni=a.pxml") == ("uni", "a.pxml", None)
    for bad in ("noequals", "=a.pxml", "name=", "name=:c.txt"):
        with pytest.raises(ValueError, match="invalid --db spec"):
            _parse_db_spec(bad)


def test_serve_parser_wired():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--db", "uni=a.pxml:c.txt", "--port", "0", "--pool", "2"]
    )
    assert args.db == ["uni=a.pxml:c.txt"]
    assert args.port == 0 and args.pool == 2


# -- the circuit subcommand ---------------------------------------------------

def test_circuit_compile_and_stats(files, capsys):
    pdoc_path, constraints_path = files
    args = ["circuit", "compile", str(pdoc_path), "-c", str(constraints_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "compiled:" in out and "parameters" in out
    assert "Pr(P |= C) = 5/8" in out
    assert main(["circuit", "stats", str(pdoc_path)]) == 0
    out = capsys.readouterr().out
    assert "nodes:" in out and "rebinds: 0" in out


def test_circuit_eval_with_event_and_rebind(files, tmp_path, capsys):
    pdoc_path, constraints_path = files
    # Re-bind to a copy with the first book certain to appear.
    from repro.pdoc.parameters import apply_parameters, parameter_values
    from repro.pdoc.serialize import pdocument_from_xml

    edited = pdocument_from_xml(pdoc_path.read_text())
    values = parameter_values(edited)
    values[0] = Fraction(1)
    apply_parameters(edited, values)
    edited_path = tmp_path / "edited.pxml"
    edited_path.write_text(pdocument_to_xml(edited))

    args = ["circuit", "eval", str(pdoc_path), "-c", str(constraints_path),
            "-q", "catalog/shelf/book", "--rebind", str(edited_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "re-bound to the probabilities" in out
    assert "Pr(D |= catalog/shelf/book) = 1" in out


def test_circuit_rebind_structural_mismatch_exits_2(files, tmp_path, capsys):
    pdoc_path, constraints_path = files
    other = tmp_path / "other.pxml"
    from repro.workloads.university import figure1_pdocument

    other.write_text(pdocument_to_xml(figure1_pdocument()))
    args = ["circuit", "eval", str(pdoc_path), "-c", str(constraints_path),
            "--rebind", str(other)]
    assert main(args) == 2
    assert "structure differs" in capsys.readouterr().err


def test_circuit_grad_ranks_parameters(files, capsys):
    pdoc_path, constraints_path = files
    args = ["circuit", "grad", str(pdoc_path), "-c", str(constraints_path),
            "--top", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "most influential first" in out
    assert out.count("ind@") == 1  # --top limits the listing


def _sweep_rows(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("[")]


def test_circuit_sweep_scaled_points_match_forward_batch(files, capsys):
    pytest.importorskip("numpy")
    from repro.core.constraint_parser import parse_constraints
    from repro.core.pxdb import PXDB
    from repro.pdoc.parameters import scaled_edge_bindings
    from repro.pdoc.serialize import pdocument_from_xml

    pdoc_path, constraints_path = files
    args = ["circuit", "sweep", str(pdoc_path), "-c", str(constraints_path),
            "--points", "3", "--scale", "1/2:1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep: 3 bindings x 2 parameters")
    pdoc = pdocument_from_xml(pdoc_path.read_text())
    circuit = PXDB(pdoc, parse_constraints(CONSTRAINTS)).compile_circuit()
    factors = [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    values = circuit.forward_batch(scaled_edge_bindings(pdoc, factors))[-1]
    assert _sweep_rows(out) == [
        f"[{i}] scale={float(factor):.6f}  Pr(P |= C) = {values[i]:.6f}"
        for i, factor in enumerate(factors)
    ]


def test_circuit_sweep_unit_scale_prints_the_eval_value(files, capsys):
    pytest.importorskip("numpy")
    pdoc_path, constraints_path = files
    assert main(["circuit", "eval", str(pdoc_path), "-c", str(constraints_path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line == "Pr(P |= C) = 5/8  ≈ 0.625000"
    args = ["circuit", "sweep", str(pdoc_path), "-c", str(constraints_path),
            "--points", "1", "--scale", "1:1"]
    assert main(args) == 0
    assert _sweep_rows(capsys.readouterr().out) == [
        "[0] scale=1.000000  Pr(P |= C) = 0.625000"
    ]


def test_circuit_sweep_reads_a_bindings_file(files, tmp_path, capsys):
    pytest.importorskip("numpy")
    pdoc_path, constraints_path = files
    bindings = tmp_path / "bindings.json"
    bindings.write_text('[["1/2", "1/4"], [1, 0], [0, 0]]')
    args = ["circuit", "sweep", str(pdoc_path), "-c", str(constraints_path),
            "-q", "catalog/shelf/book", "--bindings", str(bindings)]
    assert main(args) == 0
    assert _sweep_rows(capsys.readouterr().out) == [
        "[0]  Pr(P |= catalog/shelf/book AND C) = 0.625000  Pr(P |= C) = 0.625000"
        "  Pr(D |= catalog/shelf/book) = 1.000000",
        "[1]  Pr(P |= catalog/shelf/book AND C) = 1.000000  Pr(P |= C) = 1.000000"
        "  Pr(D |= catalog/shelf/book) = 1.000000",
        "[2]  Pr(P |= catalog/shelf/book AND C) = 0.000000  Pr(P |= C) = 0.000000"
        "  Pr(D |= catalog/shelf/book) undefined (Pr(P |= C) = 0)",
    ]


def test_circuit_sweep_bad_arguments_exit_2(files, tmp_path, capsys):
    pytest.importorskip("numpy")
    pdoc_path, constraints_path = files
    base = ["circuit", "sweep", str(pdoc_path), "-c", str(constraints_path)]
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for extra, message in (
        (["--points", "0"], "--points must be at least 1"),
        (["--scale", "half:1"], "invalid --scale"),
        (["--bindings", str(empty)], "non-empty JSON list"),
    ):
        assert main(base + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, extra


def test_approx(files, capsys):
    pdoc_path, constraints_path = files
    args = [
        "approx",
        str(pdoc_path),
        "-c",
        str(constraints_path),
        "-e",
        "count(*//$book) >= 2",
        "--epsilon",
        "0.05",
        "--seed",
        "42",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Pr(event | C) ~=" in out
    assert "rule=bernstein" in out
    assert "stopped=target" in out
    assert "seed          = 42" in out
    # Deterministic: the same seed reprints the identical report.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_approx_budget_warning(files, capsys):
    pdoc_path, constraints_path = files
    assert (
        main(
            [
                "approx",
                str(pdoc_path),
                "-c",
                str(constraints_path),
                "-e",
                "count(*//$book) >= 2",
                "--epsilon",
                "0.01",
                "--max-samples",
                "100",
                "--rule",
                "hoeffding",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "stopped=max_samples" in captured.out
    assert "budget exhausted" in captured.err


def test_approx_bad_event(files, capsys):
    pdoc_path, _ = files
    assert main(["approx", str(pdoc_path), "-e", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


# -- fuzz subcommand ----------------------------------------------------------

def test_fuzz_list(capsys):
    assert main(["fuzz", "--list"]) == 0
    out = capsys.readouterr().out
    assert "pairwise coverage" in out
    assert "specs" in out


def test_fuzz_small_run_writes_ledger(tmp_path, capsys):
    import json

    ledger = tmp_path / "ledger.json"
    assert (
        main(
            [
                "fuzz",
                "--seed", "3",
                "--budget", "4",
                "--artifacts", str(tmp_path / "artifacts"),
                "--ledger", str(ledger),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "4 instances" in out
    assert "0 disagreements" in out
    report = json.loads(ledger.read_text())
    assert report["schema"] == "pxdb-fuzz-report/1"
    assert report["instances"] == 4
    assert report["disagreements"] == 0
    assert report["coverage"]["total_pairs"] == 197


def test_fuzz_metrics_flag_renders_counters(tmp_path, capsys):
    assert (
        main(
            [
                "fuzz",
                "--budget", "2",
                "--artifacts", str(tmp_path),
                "--metrics",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "pxdb_fuzz_instances_total 2" in out


def test_fuzz_spec_file_and_artifact_seed(tmp_path, capsys):
    import json

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"spec": {"kinds": "mux"}, "seed": 9}))
    assert (
        main(
            [
                "fuzz",
                "--spec", str(spec_file),
                "--budget", "1",
                "--artifacts", str(tmp_path / "artifacts"),
            ]
        )
        == 0
    )
    assert "1 instances (seed 9)" in capsys.readouterr().out


def test_fuzz_bad_spec_file_exits_2(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"kinds": "quantum"}')
    assert main(["fuzz", "--spec", str(bogus), "--budget", "1"]) == 2
    assert "error:" in capsys.readouterr().err
