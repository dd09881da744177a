"""Shared fixtures: the paper's running example and small reference trees,
the golden-snapshot machinery (``--update-golden``) and span tracing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.spans import TRACER
from repro.workloads.university import (
    Figure1,
    figure1_constraints,
    figure2_document,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current outputs "
        "instead of comparing against them",
    )


@pytest.fixture()
def golden(request):
    """Compare a JSON-ready payload against tests/golden/<name>.json.

    With ``--update-golden`` the snapshot is rewritten instead; the diff
    then goes through code review like any other change."""

    def check(name: str, payload) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(rendered)
            return
        assert path.exists(), (
            f"missing golden snapshot {path}; run "
            f"`pytest {request.node.nodeid} --update-golden` to create it"
        )
        assert json.loads(path.read_text()) == json.loads(rendered), (
            f"output differs from golden snapshot {path} "
            f"(re-run with --update-golden if the change is intended)"
        )

    return check


@pytest.fixture(scope="session")
def figure1() -> Figure1:
    """The Figure 1 p-document with handles to its interesting nodes."""
    return Figure1()


@pytest.fixture(scope="session")
def constraints_c1_c4():
    """C = {C1, C2, C3, C4} of Example 2.3."""
    return figure1_constraints()


@pytest.fixture()
def figure2():
    """The Figure 2 instance (a fresh copy per test: documents are mutable)."""
    return figure2_document()


@pytest.fixture()
def tracing():
    """Tracing on with a clean ring of the default size.  Teardown restores
    the disabled default *and* the ring size, so a test that shrinks the
    ring cannot starve the span trees of the tests after it."""
    TRACER.configure(enabled=True, ring_size=4096)
    TRACER.reset()
    yield TRACER
    TRACER.configure(enabled=False, tail_sample=False, ring_size=4096)
    TRACER.reset()
