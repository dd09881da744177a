"""Seeded inputs and request plans for the four service workloads.

The seed draws every probability (each from {1/10, 3/10, 7/10, 9/10}),
the query order, the sample seeds and the edit sequence.  Document
*structure*, and so the DP's signature widths and node counts, does not
depend on the seed.  The probabilities are tenths that do not reduce, so
the sizes of the DP's Fractions do not depend on it either: with 1/10 …
9/10, the seeds that drew many of 2/10, 4/10, 5/10, 6/10 and 8/10 (which
reduce to fifths and halves) made the fan-out pass cheaper, and its cost
spread 21% (IQR/median) over ten seeds, against 4% with irreducible
tenths.  The sampler's path through the document still depends on the
seed, a little, which is why sample-mix averages over several documents.

A plan is a *cycle* of *rounds*; a round is a list of steps (a file
write or an HTTP request).  Each round holds every request template of the
workload in fixed proportions, so the statistics of any whole number of
rounds are balanced.  Workloads whose answers the service caches by query
text start every cycle after the first with a *bust*: the constraint file
is rewritten with an equivalent text (one more or one fewer trailing
newline), which makes the store reload the entry, so no timed query is
ever a result-cache hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from urllib.parse import urlencode

from repro.pdoc.parameters import apply_parameters, parameter_slots
from repro.pdoc.pdocument import MUX
from repro.pdoc.serialize import pdocument_to_xml
from repro.workloads.university import scaled_university

#: C1-C4 of the paper's Example 2.3, in the constraint-file syntax.
CONSTRAINTS = """\
C1: forall university/$department : count(*//$member[position/~'professor'][position/chair]) <= 1
C2: forall university/$department : count(*//$member[//~'professor']) >= 3 -> count(*//$member[position/~'professor'][position/chair]) >= 1
C3: forall *//$member[position/~'professor'][position/chair] : count($*[position/'full professor']) >= 1
C4: forall *//$member[position/'assistant professor'] : count(*/$'ph.d. st.') <= 1
"""
CONSTRAINTS_FILE = "c.cons"

#: Eight equivalent "all Ph.D. students" texts: each has one candidate
#: tuple per student, so one request is one joint pass over all of them.
FANOUT_TEXTS = (
    "*//'ph.d. st.'/name/$*",
    "university//'ph.d. st.'/name/$*",
    "*/department//'ph.d. st.'/name/$*",
    "*//member/'ph.d. st.'/name/$*",
    "*//'ph.d. st.'/$name",
    "*//$'ph.d. st.'",
    "university/department/member/$'ph.d. st.'",
    "*//member/$'ph.d. st.'[name]",
)

#: Single-candidate templates: one named member pins every match.
POINT_TEMPLATES = (
    "university/department/$member[name/'{m}']",
    "*//member[name/'{m}']/'ph.d. st.'/name/$*",
    "*//$member[name/'{m}'][position/chair]",
    "*//$member[name/'{m}']/position/'full professor'",
    "university/$department[member/name/'{m}']",
)

#: scaled_university(departments, members, students) per workload.
SHAPES = {
    "full": {
        "eval-fanout": (2, 2, 2),
        "eval-point": (8, 3, 1),
        "sample-mix": (3, 2, 2),
        "edit-requery": (4, 3, 1),
    },
    "smoke": {
        "eval-fanout": (1, 3, 1),
        "eval-point": (2, 2, 1),
        "sample-mix": (1, 2, 1),
        "edit-requery": (2, 2, 1),
    },
}

#: Probabilities a seed may draw: tenths that do not reduce (see above).
TENTHS = (1, 3, 7, 9)

FANOUT_DBS = 3
# Draw cost depends on the document's probabilities (how soon the
# conditioned document satisfies C for sure), about 9% between seeds, so
# sample-mix spreads its draws over several seeded documents.
SAMPLE_DBS = 8
SAMPLE_ROUNDS = 80          # one exact and one auto /sample each
EDIT_PARAM_SETS = {"full": 16, "smoke": 4}
EDIT_POOL = 6               # below PXDB.CIRCUIT_CACHE_CAP = 8


@dataclass(frozen=True)
class Request:
    """One HTTP GET.  ``role`` files its latency under the workload's
    primary or secondary metric (or neither); ``label`` names its request
    template; ``state`` names the database content the answer must match."""

    route: str
    params: tuple
    role: str
    label: str
    state: str

    @property
    def db(self) -> str:
        return dict(self.params)["db"]

    def path(self) -> str:
        return f"{self.route}?{urlencode(self.params)}"


@dataclass(frozen=True)
class Write:
    """Replace an input file atomically (``os.replace``)."""

    name: str
    content: str


@dataclass
class Workload:
    name: str
    roles: dict            # role -> what its latency measures
    files: dict            # initial input files: name -> content
    dbs: tuple             # (db name, p-document file, constraint file)
    states: dict           # state -> {db: (p-document XML, constraints)}
    cycle: list            # rounds; each round a list of steps
    bust_dbs: tuple = ()   # dbs to re-ask /sat after a bust write
    setup_state: str = ""  # state the cold-start /sat answers come from
    # Compute every expected answer before the timed loop, so that writes
    # and the reads after them follow each other with no pause between.
    verify_ahead: bool = False

    def rounds(self):
        """The plan, endlessly: cycle after cycle, busting between them."""
        index = 0
        while True:
            for number, steps in enumerate(self.cycle):
                if index and number == 0 and self.bust_dbs:
                    yield self._bust(index) + steps
                else:
                    yield steps
            index += 1

    def _bust(self, index: int) -> list:
        text = CONSTRAINTS + "\n" * (index % 2)
        return [Write(CONSTRAINTS_FILE, text)] + [
            _sat(db, "other", "reload /sat", db) for db in self.bust_dbs
        ]


def seeded_pdocument(shape: tuple, rng: random.Random) -> str:
    """``scaled_university(*shape)`` with every probability redrawn from
    ``TENTHS`` (a mux's two edges sum to 1), as p-document XML."""
    pdoc = scaled_university(*shape)
    values: list[Fraction] = []
    for slot in parameter_slots(pdoc):
        if slot.node.kind == MUX and slot.index == 1:
            values.append(1 - values[-1])
        else:
            values.append(Fraction(rng.choice(TENTHS), 10))
    apply_parameters(pdoc, values)
    return pdocument_to_xml(pdoc)


def members(shape: tuple) -> list[str]:
    departments, per_department, _ = shape
    return [
        f"member-{d}-{m}" for d in range(departments) for m in range(per_department)
    ]


def _query(db: str, text: str, role: str, label: str, state: str) -> Request:
    return Request("/query", (("db", db), ("query", text)), role, label, state)


def _sat(db: str, role: str, label: str, state: str) -> Request:
    return Request("/sat", (("db", db),), role, label, state)


def eval_fanout(seed: int, scale: str) -> Workload:
    shape = SHAPES[scale]["eval-fanout"]
    rng = random.Random(f"{seed}:eval-fanout")
    names = [f"f{i}" for i in range(FANOUT_DBS)]
    files = {CONSTRAINTS_FILE: CONSTRAINTS}
    states = {}
    for name in names:
        files[f"{name}.pxml"] = seeded_pdocument(shape, rng)
        states[name] = {name: (files[f"{name}.pxml"], CONSTRAINTS)}
    texts = list(FANOUT_TEXTS)
    rng.shuffle(texts)
    offset = rng.randrange(FANOUT_DBS)
    pending = {name: rng.sample(members(shape), len(members(shape))) for name in names}
    steps = []
    for index, text in enumerate(texts):
        db = names[(offset + index) % FANOUT_DBS]
        steps.append(_query(db, text, "primary", text, db))
        single = POINT_TEMPLATES[0].format(m=pending[db].pop())
        steps.append(_query(db, single, "secondary", POINT_TEMPLATES[0], db))
    return Workload(
        name="eval-fanout",
        roles={
            "primary": "all-students /query, one joint pass over every student",
            "secondary": "single-candidate /query on the same document",
        },
        files=files,
        dbs=tuple((name, f"{name}.pxml", CONSTRAINTS_FILE) for name in names),
        states=states,
        cycle=[steps],
        bust_dbs=tuple(names),
    )


def eval_point(seed: int, scale: str) -> Workload:
    shape = SHAPES[scale]["eval-point"]
    rng = random.Random(f"{seed}:eval-point")
    files = {"p.pxml": seeded_pdocument(shape, rng), CONSTRAINTS_FILE: CONSTRAINTS}
    orders = [rng.sample(members(shape), len(members(shape))) for _ in POINT_TEMPLATES]
    cycle = []
    for start in range(0, len(members(shape)), 2):
        queries = [
            _query("p", template.format(m=member), "primary", template, "p")
            for template, order in zip(POINT_TEMPLATES, orders)
            for member in order[start:start + 2]
        ]
        rng.shuffle(queries)
        steps = []
        for index, query in enumerate(queries, 1):
            steps.append(query)
            if index % 2 == 0:
                steps.append(_sat("p", "secondary", "/sat", "p"))
        cycle.append(steps)
    return Workload(
        name="eval-point",
        roles={"primary": "single-candidate /query", "secondary": "cached /sat"},
        files=files,
        dbs=(("p", "p.pxml", CONSTRAINTS_FILE),),
        states={"p": {"p": (files["p.pxml"], CONSTRAINTS)}},
        cycle=cycle,
        bust_dbs=("p",),
    )


def sample_mix(seed: int, scale: str) -> Workload:
    shape = SHAPES[scale]["sample-mix"]
    rng = random.Random(f"{seed}:sample-mix")
    names = [f"s{i}" for i in range(SAMPLE_DBS)]
    files = {CONSTRAINTS_FILE: CONSTRAINTS}
    for name in names:
        files[f"{name}.pxml"] = seeded_pdocument(shape, rng)
    cycle = []
    for index in range(SAMPLE_ROUNDS):
        db = names[index % SAMPLE_DBS]
        steps = [
            Request(
                "/sample",
                (("db", db), ("count", 2), ("seed", rng.randrange(2**31)),
                 ("backend", backend)),
                role, f"/sample {backend}", db,
            )
            for backend, role in (("exact", "primary"), ("auto", "secondary"))
        ]
        rng.shuffle(steps)
        cycle.append(steps)
    return Workload(
        name="sample-mix",
        roles={"primary": "/sample count=2, exact", "secondary": "/sample count=2, auto"},
        files=files,
        dbs=tuple((name, f"{name}.pxml", CONSTRAINTS_FILE) for name in names),
        states={name: {name: (files[f"{name}.pxml"], CONSTRAINTS)} for name in names},
        cycle=cycle,
    )


def edit_requery(seed: int, scale: str) -> Workload:
    shape = SHAPES[scale]["edit-requery"]
    rng = random.Random(f"{seed}:edit-requery")
    count = EDIT_PARAM_SETS[scale]
    # Set `count` is the initial file; rounds cycle through sets 0..count-1,
    # so every write changes the probabilities the store holds.
    documents = [seeded_pdocument(shape, rng) for _ in range(count + 1)]
    combos = [(t, m) for t in POINT_TEMPLATES for m in members(shape)]
    pool = [t.format(m=m) for t, m in rng.sample(combos, EDIT_POOL)]
    states = {f"r{k}": {"e": (documents[k], CONSTRAINTS)} for k in range(count + 1)}
    cycle = []
    for k in range(count):
        first, second = rng.sample(pool, 2)
        state = f"r{k}"
        cycle.append([
            Write("e.pxml", documents[k]),
            _sat("e", "secondary", "/sat after write", state),
            _query("e", first, "primary", "first ask after write", state),
            _query("e", second, "primary", "first ask after write", state),
            # A result-cache hit: a third, much faster mode that would put
            # the primary median between modes.
            _query("e", first, "other", "re-ask (result-cache hit)", state),
        ])
    return Workload(
        name="edit-requery",
        roles={
            "primary": "first /query of a text after an edit",
            "secondary": "first /sat after a write, must show the new Pr(P |= C)",
        },
        files={"e.pxml": documents[count], CONSTRAINTS_FILE: CONSTRAINTS},
        dbs=(("e", "e.pxml", CONSTRAINTS_FILE),),
        states=states,
        cycle=cycle,
        setup_state=f"r{count}",
        verify_ahead=True,
    )


BUILDERS = {
    "eval-fanout": eval_fanout,
    "eval-point": eval_point,
    "sample-mix": sample_mix,
    "edit-requery": edit_requery,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, scale: str = "full") -> Workload:
    return BUILDERS[name](seed, scale)


def setup_requests(workload: Workload) -> list[Request]:
    """The cold-start probe: one /sat per database."""
    return [
        _sat(db, "other", "cold-start /sat", workload.setup_state or db)
        for db, _, _ in workload.dbs
    ]
