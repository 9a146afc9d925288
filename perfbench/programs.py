"""Seeded inputs for the benchmark workloads.

Every op sequence is a pure function of ``(workload, seed, count)``:
the same seed always yields the same ops, and a different seed a
different order and different fresh programs (``selftest.py`` checks
both).  The *composition* of a sequence -- how many ops of each cell
and class -- depends on the count alone, never on the seed, so two
seeds measure the same mix of work in a different order.  That is
what lets runs with different seeds agree within the bounds in
``BENCHMARK.json``.

Nothing here times anything or keeps state; ``workloads.py`` runs the
ops.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass

#: An integer literal standing alone between parentheses or spaces:
#: the one token a fresh program or an edit rewrites.
_INT_LITERAL = re.compile(r"(?<=[\s(])\d+(?=[\s)])")

#: Code without its ``;`` comments and string literals: what the
#: literal scan may look at (a digit in a comment is not a literal).
_NOT_CODE = re.compile(r'"(?:[^"\\]|\\.)*"|;[^\n]*')

#: Size bound of the random FJ programs (``fj_random_source``'s
#: ``classes``).  The generator's default of 4 gives programs whose
#: jobs cost 1-2 ms; 16 classes bring fj-poly(0) into the 100 ms range
#: of the Scheme cells it shares the cold-jobs classes with.
FJRAND_CLASSES = 16

#: Literal values written into fresh programs and edits start here,
#: above every literal of the suite programs, so a rewritten program
#: never equals its base.
FRESH_VALUE_FLOOR = 1000


@dataclass(frozen=True, slots=True)
class JobOp:
    """One in-process ``run_job`` call."""

    cls: str          # repeat | fresh | ladder
    program: str      # display name of the program
    source: str
    analysis: str
    context: int


@dataclass(frozen=True, slots=True)
class ServiceOp:
    """One request to the analysis server.

    ``round`` ties edits and queries to the session the round's
    ``open`` created.
    """

    cls: str          # open | edit | query | submit
    round: int
    program: str
    source: str
    analysis: str = "mcfa"
    context: int = 1
    kind: str | None = None
    target: str | None = None


def base_source(name: str) -> str:
    """Program text for a suite name, ``worst<N>``, ``fjchain<N>`` or
    ``fjrand<seed>``."""
    from repro.benchsuite.programs import BY_NAME
    from repro.generators.fj_chain import fj_chain_source
    from repro.generators.fj_random import fj_random_source
    from repro.generators.worstcase import worst_case_source
    if name.startswith("worst"):
        return worst_case_source(int(name[len("worst"):]))
    if name.startswith("fjchain"):
        return fj_chain_source(int(name[len("fjchain"):]))
    if name.startswith("fjrand"):
        return fj_random_source(int(name[len("fjrand"):]),
                                classes=FJRAND_CLASSES)
    return BY_NAME[name].source


def _literals(source: str) -> list[re.Match]:
    """The integer literals of *source*'s code, in order."""
    code = _NOT_CODE.sub(lambda match: " " * len(match.group()),
                         source)
    return list(_INT_LITERAL.finditer(code))


def literal_count(source: str) -> int:
    return len(_literals(source))


def with_literal(source: str, index: int, value: int) -> str:
    """*source* with its *index*-th integer literal replaced."""
    match = _literals(source)[index]
    return source[:match.start()] + str(value) + source[match.end():]


def with_renamed_method(source: str, value: int) -> str:
    """An FJ program from ``fj_random_source`` with its first method
    renamed: a new program of exactly the same shape and cost."""
    return re.sub(r"\bm1_0\b", f"m1_0v{value}", source)


def _fresh_values(rng: random.Random, count: int) -> list[int]:
    """*count* distinct literal values, all above the floor."""
    values: list[int] = []
    seen: set[int] = set()
    while len(values) < count:
        value = FRESH_VALUE_FLOOR + rng.randrange(10 ** 6)
        if value not in seen:
            seen.add(value)
            values.append(value)
    return values


def sequence_digest(ops) -> str:
    """A stable fingerprint of an op sequence (selftest, logs)."""
    text = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- cold-jobs ---------------------------------------------------------

SCHEME_BASES = ("eta", "map", "sat", "scm2java", "worst10", "worst11",
                "worst12", "worst13", "worst14")
SCHEME_CELLS = (("zero", 0), ("mcfa", 1), ("poly", 1))
FJ_CELLS = (("fj-poly", 0), ("fj-kcfa", 1), ("fj-obj", 1))
REPEAT_FJ_SEEDS = (1, 2, 3)


def cold_cells() -> list[tuple[str, str, int]]:
    """The repeat cells in a fixed interleaved order: three Scheme
    programs' cells, then one FJ program's, and so on."""
    cells = []
    for index, base in enumerate(SCHEME_BASES):
        cells += [(base, analysis, context)
                  for analysis, context in SCHEME_CELLS]
        if index % 3 == 2:
            fjrand = f"fjrand{REPEAT_FJ_SEEDS[index // 3]}"
            cells += [(fjrand, analysis, context)
                      for analysis, context in FJ_CELLS]
    return cells


def cold_jobs_ops(seed: int, count: int) -> list[JobOp]:
    """Half repeat ops (programs set-up already staged to disk), half
    fresh ops (programs this run has never seen: one literal or one
    method name rewritten, so a fresh op costs what its repeat twin
    costs, bar the codegen cache), shuffled."""
    rng = random.Random(f"cold-jobs:{seed}")
    cells = cold_cells()
    repeats = count // 2
    fresh = count - repeats
    values = _fresh_values(rng, fresh)
    ops = [JobOp("repeat", program, base_source(program), analysis,
                 context)
           for program, analysis, context
           in (cells[i % len(cells)] for i in range(repeats))]
    for i in range(fresh):
        program, analysis, context = cells[i % len(cells)]
        base = base_source(program)
        if program.startswith("fjrand"):
            source = with_renamed_method(base, values[i])
        else:
            source = with_literal(base, literal_count(base) - 1,
                                  values[i])
        program = f"{program}~{values[i]}"
        ops.append(JobOp("fresh", program, source, analysis, context))
    rng.shuffle(ops)
    return ops


def cold_setup_cells() -> list[tuple[str, str, int]]:
    """One cell per generated module the repeat ops load: zero(0) and
    mcfa(1) per Scheme program (poly(1) shares mcfa(1)'s flat module)
    and fj-poly(0) per FJ program."""
    return [cell for cell in cold_cells()
            if cell[1] in ("zero", "mcfa", "fj-poly")]


# -- warm-ladder -------------------------------------------------------

#: One 40-op round of the ladder, by weight, cheapest cell first.  The
#: weights put the p50 rank in the middle of the scm2c block (35-65 %)
#: and the p90 rank inside the worst11 kcfa(1) block (85-97.5 %), away
#: from any boundary between cells of different cost.
LADDER_ROUND = (
    ("worst12", "pushdown", 1, 4),
    ("worst14", "mcfa", 1, 6),
    ("worst14", "poly", 1, 4),
    ("scm2c", "poly", 1, 12),
    ("regex", "mcfa", 1, 3),
    ("interp", "kcfa", 1, 5),
    ("worst11", "kcfa", 1, 5),
    ("fjchain100", "fj-poly", 0, 1),
)


def ladder_cells() -> list[tuple[str, str, int]]:
    return [(program, analysis, context)
            for program, analysis, context, _ in LADDER_ROUND]


def warm_ladder_ops(seed: int, count: int) -> list[JobOp]:
    rng = random.Random(f"warm-ladder:{seed}")
    round_ = [(program, analysis, context)
              for program, analysis, context, weight in LADDER_ROUND
              for _ in range(weight)]
    sources = {program: base_source(program)
               for program, _, _ in ladder_cells()}
    ops = [JobOp("ladder", program, sources[program], analysis, context)
           for program, analysis, context
           in (round_[i % len(round_)] for i in range(count))]
    rng.shuffle(ops)
    return ops


# -- service-mixed -----------------------------------------------------

#: Programs a round opens its mcfa(1) session on.  Their edits cost
#: about the same (5-10 ms of worker time), so edit latencies form one
#: class; scm2java's or regex's would cost 5-10 times more.
SESSION_PROGRAMS = ("eta", "map", "sat")

#: The plain submits a round cycles through; set-up submits each once,
#: so in the timed loop they are result-cache hits.
PLAIN_SUBMITS = (("eta", "zero", 0), ("map", "mcfa", 1),
                 ("sat", "poly", 1), ("worst12", "mcfa", 1))

#: The queries of one round, in order.  Point queries answer in about
#: 1 ms, a call graph in about 2 ms; with one call graph per round the
#: p50 rank falls inside the point-query block, not on its edge.
ROUND_QUERIES = ("value-of", "call-sites-of", "value-of", "call-graph",
                 "call-sites-of", "value-of", "call-sites-of",
                 "value-of")

#: Ops per round: open, 4 x (edit + 2 queries), 3 cached submits and
#: one fresh submit (a result-cache miss and put).
EDITS_PER_ROUND = 4
QUERIES_PER_EDIT = 2
ROUND_SIZE = 1 + EDITS_PER_ROUND * (1 + QUERIES_PER_EDIT) + 4


def _query_targets(source: str) -> tuple[list[str], list[str]]:
    """Candidate ``value-of`` variables and ``call-sites-of`` lambda
    labels: the program's user binders and user lambdas."""
    from repro.scheme.cps_transform import compile_program
    program = compile_program(source)
    lams = program.user_lams
    labels = sorted(str(lam.label) for lam in lams)
    names = sorted({param.split("%")[0] for lam in lams
                    for param in lam.params})
    return names, labels


def _edit_literal(source: str) -> int:
    """The literal every edit of *source* rewrites: its last one, so
    each edit re-analyses the same slice of the program."""
    return literal_count(source) - 1


def service_rounds(count: int) -> int:
    """Whole rounds for about *count* ops, a multiple of the session
    programs so each is opened equally often."""
    cycle = len(SESSION_PROGRAMS)
    return max(1, round(count / ROUND_SIZE / cycle)) * cycle


def service_mixed_ops(seed: int, count: int) -> list[ServiceOp]:
    """Rounds of open, edits with queries, and plain submits.

    Each session program has its own seeded edit script -- the values
    its four edits write and the targets its queries ask about -- and
    every round on that program replays it, as an editor toggling the
    same constants would.  That bounds the distinct outputs to check
    per run; the fresh submit of each round stays unique.
    """
    rng = random.Random(f"service-mixed:{seed}")
    rounds = service_rounds(count)
    order = list(SESSION_PROGRAMS)
    rng.shuffle(order)
    pool = iter(_fresh_values(
        rng, len(SESSION_PROGRAMS) * EDITS_PER_ROUND + rounds))
    scripts = {}
    for name in SESSION_PROGRAMS:
        names, labels = _query_targets(base_source(name))
        scripts[name] = ([next(pool) for _ in range(EDITS_PER_ROUND)],
                         rng.sample(names, 2), rng.sample(labels, 2))
    ops: list[ServiceOp] = []
    query_index = 0
    for round_ in range(rounds):
        program = order[round_ % len(order)]
        source = base_source(program)
        ops.append(ServiceOp("open", round_, program, source))
        literal = _edit_literal(source)
        values, names, labels = scripts[program]
        for value in values:
            source = with_literal(source, literal, value)
            ops.append(ServiceOp("edit", round_, program, source))
            for _ in range(QUERIES_PER_EDIT):
                kind = ROUND_QUERIES[query_index % len(ROUND_QUERIES)]
                query_index += 1
                target = None
                if kind == "value-of":
                    target = rng.choice(names)
                elif kind == "call-sites-of":
                    target = rng.choice(labels)
                ops.append(ServiceOp("query", round_, program, source,
                                     kind=kind, target=target))
        for index in range(3):
            name, analysis, context = PLAIN_SUBMITS[
                (round_ * 3 + index) % len(PLAIN_SUBMITS)]
            ops.append(ServiceOp("submit", round_, name,
                                 base_source(name), analysis, context))
        # The fresh submit: a suite program with one literal rewritten
        # -- a cache miss whose result the server then writes.
        name = SESSION_PROGRAMS[round_ % len(SESSION_PROGRAMS)]
        value = next(pool)
        ops.append(ServiceOp("submit", round_, f"{name}~{value}",
                             with_literal(base_source(name), 0, value),
                             "zero", 0))
    return ops


#: The op sequence of each workload, by name.
SEQUENCES = {
    "cold-jobs": cold_jobs_ops,
    "warm-ladder": warm_ladder_ops,
    "service-mixed": service_mixed_ops,
}
