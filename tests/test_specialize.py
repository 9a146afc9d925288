"""Differential suite: specialized vs. generic engine, byte for byte.

The per-policy specialization stage (:mod:`repro.analysis.specialize`)
promises more than equal fixpoints — it promises the *same
trajectory*: identical rendered reports, identical step counts and
identical reachable-configuration sets, across every registered
analysis and both value domains.  That is what lets CI diff whole
bench reports between ``--no-specialize`` and the default path, and
what the ``specialized=True`` registry knob asserts.

The harness here is the enforcement: ``run_both`` executes one
analysis twice (generic, then specialized) and
``assert_identical`` compares everything observable.  A spec that
registers ``specialized=True`` but diverges fails this suite — the
final test proves the harness actually catches such an impostor.
"""

from __future__ import annotations

import pytest

from shared_corpus import EXPLODES, small_sources

from repro.analysis.registry import registry
from repro.errors import UsageError
from repro.scheme.cps_transform import compile_program
from repro.service.jobs import render_fj_reports, render_reports

SCHEME_SPECS = registry().specs("scheme")
FJ_SPECS = registry().specs("fj")
VALUE_MODES = ("interned", "plain")

#: Engine paths the stage is expected to pick per analysis (context
#: depth 0 vs. depth >= 1) — pinned so a refactor cannot silently
#: stop specializing an analysis while this suite vacuously passes.
EXPECTED_PATHS = {
    ("zero", 0): "specialized:zero-flat",
    ("mcfa", 0): "specialized:zero-flat",
    ("poly", 0): "specialized:zero-flat",
    ("mcfa", 1): "codegen:flat",
    ("poly", 1): "codegen:flat",
    ("kcfa", 1): "specialized:shared",
    ("kcfa-naive", 1): "generic",
    ("kcfa-gc", 1): "generic",
    ("pushdown", 0): "generic",
    ("pushdown", 1): "generic",
    ("fj-poly", 0): "codegen:zero-fj-flat",
    ("fj-poly", 1): "generic",
    ("fj-mcfa", 1): "generic",
    ("fj-kcfa", 0): "generic",
}



def _knob_probe_program(spec):
    if spec.language == "fj":
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        return parse_fj(ALL_EXAMPLES["pairs"])
    return compile_program("((lambda (x) x) 1)")


@pytest.mark.parametrize("spec", registry().specs(),
                         ids=lambda spec: spec.name)
def test_specialized_knob_matches_engine_paths(spec):
    """The analyses listing and the bench axis advertise
    ``specialized`` truthfully: a spec registers it if and only if
    some context depth actually runs a non-generic step loop."""
    program = _knob_probe_program(spec)
    paths = {spec.run(program, depth, specialize=True).engine_path
             for depth in (0, 1, 2)}
    assert spec.specialized == (paths != {"generic"}), paths


def run_both(spec, program, parameter, plain=False, obj_depth=None):
    generic = spec.run(program, parameter, plain=plain,
                       specialize=False, obj_depth=obj_depth)
    special = spec.run(program, parameter, plain=plain,
                       specialize=True, obj_depth=obj_depth)
    return generic, special


def assert_identical(generic, special, render, context=""):
    """Everything observable must match: the rendered report bytes,
    the trajectory (steps) and the reachable configurations."""
    assert render(generic) == render(special), \
        f"report bytes diverged {context}"
    assert generic.steps == special.steps, \
        f"trajectories diverged {context}"
    assert generic.configs == special.configs, \
        f"reachable configurations diverged {context}"


# -- Scheme ---------------------------------------------------------------


SCHEME_CASES = [
    (name, spec, context, values)
    for name in sorted(small_sources())
    for spec in SCHEME_SPECS
    for context in ((0, 1) if spec.name in ("mcfa", "poly") else (1,))
    for values in VALUE_MODES
    if (name, spec.name) not in EXPLODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", SCHEME_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_scheme_specialized_byte_identical(name, spec, context,
                                           values):
    program = compile_program(small_sources()[name])
    generic, special = run_both(spec, program, context,
                                plain=values == "plain")
    assert_identical(
        generic, special,
        lambda result: render_reports(program, result),
        context=f"({name}, {spec.name}, n={context}, {values})")
    assert generic.engine_path == "generic"


# -- Featherweight Java ---------------------------------------------------


FJ_CASES = [
    (name, spec, context, values)
    for name in ("pairs", "dispatch", "linked_list", "oo_identity")
    for spec in FJ_SPECS
    for context in (0, 1)
    for values in VALUE_MODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", FJ_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_fj_specialized_byte_identical(name, spec, context, values):
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    program = parse_fj(ALL_EXAMPLES[name])
    generic, special = run_both(spec, program, context,
                                plain=values == "plain")
    assert_identical(
        generic, special,
        lambda result: render_fj_reports(program, result),
        context=f"({name}, {spec.name}, n={context}, {values})")


def test_fj_hybrid_obj_depth_axis_identical():
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    spec = registry().get("fj-hybrid")
    program = parse_fj(ALL_EXAMPLES["oo_identity"])
    for obj_depth in (0, 1, 2):
        generic, special = run_both(spec, program, 1,
                                    obj_depth=obj_depth)
        assert_identical(
            generic, special,
            lambda result: render_fj_reports(program, result),
            context=f"(oo_identity, fj-hybrid, obj={obj_depth})")


# -- random programs ------------------------------------------------------


@pytest.mark.parametrize("seed", (7, 42, 99))
def test_random_fj_programs_identical(seed):
    from repro.fj import parse_fj
    from repro.generators.fj_random import fj_random_source
    program = parse_fj(fj_random_source(seed))
    for spec in FJ_SPECS:
        if spec.engine != "single-store":
            continue  # naive drivers can explode on random terms
        for context in (0, 1):
            generic, special = run_both(spec, program, context)
            assert_identical(
                generic, special,
                lambda result: render_fj_reports(program, result),
                context=f"(fjrand{seed}, {spec.name}, n={context})")


@pytest.mark.parametrize("seed", (5, 23, 71, 104))
def test_random_scheme_programs_identical(seed):
    from repro.generators.random_programs import random_program
    program = random_program(seed, 4)
    for spec in SCHEME_SPECS:
        if spec.engine != "single-store":
            continue  # naive drivers can explode on random terms
        for context in (0, 1):
            generic, special = run_both(spec, program, context)
            assert_identical(
                generic, special,
                lambda result: render_reports(program, result),
                context=f"(seed {seed}, {spec.name}, n={context})")


# -- which path ran -------------------------------------------------------


@pytest.mark.parametrize("key", sorted(EXPECTED_PATHS),
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_expected_engine_path(key):
    name, context = key
    spec = registry().get(name)
    if spec.language == "fj":
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        program = parse_fj(ALL_EXAMPLES["pairs"])
    else:
        program = compile_program("((lambda (x) x) 1)")
    result = spec.run(program, context)
    assert result.engine_path == EXPECTED_PATHS[key]


@pytest.mark.parametrize("shape", ("begin", "arith", "lets"))
def test_deep_programs_pick_their_loop(shape):
    """Programs too deep to fingerprint: codegen declines, so flat
    depth >= 1 runs the generic kernel while the context-free kind
    keeps its folded loop — and both stay byte-identical."""
    import test_deep_programs as deep
    source = getattr(deep, f"deep_{shape}")(deep.DEPTH)
    program = compile_program(source)
    for name, context, path in (("mcfa", 1, "generic"),
                                ("zero", 0, "specialized:zero-flat")):
        generic, special = run_both(registry().get(name), program,
                                    context)
        assert special.engine_path == path
        assert_identical(
            generic, special,
            lambda result: render_reports(program, result),
            context=f"(deep_{shape}, {name}, n={context})")


def test_escape_hatch_forces_generic():
    program = compile_program("((lambda (x) x) 1)")
    result = registry().get("zero").run(program, 0, specialize=False)
    assert result.engine_path == "generic"


def test_obj_depth_rejected_off_the_ladder():
    program = compile_program("((lambda (x) x) 1)")
    with pytest.raises(UsageError, match="no obj-depth axis"):
        registry().get("zero").run(program, 0, obj_depth=2)


# -- the harness catches impostors ----------------------------------------


def test_diverging_specialization_fails(monkeypatch):
    """A machine that claims to be a specialization but drops joins
    must fail the differential harness — proving the suite would catch
    a spec registered ``specialized=True`` that diverges."""
    from repro.analysis import specialize as specialize_module
    from repro.analysis.specialize import specialize_machine

    class Diverging:
        specialization = "diverging"

        def __init__(self, inner):
            self._inner = inner

        def boot(self, store):
            return self._inner.boot(store)

        def step(self, config, store, reads, recorder):
            succs = self._inner.step(config, store, reads, recorder)
            # Drop every join: the store never grows, so the "result"
            # is an empty flow everywhere.
            return [(succ, ()) for succ, _joins in succs]

    def broken(machine):
        inner = specialize_machine(machine)
        return Diverging(inner or machine)

    monkeypatch.setattr(specialize_module, "specialize_machine",
                        broken)
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    generic, special = run_both(spec, program, 0)
    assert special.engine_path == "specialized:diverging"
    with pytest.raises(AssertionError, match="diverged"):
        assert_identical(
            generic, special,
            lambda result: render_reports(program, result))


# -- the codegen tier -----------------------------------------------------
#
# Where the stage picks generated source (:mod:`repro.analysis.codegen`)
# the module must behave the same whether it was just generated or
# loaded back from disk by a fresh cache, and the kinds the stage keeps
# off codegen must never touch the module cache.  Each case runs the
# fast path twice over one disk directory — a cold generate, then a
# reload — and holds both runs to the generic oracle.


#: The engine paths that run a generated module.
CODEGEN_PATHS = ("codegen:flat", "codegen:zero-fj-flat")


def assert_codegen_round_trip(spec, program, parameter, render,
                              directory, plain=False, context=""):
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    generic = spec.run(program, parameter, plain=plain,
                       specialize=False)
    runs = []
    try:
        for _ in range(2):
            cache = CodegenCache(directory)
            set_default_codegen_cache(cache)
            runs.append((spec.run(program, parameter, plain=plain),
                         cache.stats))
    finally:
        set_default_codegen_cache(None)
    (cold, cold_stats), (warm, warm_stats) = runs
    for special in (cold, warm):
        assert_identical(generic, special, render, context=context)
    assert cold.engine_path == warm.engine_path
    counts = (cold_stats.misses, cold_stats.hits, warm_stats.misses,
              warm_stats.hits)
    if cold.engine_path in CODEGEN_PATHS:
        assert counts == (1, 0, 0, 1), context
    else:
        assert counts == (0, 0, 0, 0), context
    return cold


CODEGEN_SCHEME_SPECS = [registry().get(name)
                        for name in ("mcfa", "poly", "zero")]

CODEGEN_SCHEME_CASES = [
    (name, spec, context, values)
    for name in sorted(small_sources())
    for spec in CODEGEN_SCHEME_SPECS
    for context in ((0, 1) if spec.name in ("mcfa", "poly") else (0,))
    for values in VALUE_MODES
    if (name, spec.name) not in EXPLODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", CODEGEN_SCHEME_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_scheme_codegen_byte_identical(name, spec, context, values,
                                       tmp_path):
    program = compile_program(small_sources()[name])
    fast = assert_codegen_round_trip(
        spec, program, context,
        lambda result: render_reports(program, result),
        tmp_path / "codegen", plain=values == "plain",
        context=f"({name}, {spec.name}, n={context}, {values})")
    assert fast.engine_path == ("codegen:flat" if context
                                else "specialized:zero-flat")


CODEGEN_FJ_CASES = [
    (name, values)
    for name in ("pairs", "dispatch", "linked_list", "oo_identity")
    for values in VALUE_MODES
]


@pytest.mark.parametrize("name,values", CODEGEN_FJ_CASES)
def test_fj_codegen_byte_identical(name, values, tmp_path):
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    program = parse_fj(ALL_EXAMPLES[name])
    fast = assert_codegen_round_trip(
        registry().get("fj-poly"), program, 0,
        lambda result: render_fj_reports(program, result),
        tmp_path / "codegen", plain=values == "plain",
        context=f"({name}, fj-poly, n=0, {values})")
    assert fast.engine_path == "codegen:zero-fj-flat"


@pytest.mark.parametrize("seed", (5, 23, 71, 104))
def test_random_scheme_codegen_identical(seed, tmp_path):
    from repro.generators.random_programs import random_program
    program = random_program(seed, 4)
    for spec in CODEGEN_SCHEME_SPECS:
        for context in (0, 1):
            assert_codegen_round_trip(
                spec, program, context,
                lambda result: render_reports(program, result),
                tmp_path / f"{spec.name}-{context}",
                context=f"(seed {seed}, {spec.name}, n={context})")


@pytest.mark.parametrize("seed", (7, 42, 99))
def test_random_fj_codegen_identical(seed, tmp_path):
    from repro.fj import parse_fj
    from repro.generators.fj_random import fj_random_source
    program = parse_fj(fj_random_source(seed))
    fast = assert_codegen_round_trip(
        registry().get("fj-poly"), program, 0,
        lambda result: render_fj_reports(program, result),
        tmp_path / "codegen", context=f"(fjrand{seed}, fj-poly, n=0)")
    assert fast.engine_path == "codegen:zero-fj-flat"


# -- the codegen cache: honest invalidation -------------------------------


def _disk_codegen_cache(tmp_path):
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    cache = CodegenCache(tmp_path / "codegen")
    set_default_codegen_cache(cache)
    return cache


def _sole_module_file(cache):
    files = sorted(cache.directory.glob("*.py"))
    assert len(files) == 1, files
    return files[0]


def test_codegen_cache_hits_across_processes_worth_of_state(
        tmp_path):
    """A fresh in-memory cache over the same directory serves the
    module from disk (one miss, then hits)."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("mcfa")
    cache = _disk_codegen_cache(tmp_path)
    try:
        first = spec.run(program, 1)
        assert cache.stats.misses == 1 and cache.stats.writes == 1
        rewarmed = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(rewarmed)
        second = spec.run(program, 1)
        assert rewarmed.stats.hits == 1
        assert rewarmed.stats.misses == 0
        assert render_reports(program, first) \
            == render_reports(program, second)
        assert first.steps == second.steps
    finally:
        set_default_codegen_cache(None)


def test_stale_schema_module_is_regenerated_not_served(tmp_path):
    """A cached module whose embedded SCHEMA predates the current one
    must be rejected and regenerated in place — the invalidation
    regression for any future emitter change."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("mcfa")
    cache = _disk_codegen_cache(tmp_path)
    try:
        baseline = spec.run(program, 1)
        path = _sole_module_file(cache)
        text = path.read_text(encoding="utf-8")
        assert "SCHEMA = " in text
        path.write_text(text.replace("SCHEMA = ", "SCHEMA = -",
                                     1), encoding="utf-8")
        stale = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(stale)
        rerun = spec.run(program, 1)
        assert stale.stats.rejected == 1
        assert stale.stats.writes == 1  # regenerated in place
        assert rerun.engine_path == "codegen:flat"
        assert render_reports(program, rerun) \
            == render_reports(program, baseline)
        # The rewritten entry is valid again.
        assert "SCHEMA = -" not in path.read_text(encoding="utf-8")
    finally:
        set_default_codegen_cache(None)


def test_corrupt_cached_module_is_regenerated_not_a_crash(tmp_path):
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("mcfa")
    cache = _disk_codegen_cache(tmp_path)
    try:
        baseline = spec.run(program, 1)
        path = _sole_module_file(cache)
        path.write_text("def (broken syntax", encoding="utf-8")
        corrupt = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(corrupt)
        rerun = spec.run(program, 1)
        assert corrupt.stats.rejected == 1
        assert rerun.engine_path == "codegen:flat"
        assert render_reports(program, rerun) \
            == render_reports(program, baseline)
    finally:
        set_default_codegen_cache(None)


def test_codegen_prune_drops_stale_schema_entries(tmp_path,
                                                  monkeypatch):
    program = compile_program(small_sources()["eta"])
    spec = registry().get("mcfa")
    from repro.analysis.codegen import set_default_codegen_cache
    cache = _disk_codegen_cache(tmp_path)
    try:
        spec.run(program, 1)
        path = _sole_module_file(cache)
        monkeypatch.setattr("repro.cache.CODEGEN_SCHEMA_VERSION",
                            9999)
        removed = cache.prune()
        assert removed == 1
        assert not path.exists()
    finally:
        set_default_codegen_cache(None)
