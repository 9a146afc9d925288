"""The analysis registry: the single source of truth, and sound.

Two families of checks:

* *consistency* — every front end (job core, bench runner, CLI) reads
  its analysis names from the registry, unknown names raise
  :class:`~repro.errors.UsageError`, and every registered machine
  factory builds a machine the one driver runs;
* *soundness property* — any registered Scheme policy must cover a
  concrete run on randomly generated programs (α-containment via the
  machinery of :mod:`repro.analysis.abstraction`), and any registered
  FJ policy must cover the concrete FJ machine's result.  A new
  policy registered tomorrow is picked up by these tests with no
  edits — registering is what makes it tested.
"""

from __future__ import annotations

import pytest

from repro.analysis.abstraction import (
    check_flat_soundness, check_kcfa_soundness,
    check_summary_soundness,
)
from repro.analysis.registry import AnalysisSpec, registry
from repro.concrete import run_flat, run_shared
from repro.errors import UsageError
from repro.generators.random_programs import random_program

SCHEME_SPECS = registry().specs("scheme")
FJ_SPECS = registry().specs("fj")


class TestConsistency:
    def test_front_ends_read_the_registry(self):
        from repro.benchsuite.runner import ALL_ANALYSES
        from repro.service.jobs import FJ_ANALYSES, SCHEME_ANALYSES
        from repro.__main__ import ANALYSES
        names = registry().names()
        assert SCHEME_ANALYSES + FJ_ANALYSES == names
        assert ALL_ANALYSES == names
        assert ANALYSES == names

    def test_new_policies_are_registered(self):
        names = registry().names("fj")
        assert "fj-mcfa" in names
        assert "fj-hybrid" in names
        assert "fj-obj" in names

    def test_unknown_name_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown analysis"):
            registry().get("super-cfa")

    def test_language_filter_misses_are_usage_errors(self):
        # A registered name with the wrong language names the real
        # problem instead of claiming the analysis is unknown.
        with pytest.raises(UsageError,
                           match="is a fj analysis, not scheme"):
            registry().get("fj-kcfa", language="scheme")

    def test_duplicate_registration_rejected(self):
        spec = registry().get("kcfa")
        with pytest.raises(ValueError, match="already registered"):
            registry().register(spec)

    @pytest.mark.parametrize(
        "spec", SCHEME_SPECS, ids=lambda spec: spec.name)
    def test_every_scheme_factory_runs(self, spec: AnalysisSpec,
                                       small_programs):
        _source, program = small_programs["identity"]
        assert hasattr(spec.machine(program, 1, None), "step")
        result = spec.run(program, 1)
        assert result.analysis == spec.display
        assert result.halt_values

    @pytest.mark.parametrize(
        "spec", FJ_SPECS, ids=lambda spec: spec.name)
    def test_every_fj_factory_runs(self, spec: AnalysisSpec):
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        program = parse_fj(ALL_EXAMPLES["pairs"])
        assert hasattr(spec.machine(program, 1, None), "step")
        result = spec.run(program, 1)
        assert result.analysis == spec.display
        assert result.configs
        assert result.halt_values


#: How each registry ``concrete`` mode is checked: which concrete
#: machine to run and which α-containment checker applies.
def _check_scheme_soundness(spec: AnalysisSpec, program):
    if spec.concrete == "shared-history":
        concrete = run_shared(program, record_trace=True,
                              time_mode="history")
        return check_kcfa_soundness(spec.run(program, 1), concrete)
    if spec.concrete == "flat-stack":
        concrete = run_flat(program, record_trace=True,
                            env_policy="stack")
        return check_flat_soundness(spec.run(program, 1), concrete)
    if spec.concrete == "flat-history":
        concrete = run_flat(program, record_trace=True,
                            env_policy="history")
        return check_flat_soundness(spec.run(program, 1), concrete)
    if spec.concrete == "summary-stack":
        concrete = run_flat(program, record_trace=True,
                            env_policy="stack")
        return check_summary_soundness(spec.run(program, 1), concrete)
    raise AssertionError(
        f"registered analysis {spec.name!r} declares no concrete "
        f"soundness mode — every Scheme policy must be checkable")


class TestSoundnessProperty:
    """Any registered policy yields sound results vs the concrete
    interpreters on the random-program generator."""

    SEEDS = (3, 11, 29, 57, 91)

    @pytest.mark.parametrize(
        "spec", SCHEME_SPECS, ids=lambda spec: spec.name)
    def test_scheme_policies_sound(self, spec: AnalysisSpec):
        for seed in self.SEEDS:
            program = random_program(seed, 3)
            report = _check_scheme_soundness(spec, program)
            if spec.engine.endswith("+gc"):
                # Abstract GC drops *dead* concrete bindings by
                # design; the program result must still be covered.
                gaps = [violation for violation in report.violations
                        if violation.startswith("halt")]
                assert not gaps, (spec.name, seed, gaps)
                continue
            assert report, (spec.name, seed, report.violations[:3])

    @pytest.mark.parametrize(
        "spec", FJ_SPECS, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("name", ["pairs", "dispatch",
                                      "linked_list", "oo_identity"])
    def test_fj_policies_cover_concrete_result(self, spec, name):
        """The concrete FJ result object must be covered by the
        abstract halt flow set (class + allocation site)."""
        from repro.fj import parse_fj, run_fj
        from repro.fj.examples import ALL_EXAMPLES
        program = parse_fj(ALL_EXAMPLES[name])
        concrete = run_fj(program)
        result = spec.run(program, 1)
        abstract = {(value.classname, value.site)
                    for value in result.halt_values
                    if hasattr(value, "classname")}
        value = concrete.value
        assert (value.classname, value.site) in abstract, \
            (spec.name, name, abstract)
