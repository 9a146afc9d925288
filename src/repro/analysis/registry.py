"""The analysis registry: one source of truth for every front end.

Each analysis in the repository — Scheme/CPS or Featherweight Java —
is an :class:`AnalysisSpec`: a name, the policy axis that defines it
(context abstraction, address allocation, environment representation),
the engine that drives it, its complexity class per the paper, and
how to build its generic machine.  The paper's point is that these
analyses are one specification differing only in environment
representation and allocation policy (§3.4, §5.2, §6); accordingly
there is one driver, :meth:`AnalysisSpec.run`, and each spec
contributes only its machine.  The ``analyze``/``submit`` job core
(:mod:`repro.service.jobs`), the bench matrix
(:mod:`repro.benchsuite.runner`), incremental sessions, the CLI
(including the ``analyses`` subcommand) and the docs-drift tests all
dispatch off this table, so registering a spec here is the *only*
step needed to expose a new analysis everywhere at once.

The registry is populated lazily on first use (importing the analyzer
modules is deferred into each spec's machine constructor, so
consulting the table stays cheap for worker processes that never run
some analyses).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import UsageError


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis as a data point on the kernel's policy axis.

    ``machine(program, parameter, obj_depth)`` builds the analysis's
    generic machine; :meth:`run` drives it.  ``concrete`` names the
    concrete machine mode the soundness property suite checks the
    analysis against (``shared-history``, ``flat-stack``,
    ``flat-history``, ``summary-stack`` for Scheme; ``fj`` for
    Featherweight Java).

    ``specialized`` is the registry's engine knob: with it on (the
    default) runs go through the per-policy specialization stage
    (:func:`repro.analysis.specialize.specialize_machine`), which
    picks the one fast step loop of the policy's kind — byte-identical
    to the generic step loop, gated by the golden and differential
    suites.  A spec registers ``specialized=True`` if and only if some
    context depth runs a non-generic loop; specs the stage never
    covers (pushdown, the naive §3.6 drivers, the map-based and the
    receiver-sensitive FJ machines) register ``specialized=False``.
    ``takes_obj_depth`` marks the hybrid ladder: only those specs
    accept the bench ``--obj-depth`` axis.  ``context_free`` marks an
    analysis with no depth to turn: its machine ignores the parameter
    and its results record parameter 0.
    """

    name: str              # CLI name, e.g. "kcfa"
    display: str           # result/display name, e.g. "k-CFA"
    language: str          # "scheme" | "fj"
    env_rep: str           # "shared" | "flat" | "summary"
    engine: str            # "single-store" | "naive" | "naive+gc"
    context: str           # the tick/alloc policy, in words
    complexity: str        # per the paper, e.g. "EXPTIME-complete"
    machine: Callable      # (program, parameter, obj_depth) -> machine
    concrete: str | None = None
    paper: str = ""        # section reference
    specialized: bool = True
    takes_obj_depth: bool = False
    context_free: bool = False

    def run(self, program, parameter: int, budget=None,
            plain: bool = False, specialize: bool | None = None,
            obj_depth: int | None = None, machine=None):
        """Run this analysis; the parameter is the k/m/n depth.

        The one driver behind every analysis: build the generic
        machine (or take *machine*, prebuilt by a caller that varies
        a policy the registry does not expose, such as FJ's
        ``tick_policy``), pass it through the specialization stage,
        run the spec's engine and package the result.

        ``specialize=None`` means the spec's own default; ``True``
        still runs the generic loop when the spec opted out.
        ``obj_depth`` is only legal on hybrid-ladder specs
        (:class:`~repro.errors.UsageError` otherwise).
        """
        from repro.analysis import engine
        from repro.analysis.interning import PlainTable
        if obj_depth is not None and not self.takes_obj_depth:
            raise UsageError(
                f"analysis {self.name!r} has no obj-depth axis; "
                f"--obj-depth applies only to "
                f"{', '.join(_obj_depth_names()) or 'no registered analysis'}")
        if machine is None:
            machine = self.machine(program, parameter, obj_depth)
        machine = engine.specialize(
            machine, self.specialized if specialize is None
            else specialize and self.specialized)
        if self.language == "fj":
            from repro.fj.kcfa import _FJRecorder as Recorder
            from repro.fj.kcfa import fj_result_from_run as package
            tick_policy = (machine.policy.display,)
        else:
            from repro.analysis.kernel import Recorder
            from repro.analysis.kernel import result_from_run as package
            tick_policy = ()
        collect = None
        if self.engine == "naive+gc":
            if self.language == "fj":
                from repro.fj.gc import collect
            else:
                from repro.analysis.gc import collect
        options = engine.EngineOptions(
            budget=budget, collect=collect,
            table_factory=PlainTable if plain else None)
        if self.engine == "single-store":
            run = engine.run_single_store(machine, Recorder(), options)
        else:
            run = engine.run_naive(machine, Recorder(), options)
        result = package(run, program, self.display,
                         0 if self.context_free else parameter,
                         *tick_policy)
        result.engine_path = engine.machine_path(machine)
        return result

    def listing(self) -> dict:
        """The JSON-able registry row served by the ``analyses``
        protocol op and rendered by ``python -m repro analyses`` —
        both front ends read this same projection."""
        return {
            "name": self.name, "display": self.display,
            "language": self.language, "env_rep": self.env_rep,
            "engine": self.engine, "context": self.context,
            "complexity": self.complexity, "paper": self.paper,
            "specialized": self.specialized,
            "takes_obj_depth": self.takes_obj_depth,
        }


def _obj_depth_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in registry().specs()
                 if spec.takes_obj_depth)


def registry_listing(language: str | None = None) -> list[dict]:
    """Every registered analysis as a JSON-able row (see
    :meth:`AnalysisSpec.listing`)."""
    return [spec.listing() for spec in registry().specs(language)]


class AnalysisRegistry:
    """An ordered name → :class:`AnalysisSpec` table."""

    def __init__(self):
        self._specs: dict[str, AnalysisSpec] = {}

    def register(self, spec: AnalysisSpec) -> AnalysisSpec:
        if spec.name in self._specs:
            raise ValueError(f"analysis {spec.name!r} already "
                             f"registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str, language: str | None = None
            ) -> AnalysisSpec:
        """Look up a spec; raises :class:`~repro.errors.UsageError`
        (exit code 2 at the CLI) with the valid choices on a miss."""
        spec = self._specs.get(name)
        if spec is not None:
            if language is None or spec.language == language:
                return spec
            raise UsageError(
                f"analysis {name!r} is a {spec.language} analysis, "
                f"not {language}; choose from "
                f"{', '.join(self.names(language))}")
        raise UsageError(
            f"unknown analysis {name!r}; choose from "
            f"{', '.join(self.names(language))}")

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self, language: str | None = None) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._specs.values()
                     if language is None or spec.language == language)

    def specs(self, language: str | None = None
              ) -> tuple[AnalysisSpec, ...]:
        return tuple(spec for spec in self._specs.values()
                     if language is None or spec.language == language)

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry.  Use :func:`registry` to read it — the
#: accessor populates the builtin analyses on first use.
REGISTRY = AnalysisRegistry()

_populated = False
_populate_lock = threading.Lock()


def registry() -> AnalysisRegistry:
    """The populated process-wide registry."""
    global _populated
    if not _populated:
        # Double-checked under a lock: concurrent first consultations
        # (library embedders calling from thread pools) must not race
        # _register_builtin against itself on the shared table.
        with _populate_lock:
            if not _populated:
                _register_builtin(REGISTRY)
                _populated = True
    return REGISTRY


def run_analysis(name: str, program, parameter: int, budget=None,
                 plain: bool = False, language: str | None = None,
                 specialize: bool | None = None,
                 obj_depth: int | None = None, machine=None):
    """Dispatch one analysis by registry name (see
    :meth:`AnalysisSpec.run`)."""
    return registry().get(name, language).run(
        program, parameter, budget, plain, specialize=specialize,
        obj_depth=obj_depth, machine=machine)


# -- the builtin analyses -------------------------------------------------
#
# Each declaration is the whole analysis: the kernel (or FJ machine)
# plus a context policy.  Machine constructors import lazily so that
# touching the registry never pays for analyzer modules it does not
# run.


def _depth(name: str, value: int) -> int:
    if value < 0:
        raise UsageError(f"{name} must be non-negative, got {value}")
    return value


def _kcfa_machine(program, k, obj_depth):
    from repro.analysis.kcfa import KCFAMachine
    return KCFAMachine(program, k)


def _flat_machine(program, allocator):
    from repro.analysis.flat_machine import FlatMachine
    return FlatMachine(program, allocator)


def _mcfa_machine(program, m, obj_depth):
    from repro.analysis.policies import mcfa_allocator
    return _flat_machine(program, mcfa_allocator(_depth("m", m)))


def _poly_machine(program, k, obj_depth):
    from repro.analysis.policies import poly_kcfa_allocator
    return _flat_machine(program, poly_kcfa_allocator(_depth("k", k)))


def _zero_machine(program, parameter, obj_depth):
    return _mcfa_machine(program, 0, None)


def _pushdown_machine(program, parameter, obj_depth):
    from repro.analysis.pushdown import SummaryMachine
    return SummaryMachine(program)


def _fj_kcfa_machine(program, k, obj_depth):
    from repro.fj.kcfa import FJKCFAMachine
    return FJKCFAMachine(program, k)


def _fj_poly_machine(program, k, obj_depth):
    from repro.fj.poly import FJPolyMachine
    return FJPolyMachine(program, k)


def _fj_flat_machine(program, policy):
    from repro.fj.poly import FJFlatMachine
    return FJFlatMachine(program, policy)


def _fj_mcfa_machine(program, m, obj_depth):
    from repro.analysis.policies import FJStack
    return _fj_flat_machine(program, FJStack(_depth("m", m)))


def _fj_hybrid_machine(program, n, obj_depth):
    from repro.analysis.policies import FJHybrid
    _depth("n", n)
    obj_depth = 1 if obj_depth is None else obj_depth
    if isinstance(obj_depth, bool) or not isinstance(obj_depth, int) \
            or obj_depth < 0:
        raise UsageError(
            f"obj_depth must be a non-negative integer, got "
            f"{obj_depth!r}")
    return _fj_flat_machine(
        program, FJHybrid(call_depth=n, obj_depth=obj_depth))


def _fj_obj_machine(program, n, obj_depth):
    from repro.analysis.policies import FJHybrid
    return _fj_flat_machine(
        program, FJHybrid(call_depth=0, obj_depth=_depth("n", n)))


def _register_builtin(table: AnalysisRegistry) -> None:
    table.register(AnalysisSpec(
        name="kcfa", display="k-CFA", language="scheme",
        env_rep="shared", engine="single-store",
        context="tick: last k call sites; alloc: (var, time)",
        complexity="EXPTIME-complete (k >= 1)", machine=_kcfa_machine,
        concrete="shared-history", paper="§3.4–3.7"))
    table.register(AnalysisSpec(
        name="mcfa", display="m-CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="alloc: top-m stack frames, continuations restore",
        complexity="PTIME", machine=_mcfa_machine,
        concrete="flat-stack", paper="§5.2–5.3"))
    table.register(AnalysisSpec(
        name="poly", display="poly-k-CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="alloc: last k call sites (every call rotates)",
        complexity="PTIME", machine=_poly_machine,
        concrete="flat-history", paper="§6"))
    table.register(AnalysisSpec(
        name="zero", display="0CFA", language="scheme",
        env_rep="flat", engine="single-store",
        context="no context: [m=0]CFA == [k=0]CFA",
        complexity="PTIME", machine=_zero_machine,
        concrete="flat-stack", paper="§5.3", context_free=True))
    table.register(AnalysisSpec(
        name="pushdown", display="pushdown", language="scheme",
        env_rep="summary", engine="single-store",
        context="entry summaries keyed on argument values; "
                "call-edge tables, continuations restore frames",
        complexity="PTIME (polynomial entry table)",
        machine=_pushdown_machine,
        concrete="summary-stack", paper="§6 / CFA2",
        # The specializer has no compiled step loop for the summary
        # rep yet; register the knob honestly (the analyses listing
        # and the bench --specialize axis must not advertise a path
        # that cannot run) — asserted in tests/test_pushdown.py.
        specialized=False, context_free=True))
    table.register(AnalysisSpec(
        name="kcfa-gc", display="k-CFA+GC", language="scheme",
        env_rep="shared", engine="naive+gc",
        context="tick: last k call sites; abstract GC per transition",
        complexity="EXPTIME (per-state stores)",
        machine=_kcfa_machine,
        concrete="shared-history", paper="§8 / ΓCFA",
        specialized=False))
    table.register(AnalysisSpec(
        name="kcfa-naive", display="k-CFA-naive", language="scheme",
        env_rep="shared", engine="naive",
        context="tick: last k call sites; reachable-states driver",
        complexity="EXPTIME even for k=0", machine=_kcfa_machine,
        concrete="shared-history", paper="§3.6",
        specialized=False))
    table.register(AnalysisSpec(
        name="fj-kcfa", display="FJ-k-CFA", language="fj",
        env_rep="shared", engine="single-store",
        context="tick: last k labels at invocations (Figure 9)",
        complexity="PTIME (objects close flat)",
        machine=_fj_kcfa_machine,
        concrete="fj", paper="§4.3",
        # The map-based Figure 9 machine has no specialization yet
        # (see ROADMAP); register the knob honestly so the analyses
        # listing and the bench --specialize axis do not advertise a
        # path that cannot run.
        specialized=False))
    table.register(AnalysisSpec(
        name="fj-poly", display="FJ-poly-k-CFA", language="fj",
        env_rep="flat", engine="single-store",
        context="benv collapsed to its time (BEnv ~ Time)",
        complexity="PTIME", machine=_fj_poly_machine,
        concrete="fj", paper="§4.4"))
    table.register(AnalysisSpec(
        name="fj-kcfa-gc", display="FJ-k-CFA+GC", language="fj",
        env_rep="shared", engine="naive+gc",
        context="Figure 9 ticks; abstract GC per transition",
        complexity="per-state stores", machine=_fj_kcfa_machine,
        concrete="fj", paper="§8", specialized=False))
    table.register(AnalysisSpec(
        name="fj-mcfa", display="FJ-m-CFA", language="fj",
        env_rep="flat", engine="single-store",
        context="top-m stack frames; this re-bound by field copying",
        complexity="PTIME", machine=_fj_mcfa_machine,
        concrete="fj", paper="§5 transplanted to §4",
        # Receiver-sensitive flat FJ: per-receiver times mean the
        # per-statement addresses are not compile-time constants, so
        # every depth runs the generic machine (as for fj-hybrid and
        # fj-obj below).
        specialized=False))
    table.register(AnalysisSpec(
        name="fj-hybrid", display="FJ-hybrid", language="fj",
        env_rep="flat", engine="single-store",
        context="receiver alloc site + last call sites (ladder)",
        complexity="PTIME", machine=_fj_hybrid_machine,
        concrete="fj", paper="§8 (object sensitivity)",
        specialized=False, takes_obj_depth=True))
    table.register(AnalysisSpec(
        name="fj-obj", display="FJ-obj", language="fj",
        env_rep="flat", engine="single-store",
        context="receiver allocation chain, depth n (obj^n)",
        complexity="PTIME", machine=_fj_obj_machine,
        concrete="fj", paper="§8 (object sensitivity)",
        specialized=False))
