"""The analyses: one AAM kernel, many context policies.

Every analysis here is the shared transfer function of
:mod:`repro.analysis.kernel` instantiated with a context policy
(:mod:`repro.analysis.policies`) and registered in
:mod:`repro.analysis.registry`.  All share the result API of
:class:`~repro.analysis.results.AnalysisResult` and accept an optional
:class:`~repro.util.budget.Budget` for step/time limits (worst-case
table cells report ∞ via :class:`~repro.errors.AnalysisTimeout`).

Attributes resolve lazily (PEP 562): consulting the registry — which
every front end does at startup — must not pay for the analyzer
modules, whose import is deferred into the registered machine
constructors.
"""

_LAZY = {
    **{name: "repro.analysis.domains" for name in (
        "AConst", "APair", "AbsStore", "AbsVal", "Addr", "BASIC",
        "BEnv", "BasicValue", "EMPTY_BENV", "FClo", "FlatEnvAbs",
        "FrozenStore", "KClo", "Time", "abstract_literal", "first_k",
        "maybe_falsy", "maybe_truthy")},
    **{name: "repro.analysis.engine" for name in (
        "EngineOptions", "EngineRun", "Machine", "NaiveState",
        "run_naive", "run_single_store")},
    **{name: "repro.analysis.kernel" for name in (
        "FlatEnv", "Kernel", "SharedEnv")},
    **{name: "repro.analysis.registry" for name in (
        "AnalysisRegistry", "AnalysisSpec", "registry",
        "run_analysis")},
    **{name: "repro.analysis.kcfa" for name in (
        "KCFAMachine", "KConfig", "Recorder", "analyze_kcfa",
        "analyze_kcfa_naive", "result_from_run")},
    **{name: "repro.analysis.flat_machine" for name in (
        "FConfig", "FlatMachine", "mcfa_allocator",
        "poly_kcfa_allocator")},
    "analyze_mcfa": "repro.analysis.mcfa",
    "analyze_poly_kcfa": "repro.analysis.polykcfa",
    "analyze_zerocfa": "repro.analysis.zerocfa",
    "analyze_kcfa_gc": "repro.analysis.gc",
    "AnalysisResult": "repro.analysis.results",
}

__all__ = list(_LAZY)

from repro.util.lazymod import lazy_attrs  # noqa: E402

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY)
