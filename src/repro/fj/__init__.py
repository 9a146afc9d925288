"""Featherweight Java: syntax, parser, concrete and abstract semantics.

The OO side of the paradox (paper §4): the same k-CFA specification
that is exponential for CPS is polynomial here, because object records
close all their fields in one context.

Attributes resolve lazily (PEP 562, like :mod:`repro` and
:mod:`repro.analysis`): a registry machine constructor importing one
FJ analyzer must not load all of them.
"""

_LAZY = {
    **{name: "repro.fj.syntax" for name in (
        "Assign", "Cast", "ClassDef", "FieldAccess", "Invoke",
        "Konstructor", "Method", "New", "OBJECT", "Return",
        "VarExp")},
    "FJProgram": "repro.fj.class_table",
    "parse_fj": "repro.fj.parser",
    **{name: "repro.fj.concrete" for name in (
        "FJConcreteResult", "FJKont", "FJMachine", "FJObjectVal",
        "HALT", "run_fj")},
    **{name: "repro.fj.kcfa" for name in (
        "AKont", "AObj", "FJBEnv", "FJConfig", "FJKCFAMachine",
        "FJResult", "HALT_PTR", "analyze_fj_kcfa")},
    **{name: "repro.fj.poly" for name in (
        "FJFlatMachine", "FJPolyMachine", "PConfig", "PKont", "PObj",
        "analyze_fj_poly")},
    "analyze_fj_mcfa": "repro.fj.mcfa",
    "analyze_fj_hybrid": "repro.fj.hybrid",
    "analyze_fj_obj": "repro.fj.hybrid",
    "analyze_fj_kcfa_gc": "repro.fj.gc",
    "TypeReport": "repro.fj.typecheck",
    "typecheck_program": "repro.fj.typecheck",
    "ALL_EXAMPLES": "repro.fj.examples",
}

__all__ = list(_LAZY)

from repro.util.lazymod import lazy_attrs  # noqa: E402

__getattr__, __dir__ = lazy_attrs(__name__, globals(), _LAZY)
