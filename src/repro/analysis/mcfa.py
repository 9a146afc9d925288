"""m-CFA: the paper's polynomial context-sensitive hierarchy (§5).

m-CFA is the flat-environment abstract machine with the
top-m-stack-frames allocator: entering a *procedure* pushes the call
site onto the (truncated) frame context; entering a *continuation*
restores the frames of the environment the continuation closed over —
the analysis-level image of a function return.

``[m = 0]CFA`` coincides with ``[k = 0]CFA`` (§5.3), which
:func:`repro.analysis.zerocfa.analyze_zerocfa` and the test suite rely
on.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.registry import run_analysis
from repro.analysis.results import AnalysisResult
from repro.util.budget import Budget


def analyze_mcfa(program: Program, m: int = 1,
                 budget: Budget | None = None,
                 plain: bool = False,
                 specialized: bool = True) -> AnalysisResult:
    """Run m-CFA to fixpoint.

    Complexity is polynomial in program size for any fixed m
    (Theorem 5.1): the configuration space is |Call| × |Call|^m and
    the store lattice has height |Var| × |Call|^m × |Lam| × |Call|^m.
    """
    return run_analysis("mcfa", program, m, budget, plain,
                        specialize=specialized)
