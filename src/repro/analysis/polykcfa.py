"""Naive polynomial k-CFA: flat environments + last-k-call-sites (§6).

This is what one obtains by instantiating the Jagannathan–Weeks
framework with Shivers's contour-allocation strategy: polynomial, but
weakly context-sensitive in practice.  Any call a procedure makes —
including the continuation calls that sequence its body — rotates the
k-window of context, so bindings from distinct invocations merge k
calls into the procedure.  The paper's ``identity``/``do-something``
example (§6) and our §6.2 table reproduce the degeneration to 0CFA.
"""

from __future__ import annotations

from repro.cps.program import Program
from repro.analysis.registry import run_analysis
from repro.analysis.results import AnalysisResult
from repro.util.budget import Budget


def analyze_poly_kcfa(program: Program, k: int = 1,
                      budget: Budget | None = None,
                      plain: bool = False,
                      specialized: bool = True) -> AnalysisResult:
    """Run naive polynomial k-CFA to fixpoint."""
    return run_analysis("poly", program, k, budget, plain,
                        specialize=specialized)
