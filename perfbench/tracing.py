"""Spans at the layer boundaries of an in-process job, recorded from
outside the program.

:class:`Tracer` replaces each boundary function with a wrapper that
records a span -- (name, start, end, parent, op id) -- around the
original call, at the module attribute the caller looks the name up
through, so the program itself is unchanged.  Spans are kept in a list
and written out once the run ends.

The boundaries (see README.md for the layer map):

====================  ==================================================
span                  wrapped name
====================  ==================================================
``frontend``          ``repro.scheme.cps_transform.compile_program``,
                      ``repro.fj.parse_fj``
``analysis``          ``repro.service.jobs.run_analysis`` (staging plus
                      the fixpoint, whose time the result reports)
``codegen.module``    ``repro.cache.CodegenCache.module_for``
``codegen.generate``  ``repro.analysis.codegen.generate_source``
``report``            ``repro.service.jobs.render_reports``,
                      ``repro.service.jobs.render_fj_reports``
====================  ==================================================

The benchmark adds the root ``job`` span around each ``run_job`` call
itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

#: (span name, module, owner attribute or None, function name).
BOUNDARIES = (
    ("frontend", "repro.scheme.cps_transform", None, "compile_program"),
    ("frontend", "repro.fj", None, "parse_fj"),
    ("analysis", "repro.service.jobs", None, "run_analysis"),
    ("codegen.module", "repro.cache", "CodegenCache", "module_for"),
    ("codegen.generate", "repro.analysis.codegen", None,
     "generate_source"),
    ("report", "repro.service.jobs", None, "render_reports"),
    ("report", "repro.service.jobs", None, "render_fj_reports"),
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end,
    parent index or -1, op id]`` lists, times from ``perf_counter``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._restore.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for name, module, owner, attribute in BOUNDARIES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self._wrap(target, attribute, name)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write(self, path, ops: list) -> None:
        """Spans plus the per-op records they belong to, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "op"],
                       "spans": self.spans, "ops": ops}, handle)


def layer_totals(spans: list[list], factors: list[float]) -> dict:
    """Seconds per boundary, summed over every op, each span scaled by
    its op's entry in *factors* (the benchmark's reference-speed
    factor).

    ``codegen.load`` is the time of ``module_for`` calls that did not
    generate: a disk or memory hit (read, ``compile``, ``exec``).
    """
    totals = {"job": 0.0, "frontend": 0.0, "analysis": 0.0,
              "report": 0.0, "codegen.generate": 0.0,
              "codegen.load": 0.0}
    generated = {span[3] for span in spans
                 if span[0] == "codegen.generate"}
    for index, (name, start, end, _parent, op) in enumerate(spans):
        seconds = (end - start) * factors[op]
        if name == "codegen.module":
            if index not in generated:
                totals["codegen.load"] += seconds
        else:
            totals[name] += seconds
    return totals
