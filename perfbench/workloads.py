"""One benchmark workload, run in a process of its own.

``run.py`` starts this script once per workload with a hermetic
environment (``PYTHONPATH`` on the checkout's ``src``, a pinned
``PYTHONHASHSEED`` and ``XDG_CACHE_HOME`` under the run's temp dir),
so no run reads ``~/.cache`` or inherits an earlier run's modules.

A run goes through these steps:

1. Set-ups, each from fresh directories and caches: ``LIFECYCLES`` of
   them without tracing (``setup_s`` is their median), one with it.
   All but the last are torn down straight away.
2. The timed loop on the last set-up: the seeded op sequence from
   ``programs.py``, one closed-loop caller, each op timed alone and
   scaled to the reference speed (:class:`SpeedProbe`).  An op keeps
   only its latency, an output digest and a few counters, never its
   result.
3. With ``--trace 1``, a fresh set-up and the same op sequence again
   with spans recorded at the layer boundaries (``tracing.py``).
4. The output check, which counts in no metric: each op's output
   digest against its reference.

The last line on stdout is the JSON result ``run.py`` passes on.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import programs
from tracing import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
TRACE_DIR = ROOT / ".perfbench-out"

#: Set-up samples per untraced run.
LIFECYCLES = 3

#: Ops per second of ``--seconds``: at these rates the timed loop
#: lasts about ``--seconds`` on the 2-core x86-64 box the benchmark
#: was calibrated on.  The count is fixed before the loop starts; the
#: loop never watches the clock.
OPS_PER_SECOND = {"cold-jobs": 9.0, "warm-ladder": 7.0,
                  "service-mixed": 80.0}

#: Cells with no codegen tier: they run in cold-jobs, but the
#: repeat/fresh medians leave them out (a 5 ms job is not in the same
#: cost class as a 100 ms one).
NO_CODEGEN = ("fj-kcfa", "fj-obj")

#: How long the server may take to write its ready file.
SERVER_START_TIMEOUT = 60.0


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_digest(answer) -> str:
    return text_digest(json.dumps(answer, sort_keys=True))


def quantile(values, fraction: float) -> float:
    """Linear-interpolated quantile of *values* (0 for none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _kernel() -> int:
    """Fixed pure-Python work -- tuples, a dict and a set, as in the
    analyses -- that touches no code of the program under test."""
    table: dict = {}
    seen: set = set()
    total = 0
    for i in range(4000):
        key = (i % 97, i % 13)
        seen.add(key)
        table[key] = table.get(key, 0) + 1
        total += len(seen) & 7
    return total


class SpeedProbe:
    """The box's current speed, from timing :func:`_kernel`.

    The calibration box runs Python at two speeds, switching every few
    seconds to minutes: the same loop takes 14 ms or 25 ms, and every
    wall time with it.  Each time the benchmark reports is therefore
    scaled by ``REFERENCE_SECONDS / kernel time now``: wall time at
    the reference speed.  The probe runs between ops, never inside
    one, at most every ``EVERY`` seconds.
    """

    #: Best-of-3 kernel time at the reference (fast) speed.
    REFERENCE_SECONDS = 0.0012
    EVERY = 0.25

    def __init__(self):
        self.factor = 1.0
        self._due = 0.0

    def measure(self) -> float:
        best = float("inf")
        for _ in range(3):
            begin = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - begin)
        self.factor = self.REFERENCE_SECONDS / best
        self._due = time.perf_counter() + self.EVERY
        return self.factor

    def current(self) -> float:
        """The factor of the latest probe, refreshed when due."""
        if time.perf_counter() >= self._due:
            self.measure()
        return self.factor


class Stopwatch:
    """Wall time at the reference speed, summed over laps: each lap
    is scaled by the mean of the probes on either side of it (probe
    time excluded)."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.seconds = 0.0
        self._factor = probe.measure()
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """End a lap; garbage is collected before the next one starts,
        as before each op of a loop."""
        elapsed = time.perf_counter() - self._mark
        after = self.probe.current()
        self.seconds += elapsed * (self._factor + after) / 2
        gc.collect()
        self._factor = self.probe.current()
        self._mark = time.perf_counter()


@dataclasses.dataclass(slots=True)
class Record:
    """What the benchmark keeps of one op after it returns."""

    cls: str
    seconds: float
    ok: bool
    digest: str | None
    #: Reference-speed factor the op's wall times are scaled by.
    factor: float = 1.0
    #: Engine numbers from the result summary (0 when none).
    elapsed: float = 0.0
    steps: int = 0
    configs: int = 0
    out_bytes: int = 0
    #: Service only: the done event's worker time and flags.
    wall_seconds: float = 0.0
    cached: bool = False
    mode: str = ""
    kept_ratio: float = 0.0
    edit_steps: int = 0


class Workload:
    """Set-up, timed loop and teardown shared by every workload."""

    name = ""
    #: Collect garbage before each op, outside its timing, so a full
    #: collection that earlier ops' garbage set off cannot land inside
    #: a later op.  Only matters where the ops run in this process.
    collect_between_ops = False

    def __init__(self, seed: int, count: int, tmp: Path):
        self.ops = programs.SEQUENCES[self.name](seed, count)
        self.tmp = tmp
        #: Cache counters over the last timed loop.
        self.counters: dict = {}

    def abort(self, state) -> None:
        """Release a set-up whose run failed."""
        self.teardown(state)

    def loop(self, state, probe: SpeedProbe,
             tracer: Tracer | None = None):
        """Run every op once; returns (records, loop seconds).

        A record's ``seconds`` is scaled to the reference speed; the
        loop seconds are the sum of those.
        """
        records = []
        gc.collect()
        if self.collect_between_ops:
            gc.freeze()  # set-up's objects: out of every collection
        try:
            for index, op in enumerate(self.ops):
                if self.collect_between_ops:
                    gc.collect()
                before = probe.current()
                span = nullcontext()
                if tracer is not None:
                    tracer.op = index
                    span = tracer.span(self.op_span)
                begin = time.perf_counter()
                with span:
                    output = self.call(state, op)
                seconds = time.perf_counter() - begin
                # An op longer than the probe interval is scaled by the
                # mean of the probes on either side of it.
                factor = (before + probe.current()) / 2
                record = self.record(op, output, seconds * factor)
                record.factor = factor
                records.append(record)
                del output
        finally:
            gc.unfreeze()
        return records, sum(record.seconds for record in records)


# -- in-process workloads ----------------------------------------------

class JobsWorkload(Workload):
    """An in-process workload: each op is one ``run_job`` call."""

    op_span = "job"
    collect_between_ops = True

    def call(self, state, op):
        from repro.service.jobs import JobSpec, run_job
        return run_job(JobSpec(source=op.source, analysis=op.analysis,
                               context=op.context),
                       programs=state.get("programs"))

    def record(self, op, row: dict, seconds: float) -> Record:
        ok = row.get("status") == "ok"
        stdout = row.get("stdout", "")
        summary = row.get("summary") or {}
        return Record(op.cls, seconds, ok,
                      text_digest(stdout) if ok else None,
                      elapsed=summary.get("elapsed", 0.0),
                      steps=summary.get("steps", 0),
                      configs=summary.get("configs", 0),
                      out_bytes=len(stdout.encode("utf-8")))

    def references(self) -> list[str | None]:
        """Expected digest per op: the golden file where the cell is
        pinned there, otherwise the generic-engine oracle."""
        from repro.service.jobs import JobSpec
        oracle = Oracle()
        return [oracle.pinned_or_generic(op.program, JobSpec(
                    source=op.source, analysis=op.analysis,
                    context=op.context))
                for op in self.ops]


class ColdJobs(JobsWorkload):
    """A new ``analyze`` process per job, in effect: no program cache,
    and a fresh ``CodegenCache`` over the run's codegen directory
    before every job, so only the disk carries state between jobs."""

    name = "cold-jobs"

    def setup(self, index: int, lap):
        """Stage every repeat program's generated modules on disk."""
        from repro.analysis.codegen import set_default_codegen_cache
        from repro.cache import CodegenCache
        from repro.service.jobs import JobSpec, run_job
        directory = self.tmp / f"codegen-{index}"
        directory.mkdir(parents=True)
        for program, analysis, context in programs.cold_setup_cells():
            set_default_codegen_cache(CodegenCache(directory))
            _expect_ok(run_job(JobSpec(
                source=programs.base_source(program),
                analysis=analysis, context=context)))
            lap()
        return {"dir": directory}

    def loop(self, state, probe, tracer=None):
        self.counters = {"hits": 0, "misses": 0, "rejected": 0}
        return super().loop(state, probe, tracer)

    def call(self, state, op):
        from repro.analysis.codegen import set_default_codegen_cache
        from repro.cache import CodegenCache
        self._cache = CodegenCache(state["dir"])
        set_default_codegen_cache(self._cache)
        return super().call(state, op)

    def record(self, op, row: dict, seconds: float) -> Record:
        for field in ("hits", "misses", "rejected"):
            self.counters[field] += getattr(self._cache.stats, field)
        self._cache = None
        return super().record(op, row, seconds)

    def teardown(self, state) -> None:
        from repro.analysis.codegen import set_default_codegen_cache
        set_default_codegen_cache(None)
        shutil.rmtree(state["dir"])
        state.clear()
        gc.collect()


class WarmLadder(JobsWorkload):
    """A long-lived worker's view: one ``ProgramCache`` and one
    in-memory ``CodegenCache``, both warmed by running every cell once
    in set-up, so the timed jobs are almost all fixpoint."""

    name = "warm-ladder"

    def setup(self, index: int, lap):
        from repro.analysis.codegen import set_default_codegen_cache
        from repro.cache import CodegenCache, ProgramCache
        from repro.service.jobs import JobSpec, run_job
        codegen = CodegenCache()
        set_default_codegen_cache(codegen)
        cache = ProgramCache()
        for program, analysis, context in programs.ladder_cells():
            _expect_ok(run_job(JobSpec(
                source=programs.base_source(program), analysis=analysis,
                context=context), programs=cache))
            lap()
        return {"programs": cache, "codegen": codegen}

    def loop(self, state, probe, tracer=None):
        before = self._snapshot(state)
        result = super().loop(state, probe, tracer)
        after = self._snapshot(state)
        self.counters = {key: after[key] - before[key] for key in after}
        return result

    @staticmethod
    def _snapshot(state) -> dict:
        program_cache, codegen = state["programs"], state["codegen"]
        return {"program_hits": program_cache.hits,
                "program_misses": program_cache.misses,
                "hits": codegen.stats.hits,
                "misses": codegen.stats.misses,
                "rejected": codegen.stats.rejected}

    def teardown(self, state) -> None:
        from repro.analysis.codegen import set_default_codegen_cache
        set_default_codegen_cache(None)
        state.clear()
        gc.collect()


class Oracle:
    """Reference outputs, memoized per run by (source, job options)."""

    def __init__(self):
        self._memo: dict = {}

    def stdout(self, spec) -> str | None:
        from repro.service.jobs import run_job
        key = (text_digest(spec.source), spec.analysis, spec.context,
               spec.specialize, spec.query_kind, spec.query_target)
        if key not in self._memo:
            row = run_job(spec)
            self._memo[key] = None if row["status"] != "ok" else (
                answer_digest(row["answer"]) if spec.query_kind
                else text_digest(row["stdout"]))
        return self._memo[key]

    def session_answer(self, op) -> str:
        """A point query answered by a session opened from scratch."""
        from repro.analysis.incremental import AnalysisSession
        from repro.scheme.cps_transform import compile_program
        key = ("session", text_digest(op.source), op.analysis,
               op.context, op.kind, op.target)
        if key not in self._memo:
            session = AnalysisSession(compile_program(op.source),
                                      op.analysis, op.context)
            self._memo[key] = answer_digest(
                session.query(op.kind, op.target))
        return self._memo[key]

    def pinned_or_generic(self, program: str, spec) -> str | None:
        """The golden where the cell is pinned, otherwise the same job
        on the generic engine (``specialize=False``)."""
        golden = golden_path(program, spec.analysis, spec.context)
        if golden is not None:
            return text_digest(golden.read_text(encoding="utf-8"))
        return self.stdout(dataclasses.replace(spec, specialize=False))


def golden_path(program: str, analysis: str, context: int) -> Path | None:
    """The pinned report of a cell in ``tests/goldens``, if any.

    0CFA's report does not depend on the context depth, and its
    goldens are pinned at depth 1, so zero(0) reads those.
    """
    depth = 1 if analysis == "zero" else context
    path = GOLDENS / f"{program}.{analysis}.{depth}.interned.txt"
    return path if path.is_file() else None


# -- service-mixed -----------------------------------------------------

class ServiceMixed(Workload):
    """One client against ``python -m repro serve`` with one worker."""

    name = "service-mixed"
    op_span = "request"

    def __init__(self, seed: int, count: int, tmp: Path):
        super().__init__(seed, count, tmp)
        self.spawn_seconds: list[float] = []
        self.busy = 0
        self.worker_rss_mb = 0.0

    def setup(self, index: int, lap):
        from repro.service.client import ServiceClient
        directory = self.tmp / f"service-{index}"
        directory.mkdir(parents=True)
        ready = directory / "ready"
        log = open(directory / "server.log", "w", encoding="utf-8")
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(directory / "cache"),
             "--ready-file", str(ready)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        state = {"process": process, "log": log, "client": None,
                 "sessions": {}}
        try:
            endpoint = _wait_ready(process, ready)
            self.spawn_seconds.append(time.perf_counter() - started)
            lap()
            client = ServiceClient.connect(endpoint)
            state["client"] = client
            # Warm what a long-running server has warm: the plain
            # submits are in the result cache, each session program is
            # compiled in the worker.
            for name, analysis, context in programs.PLAIN_SUBMITS:
                _expect_ok(client.submit(
                    source=programs.base_source(name),
                    analysis=analysis, context=context))
                lap()
            for name in programs.SESSION_PROGRAMS:
                _expect_ok(client.submit(
                    source=programs.base_source(name), analysis="mcfa",
                    context=1, session=True))
                lap()
        except BaseException:
            self.abort(state)
            raise
        return state

    def _on_event(self, event: dict) -> None:
        if event.get("event") == "busy":
            self.busy += 1

    def call(self, state, op):
        client = state["client"]
        if op.cls == "open":
            event = client.submit(source=op.source, analysis=op.analysis,
                                  context=op.context, session=True,
                                  on_event=self._on_event)
            state["sessions"][op.round] = event.get("session")
            return event
        if op.cls == "edit":
            return client.edit(state["sessions"][op.round],
                               source=op.source, on_event=self._on_event)
        if op.cls == "query":
            return client.query(state["sessions"][op.round], op.kind,
                                op.target, on_event=self._on_event)
        return client.submit(source=op.source, analysis=op.analysis,
                             context=op.context, on_event=self._on_event)

    def loop(self, state, probe, tracer=None):
        client = state["client"]
        before = _worker_stats(client.stats())
        state["sessions"].clear()
        self.busy = 0
        result = super().loop(state, probe, tracer)
        stats = client.stats()
        after = _worker_stats(stats)
        self.counters = {key: after[key] - before[key] for key in after}
        self.worker_rss_mb = vm_hwm_mb(stats["fleet"][0]["pid"])
        return result

    def record(self, op, event: dict, seconds: float) -> Record:
        ok = event.get("event") == "done" and event.get("status") == "ok"
        digest = None
        if ok:
            digest = answer_digest(event["answer"]) \
                if op.cls == "query" else text_digest(event["stdout"])
        summary = event.get("summary") or {}
        cached = bool(event.get("cached"))
        return Record(op.cls, seconds, ok, digest,
                      elapsed=0.0 if cached else summary.get("elapsed",
                                                             0.0),
                      steps=0 if cached else summary.get("steps", 0),
                      configs=0 if cached else summary.get("configs", 0),
                      wall_seconds=event.get("wall_seconds") or 0.0,
                      cached=cached, mode=event.get("mode", ""),
                      kept_ratio=event.get("kept_ratio") or 0.0,
                      edit_steps=event.get("steps") or 0)

    def teardown(self, state) -> None:
        """``shutdown`` op until the server process has exited."""
        client = state["client"]
        client.shutdown()
        client.close()
        state["process"].wait(timeout=60)
        state["log"].close()
        if state["process"].returncode != 0:
            raise RuntimeError(f"server exited with "
                               f"{state['process'].returncode}")

    def abort(self, state) -> None:
        """Stop a server that did not shut down cleanly."""
        if state.get("client") is not None:
            state["client"].close()
        process = state["process"]
        if process.poll() is None:
            process.send_signal(signal.SIGINT)  # serve stops its fleet
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        state["log"].close()

    def references(self) -> list[str | None]:
        """Expected digest per op.  Opens and plain submits: the golden
        where pinned, otherwise the generic-engine oracle.  Edits: a
        from-scratch ``run_job`` of the edited source.  Queries: the
        batch ``run_job(query_kind=...)`` answer; ``call-sites-of`` has
        no batch form, so a session opened from scratch on the edited
        source answers it."""
        from repro.service.jobs import JobSpec
        oracle = Oracle()
        expected = []
        for op in self.ops:
            spec = JobSpec(source=op.source, analysis=op.analysis,
                           context=op.context, specialize=False)
            if op.cls in ("open", "submit"):
                expected.append(oracle.pinned_or_generic(op.program, spec))
            elif op.cls == "edit":
                expected.append(oracle.stdout(spec))
            elif op.kind == "call-sites-of":
                expected.append(oracle.session_answer(op))
            else:
                expected.append(oracle.stdout(dataclasses.replace(
                    spec, query_kind=op.kind, query_target=op.target)))

        return expected


def _wait_ready(process, ready: Path) -> str:
    deadline = time.monotonic() + SERVER_START_TIMEOUT
    while time.monotonic() < deadline:
        if ready.is_file():
            text = ready.read_text(encoding="utf-8")
            if text.endswith("\n"):
                return text.strip()
        if process.poll() is not None:
            raise RuntimeError(f"server exited with {process.returncode}"
                               f" before it was ready")
        time.sleep(0.005)
    raise RuntimeError("server did not become ready")


def _expect_ok(row: dict) -> None:
    """A set-up job or request must succeed (a ``run_job`` row or a
    ``done`` event)."""
    if row.get("status") != "ok":
        raise RuntimeError(f"set-up job failed: {row.get('error', row)}")


def _worker_stats(stats: dict) -> dict:
    """The one worker's cumulative counters, flattened."""
    worker = stats["fleet"][0]
    codegen, program_cache = worker["codegen"], worker["programs"]
    return {"hits": codegen.get("hits", 0),
            "misses": codegen.get("misses", 0),
            "rejected": codegen.get("rejected", 0),
            "program_hits": program_cache.get("hits", 0),
            "program_misses": program_cache.get("misses", 0)}


WORKLOADS = {"cold-jobs": ColdJobs, "warm-ladder": WarmLadder,
             "service-mixed": ServiceMixed}


# -- one run -----------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "repeat_p50_ms": "ms", "fresh_p50_ms": "ms", "open_p50_ms": "ms",
    "edit_p50_ms": "ms", "query_p50_ms": "ms",
    "frontend.self_ms": "ms", "frontend.share": "ratio",
    "programs.hit_ratio": "ratio",
    "staging.self_ms": "ms", "staging.share": "ratio",
    "codegen.generate_ms": "ms", "codegen.load_ms": "ms",
    "codegen.hits": "count", "codegen.misses": "count",
    "codegen.rejected": "count", "codegen.hit_ratio": "ratio",
    "fixpoint.self_ms": "ms", "fixpoint.share": "ratio",
    "fixpoint.steps": "count", "fixpoint.configs": "count",
    "fixpoint.steps_per_s": "1/s",
    "report.self_ms": "ms", "report.share": "ratio",
    "report.bytes": "bytes",
    "other.self_ms": "ms", "other.share": "ratio",
    "clients.query_ms": "ms", "incremental.edit_ms": "ms",
    "incremental.resumed_ratio": "ratio",
    "incremental.steps_per_edit": "count",
    "incremental.kept_ratio": "ratio",
    "result_cache.hit_ratio": "ratio", "result_cache.hit_ms": "ms",
    "service.overhead_ms": "ms", "service.busy_retries": "count",
    "fleet.spawn_s": "s", "fleet.stop_s": "s",
    "worker.peak_rss_mb": "MB",
    "trace.ops_per_s": "1/s", "trace.overhead": "ratio",
}


class Lifecycles:
    """Timed set-ups and teardowns of one workload."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.setups: list[float] = []
        self.teardowns: list[float] = []

    @contextmanager
    def __call__(self):
        """Set-up timed at the reference speed (``setup`` laps the
        stopwatch between its steps); teardown in plain wall time, as
        the fleet stop it measures is mostly a fixed join timeout."""
        watch = Stopwatch(self.probe)
        state = self.workload.setup(len(self.setups), watch.lap)
        watch.lap()
        self.setups.append(watch.seconds)
        try:
            yield state
            begin = time.perf_counter()
            self.workload.teardown(state)
            self.teardowns.append(time.perf_counter() - begin)
        except BaseException:
            self.workload.abort(state)
            raise


def class_p50_ms(records, ops, cls: str) -> float:
    return 1000 * median([record.seconds
                          for record, op in zip(records, ops)
                          if record.cls == cls
                          and op.analysis not in NO_CODEGEN])


def end_to_end(records, loop_seconds: float, lifecycles: Lifecycles,
               peak_mb: float, passed: list[bool]) -> dict:
    latencies = [1000 * record.seconds for record in records]
    return {
        "setup_s": median(lifecycles.setups),
        "ops_per_s": len(records) / loop_seconds,
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
        "ok_ratio": sum(passed) / len(passed),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload, records, spans, untraced, untraced_ops_per_s,
              traced_ops_per_s, lifecycles: Lifecycles) -> dict:
    """The traced loop's layer split, plus the class medians of the
    untraced loop *untraced*."""
    ops = workload.ops
    counters = workload.counters
    job = sum(record.seconds for record in records)
    fixpoint = sum(record.elapsed * record.factor for record in records)
    if spans is not None:
        totals = layer_totals(spans, [record.factor for record in records])
        frontend, report = totals["frontend"], totals["report"]
        staging = totals["analysis"] - fixpoint
        other = totals["job"] - frontend - totals["analysis"] - report
        job = totals["job"]
        generate, load = totals["codegen.generate"], totals["codegen.load"]
    else:  # the service: frontend and staging run inside the worker
        frontend = staging = report = generate = load = 0.0
        other = job - fixpoint
    steps = sum(record.steps for record in records)
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    program_hits = counters.get("program_hits", 0)
    program_misses = counters.get("program_misses", 0)
    by_class: dict[str, list] = {}
    for record in records:
        by_class.setdefault(record.cls, []).append(record)
    edits = by_class.get("edit", [])
    submits = by_class.get("submit", [])
    cached = [record for record in submits if record.cached]
    service = [record for record in records
               if record.wall_seconds and not record.cached]

    def worker_ms(group) -> float:
        """Median done-event ``wall_seconds``, at the reference speed."""
        return 1000 * median([record.wall_seconds * record.factor
                              for record in group])
    metrics = {
        "repeat_p50_ms": class_p50_ms(untraced, ops, "repeat"),
        "fresh_p50_ms": class_p50_ms(untraced, ops, "fresh"),
        "open_p50_ms": class_p50_ms(untraced, ops, "open"),
        "edit_p50_ms": class_p50_ms(untraced, ops, "edit"),
        "query_p50_ms": class_p50_ms(untraced, ops, "query"),
        "frontend.self_ms": 1000 * frontend,
        "frontend.share": ratio(frontend, job),
        "programs.hit_ratio": ratio(program_hits,
                                    program_hits + program_misses),
        "staging.self_ms": 1000 * staging,
        "staging.share": ratio(staging, job),
        "codegen.generate_ms": 1000 * generate,
        "codegen.load_ms": 1000 * load,
        "codegen.hits": hits,
        "codegen.misses": misses,
        "codegen.rejected": counters.get("rejected", 0),
        "codegen.hit_ratio": ratio(hits, hits + misses),
        "fixpoint.self_ms": 1000 * fixpoint,
        "fixpoint.share": ratio(fixpoint, job),
        "fixpoint.steps": steps,
        "fixpoint.configs": sum(record.configs for record in records),
        "fixpoint.steps_per_s": ratio(steps, fixpoint),
        "report.self_ms": 1000 * report,
        "report.share": ratio(report, job),
        "report.bytes": sum(record.out_bytes for record in records),
        "other.self_ms": 1000 * other,
        "other.share": ratio(other, job),
        "clients.query_ms": worker_ms(by_class.get("query", [])),
        "incremental.edit_ms": worker_ms(edits),
        "incremental.resumed_ratio": ratio(
            sum(record.mode == "resumed" for record in edits), len(edits)),
        "incremental.steps_per_edit": ratio(
            sum(record.edit_steps for record in edits), len(edits)),
        "incremental.kept_ratio": ratio(
            sum(record.kept_ratio for record in edits), len(edits)),
        "result_cache.hit_ratio": ratio(len(cached), len(submits)),
        "result_cache.hit_ms": 1000 * median(
            [record.seconds for record in cached]),
        "service.overhead_ms": 1000 * median(
            [record.seconds - record.wall_seconds * record.factor
             for record in service]),
        "service.busy_retries": getattr(workload, "busy", 0),
        "fleet.spawn_s": median(getattr(workload, "spawn_seconds", [])),
        "fleet.stop_s": median(lifecycles.teardowns)
        if isinstance(workload, ServiceMixed) else 0.0,
        "worker.peak_rss_mb": getattr(workload, "worker_rss_mb", 0.0),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.overhead": 1 - traced_ops_per_s / untraced_ops_per_s,
    }
    return metrics


def run(workload, trace: bool, seed: int) -> tuple[dict, list[str]]:
    """Set up, loop, check; returns (result, report lines).

    Without tracing, ``LIFECYCLES`` set-ups give the ``setup_s``
    median.  With it, one untraced pass (the overhead baseline and the
    class medians) and one traced pass suffice.
    """
    probe = SpeedProbe()
    lifecycles = Lifecycles(workload, probe)
    for _ in range((1 if trace else LIFECYCLES) - 1):
        with lifecycles():
            pass
    with lifecycles() as state:
        records, loop_seconds = workload.loop(state, probe)
        peak_mb = workload.worker_rss_mb \
            if isinstance(workload, ServiceMixed) else peak_rss_mb()
    traced = None
    if trace:
        tracer = Tracer()
        with lifecycles() as state:
            if isinstance(workload, JobsWorkload):
                tracer.install()
            try:
                traced, traced_seconds = workload.loop(state, probe,
                                                       tracer)
            finally:
                tracer.uninstall()
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.json",
                     [dataclasses.asdict(record) for record in traced])
    expected = workload.references()
    passed = [record.ok and record.digest == reference
              for run_records in (records, traced or [])
              for record, reference in zip(run_records, expected)]
    failed = passed.count(False)
    if traced is None:
        units = END_TO_END_UNITS
        metrics = end_to_end(records, loop_seconds, lifecycles, peak_mb,
                             passed)
    else:
        units = PER_LAYER_UNITS
        metrics = per_layer(
            workload, traced,
            tracer.spans if isinstance(workload, JobsWorkload) else None,
            records, len(records) / loop_seconds,
            len(traced) / traced_seconds, lifecycles)
    lines = [f"  {name:28} {value:14.6g} {units[name]}"
             for name, value in metrics.items()]
    for index, ok in enumerate(passed):
        op = workload.ops[index % len(workload.ops)]
        if not ok:
            lines.append(f"  failed op {index}: {op.cls} {op.program} "
                         f"{op.analysis}({op.context})")
    result = {"correct": failed == 0, "attempted": len(passed),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and every process it starts: the two
    # CPUs of the calibration box change speed independently, and the
    # speed probe must measure the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    count = max(1, round(args.seconds * OPS_PER_SECOND[args.workload]))
    workload = WORKLOADS[args.workload](args.seed, count, args.tmp)
    print(f"{args.workload}: seed {args.seed}, {len(workload.ops)} ops, "
          f"sequence {programs.sequence_digest(workload.ops)}",
          flush=True)
    result, lines = run(workload, bool(args.trace), args.seed)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
