"""Checks of the benchmark itself (not collected by pytest).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

1. the same seed gives the same op sequence and a different seed a
   different one, for every workload;
2. a run prints exactly the metrics ``BENCHMARK.json`` declares:
   ``end_to_end`` without tracing, ``per_layer`` with it;
3. two traced runs with the same seed give the same deterministic
   counts -- ops, steps, configurations, codegen hits and misses,
   resumed edits, report bytes -- on every workload;
4. a corrupted reference (one golden report changed by a byte) makes
   ``run.py`` exit non-zero with ``"correct": false``;
5. in a directory holding only ``BENCHMARK.json`` and ``perfbench``,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when every check passes.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import programs  # noqa: E402

#: Per-layer metrics that count work rather than time it.
DETERMINISTIC = ("fixpoint.steps", "fixpoint.configs", "codegen.hits",
                 "codegen.misses", "codegen.rejected",
                 "programs.hit_ratio", "report.bytes",
                 "incremental.resumed_ratio",
                 "incremental.steps_per_edit", "result_cache.hit_ratio")

WORKLOADS = tuple(programs.SEQUENCES)
SCRATCH = ROOT / ".perfbench-tmp" / "selftest"


def run_bench(workload: str, seed: int, trace: int,
              cwd: Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return completed.returncode, completed.stdout.splitlines()


def check_sequences() -> list[str]:
    problems = []
    for workload, build in programs.SEQUENCES.items():
        first = programs.sequence_digest(build(7, 60))
        again = programs.sequence_digest(build(7, 60))
        other = programs.sequence_digest(build(8, 60))
        if first != again:
            problems.append(f"{workload}: seed 7 gave two sequences")
        if first == other:
            problems.append(f"{workload}: seeds 7 and 8 gave one "
                            f"sequence")
    return problems


def declared(kind: str) -> set[str]:
    """Metric names of one kind in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def check_metric_names() -> list[str]:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_bench("service-mixed", 7, trace)
        printed = set(json.loads(lines[-1])["metrics"]) if lines else set()
        if code != 0 or printed != declared(kind):
            problems.append(f"--trace {trace}: exit {code}, metrics "
                            f"differ from {kind}: "
                            f"{sorted(printed ^ declared(kind))}")
    return problems


def check_counters() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        outcomes = []
        for _ in range(2):
            code, lines = run_bench(workload, 7, 1)
            if code != 0:
                problems.append(f"{workload}: traced run exited {code}")
                break
            result = json.loads(lines[-1])
            counts = {name: result["metrics"][name]["value"]
                      for name in DETERMINISTIC}
            outcomes.append((lines[0], result["attempted"], counts))
        if len(outcomes) == 2 and outcomes[0] != outcomes[1]:
            problems.append(f"{workload}: counters differ between two "
                            f"runs: {outcomes[0]} vs {outcomes[1]}")
    return problems


def _copy(names, into: Path) -> None:
    shutil.rmtree(into, ignore_errors=True)
    into.mkdir(parents=True)
    for name in names:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.
                            ignore_patterns("__pycache__"))
        else:
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def check_corrupted_reference() -> list[str]:
    copy = SCRATCH / "corrupt"
    _copy(["src", "tests/goldens", "perfbench", "BENCHMARK.json"], copy)
    golden = copy / "tests" / "goldens" / "eta.mcfa.1.interned.txt"
    text = golden.read_text(encoding="utf-8")
    golden.write_text(text.replace("m-CFA(1)", "m-CFA(2)", 1),
                      encoding="utf-8")
    code, lines = run_bench("cold-jobs", 7, 0, cwd=copy)
    shutil.rmtree(copy, ignore_errors=True)
    result = json.loads(lines[-1]) if lines else {}
    if code == 0 or result.get("correct") is not False:
        return [f"corrupted golden: exit {code}, result {result}"]
    return []


def check_bare_directory() -> list[str]:
    copy = SCRATCH / "bare"
    _copy(["perfbench", "BENCHMARK.json"], copy)
    code, lines = run_bench("cold-jobs", 7, 0, cwd=copy)
    shutil.rmtree(copy, ignore_errors=True)
    printed_result = bool(lines) and lines[-1].startswith("{")
    if code == 0 or printed_result:
        return [f"bare directory: exit {code}, printed {lines[-1:]}"]
    return []


def main() -> int:
    checks = (("sequences", check_sequences),
              ("metric names", check_metric_names),
              ("deterministic counters", check_counters),
              ("corrupted reference", check_corrupted_reference),
              ("bare directory", check_bare_directory))
    failed = False
    try:
        for name, check in checks:
            problems = check()
            print(f"{'FAIL' if problems else 'ok  '} {name}")
            for problem in problems:
                print(f"     {problem}")
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
