"""The repository benchmark: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh Python process (``workloads.py``) with a
hermetic environment: the checkout's ``src`` on ``PYTHONPATH``, a
pinned ``PYTHONHASHSEED`` (engine step counts depend on set order) and
``XDG_CACHE_HOME`` plus every cache directory under a temp dir inside
the checkout, removed when the workload ends.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
second, traced pass over the same ops.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only if every op's output passed
its check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-jobs", "warm-ladder", "service-mixed")

#: A workload process that has not finished by then is killed and the
#: run fails.
WORKLOAD_TIMEOUT = 170.0


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict | None:
    """Run one workload process; its stdout passes through, and its
    last line -- the JSON result -- is returned (None on failure)."""
    tmp = ROOT / ".perfbench-tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0", XDG_CACHE_HOME=str(tmp / "xdg"))
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--tmp", str(tmp)]
    # Its own process group, so a timeout also stops the server the
    # workload process may have started.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKLOAD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"{workload}: no result within {WORKLOAD_TIMEOUT:.0f} s",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if process.returncode not in (0, 1) or not isinstance(result, dict):
        print(f"{workload}: workload process failed "
              f"(exit {process.returncode})", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(result["correct"]
                           for result in results.values()),
            "attempted": sum(result["attempted"]
                             for result in results.values()),
            "failed": sum(result["failed"]
                          for result in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, result in results.items()
                        for metric, value in result["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
