"""Benchmark entry point: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; qmatops is imported from its
``src`` directory, with no install step.  Each measurement runs in a fresh
child process (``worker.py``) with the BLAS/OpenMP thread-count variables
set to 1.  Set-up time is the minimum over the measuring process and
set-up-only processes started before and after it (see SETUP_GROUP_MIN).

The last line of standard output is the result object; the lines before
it print every metric by name with its unit.  ``--trace 1`` reports the
per-layer metrics of BENCHMARK.json instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_PINNING = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# Set-up-only processes run in two groups, before and after the measuring
# one; each group runs at least SETUP_GROUP_MIN of them and goes on until
# SETUP_GROUP_S have passed.  Host contention comes in phases of seconds to
# minutes and slows a set-up by up to 60%; the fastest set-up of two groups
# about --seconds apart is the cost with the least contention, and repeats
# from run to run where a median of 5 did not.  Short set-ups get more
# samples for the same time, which they need: a phase covers more of them.
SETUP_GROUP_MIN = 6
SETUP_GROUP_S = 3.0
# Every run must end within 180 s; the children share this budget.
TOTAL_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, extra: list[str], deadline: float) -> dict:
    """Start worker.py once, wait for it, and return its JSON line."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    if args.corrupt:
        command.append("--corrupt")
    proc = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_group(args, deadline: float) -> list[float]:
    """Set-up times of one group of set-up-only processes."""
    times, end = [], time.monotonic() + SETUP_GROUP_S
    while len(times) < SETUP_GROUP_MIN or time.monotonic() < end:
        times.append(run_child(args, ["--setup-only"], deadline)["setup_s"])
    return times


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: perturb one output amplitude per run; failed must rise",
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "qmatops" / "__init__.py").is_file():
        print(f"no qmatops sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    try:
        setups = [] if args.trace else setup_group(args, deadline)
        raw = run_child(args, [], deadline)
        setups.append(raw["setup_s"])
        if not args.trace:
            setups += setup_group(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    if args.trace:
        values, wanted = raw["per_layer"], spec["per_layer"]
    else:
        values, wanted = dict(raw, setup_s=min(setups)), spec["end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    attempted, failed = raw["attempted"], raw["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:32s} {value:.6g} {unit}")
    print(f"{args.workload:12s} {'failed_frac':32s} {failed / attempted:.6g} ({failed}/{attempted})")
    for failure in raw["failures"]:
        print(f"  failure: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
