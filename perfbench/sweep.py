"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py                      # every workload, seeds 1-10
    python3 perfbench/sweep.py --workloads wide --seeds 5 --seconds 10
    python3 perfbench/sweep.py --trace --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (distance
between the quartiles over the median) and the metric's bound from
BENCHMARK.json, plus failed_frac.  Each metric, set-up time included, is
``steady`` below a third of its bound, ``noisy`` below the bound and
``UNRESOLVED`` at or above it; the sweep exits 0 only when every metric is
steady.  ``--trace`` adds one traced run per
workload and prints its per-layer table.  ``--out`` writes all of it, with a
record of the machine, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import cases  # noqa: E402
from run import THREAD_PINNING  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return sizes


def environment() -> dict:
    working_sets = {}
    for workload in WORKLOADS:
        qubits = max(cases.state_qubits(*item) for item in cases.items(workload))
        working_sets[workload] = {"max_state_qubits": qubits, "max_state_bytes": 16 << qubits}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "caches_per_core": cache_sizes(),
        "thread_pinning": dict(THREAD_PINNING, cpu_affinity="none set"),
        "state_bytes": working_sets,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    summary = {"environment": environment(), "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            shown = ", ".join(f"{k} {v['value']:.5g} {v['unit']}" for k, v in result["metrics"].items())
            failed_frac = result["failed"] / result["attempted"]
            print(f"{workload} seed={seed}: {shown}, failed_frac {failed_frac:.3g}", flush=True)
        entry = {
            "runs": len(results),
            "failed_frac": [r["failed"] / r["attempted"] for r in results],
            "metrics": {},
        }
        for name, spec in bounds.items():
            if len(results) < 2:
                continue  # quartiles need two runs or more
            values = [r["metrics"][name]["value"] for r in results]
            stats = entry["metrics"][name] = dict(spread(values), unit=spec["unit"], bound=spec["bound"])
            # steady: below a third of the bound; unresolved: at or above the
            # bound, so a change of the bound's size cannot be told from noise
            if stats["spread"] < spec["bound"] / 3:
                verdict = "steady"
            elif stats["spread"] < spec["bound"]:
                verdict = "noisy"
            else:
                verdict = "UNRESOLVED"
            stats["verdict"] = verdict
            steady = steady and verdict == "steady"
            print(
                f"  {workload:12s} {name:12s} median {stats['median']:.6g} {spec['unit']}"
                f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                f"  spread {stats['spread']:.3f} (bound {spec['bound']}) {verdict}"
            )
        print(f"  {workload:12s} failed_frac  max {max(entry['failed_frac']):.6g}")
        if args.trace:
            traced = run_once(workload, 1, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, metric in traced["metrics"].items():
                print(f"  {workload:12s} {name:32s} {metric['value']:.6g} {metric['unit']}")
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.seeds > 1:
        print("every end-to-end spread is below a third of its bound" if steady
              else "some spreads are a third of their bound or more (noisy) or above it (UNRESOLVED)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
