"""Check the benchmark itself: metrics, oracle gate, trace bookkeeping.

    python3 perfbench/selftest.py

For every workload, a tiny pass must report every end-to-end metric of
BENCHMARK.json with its unit and no failures; the same pass with one output
amplitude perturbed per run must report failures; a traced pass must report
every per-layer metric, a nonzero figure for every layer the workload calls,
and the layers' self times adding up to the traced wall time within
SELF_SUM_TOL.  Finally the benchmark must refuse to run,
without printing a result, in a directory that holds only BENCHMARK.json and
the benchmark's own files.  Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SELF_SUM_TOL = 0.05

# Per-layer metrics that must be nonzero, so that a layer the trace no longer
# reaches fails here instead of reading 0.  Every workload runs row-add (flip,
# controlled swap, Hadamard) and transpose (register swap).
CALLED_EVERYWHERE = (
    "gates.flip.calls", "gates.cswap.calls", "gates.regswap.calls", "gates.hadamard.calls",
    "gates.tally.calls", "state.prepare.calls", "state.decode.calls", "state.encode.calls",
    "algorithms.post_select.calls", "algorithms.runner_self.s",
)
CALLED_ON = {
    "cli-verbose": ("matio.load.s", "cli.self.s", "cli.out_bytes", "algorithms.step_states.bytes"),
}


def run(where: Path, workload: str, seconds: int, trace: int, *extra: str):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    return subprocess.run(command, cwd=where, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, specs: list[dict]) -> None:
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in specs}
    if reported != wanted:
        raise AssertionError(f"metrics {reported} != {wanted}")


def check_workload(workload: str) -> None:
    proc = run(ROOT, workload, 1, 0)
    result = result_of(proc)
    print(proc.stdout.rstrip())
    expect_metrics(result, SPEC["end_to_end"])
    if result["failed"] or not result["correct"]:
        raise AssertionError(f"clean pass reported {result['failed']} failures")

    result = result_of(run(ROOT, workload, 1, 0, "--corrupt"))
    if result["failed"] == 0 or result["correct"]:
        raise AssertionError("perturbed outputs passed the oracle gate")
    print(f"{workload}: perturbed pass failed_frac {result['failed'] / result['attempted']:.3g}")

    result = result_of(run(ROOT, workload, 2, 1))
    expect_metrics(result, SPEC["per_layer"])
    missing = [
        name for name in CALLED_EVERYWHERE + CALLED_ON.get(workload, ())
        if not result["metrics"][name]["value"] > 0
    ]
    if missing:
        raise AssertionError(f"layers the workload calls read 0: {missing}")
    coverage = result["metrics"]["trace.self_sum_over_wall"]["value"]
    if abs(coverage - 1.0) > SELF_SUM_TOL:
        raise AssertionError(f"layer self times cover {coverage:.3f} of the traced wall time")
    print(f"{workload}: traced pass, layer self times cover {coverage:.4f} of the traced wall time")


def check_refuses_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the program's sources")
        print(f"without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    checks = [(w, lambda w=w: check_workload(w)) for w in WORKLOADS]
    checks.append(("bare directory", check_refuses_without_program))
    for name, check in checks:
        try:
            check()
        except AssertionError as err:
            failures += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
