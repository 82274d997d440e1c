"""One workload in one fresh process: set up, measure, check every output.

``run.py`` starts this script with the thread-count variables set to 1 and
``src`` on ``PYTHONPATH``.  It prints one JSON line of raw figures, which
``run.py`` turns into the benchmark's metrics.

A single caller runs the workload's cases back to back (closed loop, one
thread).  Only the call into qmatops is timed; the oracle gate runs after
the clock stops.  Runs stop at the first cycle boundary after the time is
up, so every routine of the workload is run equally often.
"""
import time

_START = time.perf_counter()  # set-up counts from here, imports included

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import qmatops  # noqa: E402
from qmatops import cli  # noqa: E402

import cases  # noqa: E402

# Share of --seconds for the untraced pass of a traced run; the traced pass
# repeats the same runs, and the allocation probe adds one cycle.
TRACE_UNTRACED_SHARE = 0.4
CORRUPTION = 1e-7


def corrupted(runner):
    """Perturb one output amplitude of every report, to prove the gate bites."""

    def wrapper(*args, **kwargs):
        report = runner(*args, **kwargs)
        if report.output_matrix is not None:
            report.output_matrix = report.output_matrix.copy()
            report.output_matrix.flat[0] += CORRUPTION
        if report.recovered_trace is not None:
            report.recovered_trace += CORRUPTION
        return report

    return wrapper


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.cycle = len(cases.items(name))
        self.via_cli = name == "cli-verbose"
        self.input = workdir / "input.json"
        self.output = workdir / "report.json"
        self.out_bytes = 0
        self.encode = qmatops.encode_matrix
        self.runners = {routine: getattr(qmatops, attr) for routine, attr in cases.RUNNERS.items()}
        for index in range(self.cycle):
            # set-up generates and encodes the first cycle's inputs, as a user
            # would load a batch before running it
            qmatops.encode_matrix(self.case(index).matrix)

    def case(self, index: int) -> cases.Case:
        case = cases.make_case(self.name, self.seed, index)
        if self.via_cli:
            cases.write_input(case, self.input)
        return case

    def call(self, case: cases.Case):
        if self.via_cli:
            return cli.main(cases.cli_argv(case, self.output))
        encoded = self.encode(case.matrix)
        runner = self.runners[case.routine]
        if case.routine in cases.WITH_ROWS:
            return runner(encoded, case.k, case.l)
        return runner(encoded)

    def verify(self, case: cases.Case, result) -> str | None:
        want = cases.expected(case)
        if not self.via_cli:
            return cases.check_report(case, want, result)
        if result != 0:
            return f"cli exited with {result}"
        text = self.output.read_text()
        self.out_bytes += len(text.encode())
        return cases.check_document(case, want, text)

    def corrupt(self) -> None:
        if self.via_cli:
            for attr in cases.RUNNERS.values():
                setattr(cli, attr, corrupted(getattr(cli, attr)))
        else:
            self.runners = {routine: corrupted(fn) for routine, fn in self.runners.items()}

    def attempt(self, case: cases.Case) -> tuple[float, str | None]:
        """Run one case; return its timed seconds and why it failed, or None."""
        start = time.perf_counter()
        try:
            result = self.call(case)
        except Exception as exc:  # a failed run is counted, not fatal
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        try:
            return elapsed, self.verify(case, result)
        except Exception as exc:  # a malformed result fails the gate
            return elapsed, f"unreadable result: {type(exc).__name__}: {exc}"

    def measure(self, seconds: float | None = None, runs: int | None = None) -> dict:
        """Closed loop over the cases, for whole cycles until ``seconds`` or ``runs``."""
        times, failures = [], []
        deadline = time.perf_counter() + (seconds or 0.0)
        index = 0
        while True:
            case = self.case(index)
            elapsed, error = self.attempt(case)
            times.append(elapsed)
            if error is not None:
                failures.append(f"{case.routine} {case.matrix.shape}: {error}")
            index += 1
            if runs is not None:
                if index >= runs:
                    break
            elif index % self.cycle == 0 and time.perf_counter() >= deadline:
                break
        return {"times": times, "failures": failures}


def summarize(sample: dict, cycle: int) -> dict:
    """Raw end-to-end figures of one pass.

    Other tenants of the reference machine slow it by up to 40%, in phases
    that last from seconds to minutes.  The slowed state is reproducible
    from run to run; the unslowed speed is not.  A median moves with how
    much of a run falls in each phase, so the figures are taken from the
    slow end of each distribution:

    - ``runs_per_s``: the rate that 9 in 10 cycles reach (10th percentile
      over cycles of runs per second of the cycle's timed wall time), times
      the share of runs that passed the oracle gate;
    - ``run_s_p90``: median over the workload's items of each item's 90th
      percentile run time.  Items are summarized separately because the
      routines differ up to tenfold in time;
    - ``run_s_p99``: 99th percentile over single runs.
    """
    times = np.array(sample["times"])
    failed = len(sample["failures"])
    by_cycle = times[: times.size // cycle * cycle].reshape(-1, cycle)
    return {
        "attempted": int(times.size),
        "failed": failed,
        "wall_s": float(times.sum()),
        "runs_per_s": float(np.percentile(cycle / by_cycle.sum(axis=1), 10)) * (1 - failed / times.size),
        "run_s_p90": float(np.median(np.percentile(by_cycle, 90, axis=0))),
        "run_s_p99": float(np.percentile(times, 99)),
        "failures": sample["failures"][:5],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    source = Path(qmatops.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"qmatops imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = Workload(args.workload, args.seed, workdir)
        if args.corrupt:
            workload.corrupt()
        warm_case = workload.case(0)
        before_warm_up = time.perf_counter() - _START
        warm_s, warm_error = workload.attempt(warm_case)
        out = {"setup_s": before_warm_up + warm_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        gc.collect()
        if not args.trace:
            out.update(summarize(workload.measure(seconds=args.seconds), workload.cycle))
        else:
            out.update(traced(workload, args.seconds))
        if warm_error is not None:
            out["failed"] += 1
            out["attempted"] += 1
            out["failures"].insert(0, f"warm-up: {warm_error}")
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(workload: Workload, seconds: float) -> dict:
    """Untraced pass, the same runs traced, then one cycle under the allocation probe."""
    from spans import AllocProbe, Tracer  # only traced runs depend on qmatops internals

    plain = summarize(workload.measure(seconds=seconds * TRACE_UNTRACED_SHARE), workload.cycle)
    runs = plain["attempted"]

    tracer = Tracer()
    plain_encode, plain_runners = workload.encode, workload.runners
    workload.encode = tracer.span("state.encode", plain_encode)
    workload.runners = {routine: tracer.span("algorithms.runner", fn) for routine, fn in plain_runners.items()}
    workload.out_bytes = 0
    tracer.install()
    try:
        spanned = summarize(workload.measure(runs=runs), workload.cycle)
    finally:
        tracer.remove()
        workload.encode, workload.runners = plain_encode, plain_runners
    out_bytes = workload.out_bytes

    probe = AllocProbe()
    probe.install()
    try:
        probed = workload.measure(runs=workload.cycle)
    finally:
        probe.remove()

    metrics = tracer.per_layer(runs)
    metrics["gates.alloc_peak_over_state"] = probe.worst
    metrics["cli.out_bytes"] = out_bytes / runs
    metrics["trace.overhead_frac"] = spanned["wall_s"] / plain["wall_s"] - 1.0
    metrics["trace.self_sum_over_wall"] = tracer.self_seconds() / spanned["wall_s"]
    failures = plain["failures"] + spanned["failures"] + probed["failures"]
    return {
        "attempted": runs * 2 + len(probed["times"]),
        "failed": plain["failed"] + spanned["failed"] + len(probed["failures"]),
        "wall_s": plain["wall_s"],
        "failures": failures[:5],
        "per_layer": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
