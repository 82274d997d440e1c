"""Command-line front end.

Reports are JSON documents with sorted keys and no timestamps, so the same
command with the same seed produces byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .algorithms import RunReport, run_row_add, run_row_swap, run_trace, run_transpose, run_transpose_square
from .complexity import CLAIMS, measure_scaling
from .golden import GOLDEN_K, GOLDEN_L, GOLDEN_PROBABILITY, replay_walkthrough
from .matio import Columns, json_text, load_matrix, matrix_to_payload
from .state import EncodedMatrix, encode_matrix, occupied_states
from .verify import SCALING_WIDTHS, check_golden_walkthrough, run_all_checks

AMPLITUDE_DUMP_CAP = 4096
# uniform draws per chunk of --shots, so any shot count samples in bounded memory
SHOT_CHUNK = 1 << 20
# largest --shots accepted: drawing 2^32 shots takes about half a minute
MAX_SHOTS = 1 << 32
# The routine commands in help order: the runner's name in this module,
# looked up when the command runs so that a wrapper set on that name is the
# one called; the help text; and whether the command takes rows --k and --l.
_ROUTINES = {
    "row-add": ("run_row_add", "add row k into row l", True),
    "row-swap": ("run_row_swap", "exchange rows k and l", True),
    "trace": ("run_trace", "recover the trace of a square matrix", False),
    "transpose": ("run_transpose", "transpose via a destination register", False),
    "transpose-square": ("run_transpose_square", "transpose by padding to a square", False),
}


def _write_document(doc: dict, output: str | None) -> None:
    text = json_text(doc) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text)
        except OSError as err:
            raise ValueError(f"{output}: cannot write ({err})") from err


def _step_dump(report: RunReport) -> list[dict]:
    """Each recorded stage, its first occupied states as one ``Columns``."""
    steps = []
    for record in report.step_states or ():
        values, occupied = occupied_states(record.state, AMPLITUDE_DUMP_CAP)
        amplitudes = Columns({**values, "re": occupied.real.copy(), "im": occupied.imag.copy()})
        steps.append(
            {
                "label": record.label,
                "norm_squared": record.norm_squared,
                "checksum": record.checksum,
                "amplitudes": amplitudes,
            }
        )
    return steps


def _restored_matrix(report: RunReport) -> np.ndarray:
    factor = report.frobenius_scale * (report.normalization or 1.0)
    rows, cols = report.output_unpadded_shape
    return (report.output_matrix * factor)[:rows, :cols]


def _algorithm_document(command: str, args, encoded: EncodedMatrix, report: RunReport) -> dict:
    doc = {
        "command": command,
        "input": {
            "rows": encoded.original_rows,
            "cols": encoded.original_cols,
            "padded_rows": encoded.rows,
            "padded_cols": encoded.cols,
        },
        "frobenius_scale": encoded.frobenius_scale,
        "probability": report.success_probability,
        "predicted_probability": report.predicted_probability,
        "gate_tally": report.gate_tally.to_dict(),
        "seed": args.seed,
    }
    if report.output_matrix is not None:
        doc["matrix"] = matrix_to_payload(report.output_matrix)
        doc["matrix_restored"] = matrix_to_payload(_restored_matrix(report))
    else:
        doc["matrix"] = None
        doc["matrix_restored"] = None
    if report.recovered_trace is not None:
        doc["recovered_trace"] = [report.recovered_trace.real, report.recovered_trace.imag]
        restored = report.recovered_trace * report.frobenius_scale
        doc["recovered_trace_restored"] = [restored.real, restored.imag]
    if report.normalization is not None:
        doc["normalization_G"] = report.normalization
    if args.shots is not None:
        # chunked draws from one generator are the draws of one big call,
        # and hits / shots is the mean of their comparisons, bit for bit
        rng = np.random.default_rng(args.seed)
        hits = 0
        for start in range(0, args.shots, SHOT_CHUNK):
            draws = rng.random(min(SHOT_CHUNK, args.shots - start))
            hits += int(np.count_nonzero(draws < report.success_probability))
        doc["shots"] = args.shots
        doc["empirical_frequency"] = hits / args.shots
    if args.verbose:
        doc["steps"] = _step_dump(report)
    return doc


def _run_algorithm(command: str, args) -> int:
    if args.shots is not None and args.shots < 1:
        raise ValueError("--shots must be a positive integer")
    if args.shots is not None and args.shots > MAX_SHOTS:
        raise ValueError(f"--shots must be at most {MAX_SHOTS}")
    matrix = load_matrix(args.input)
    runner, _, with_rows = _ROUTINES[command]
    rows = (args.k, args.l) if with_rows else ()
    # a padding row would move a row where the restored matrix drops it
    for name, row in zip("kl", rows):
        if row >= matrix.shape[0]:
            raise ValueError(f"--{name} {row} is past the last row of the {matrix.shape[0]}-row input")
    encoded = encode_matrix(matrix)
    report = globals()[runner](encoded, *rows, record_steps=bool(args.verbose))
    _write_document(_algorithm_document(command, args, encoded, report), args.output)
    return 0


def _cmd_verify(args) -> int:
    results = run_all_checks(seed=args.seed, matrices=args.matrices)
    for result in results:
        marker = "PASS" if result.passed else "FAIL"
        print(f"[{marker}] {result.name}: {result.detail}")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    if args.output:
        doc = {
            "seed": args.seed,
            "matrices": args.matrices,
            "checks": [asdict(result) for result in results],
        }
        _write_document(doc, args.output)
    return 0 if passed == len(results) else 1


def _cmd_scaling(args) -> int:
    algorithms = sorted(CLAIMS) if args.algorithm == "all" else [args.algorithm]
    documents = []
    all_passed = True
    for algorithm in algorithms:
        if args.widths:
            widths = [int(w) for w in args.widths.split(",")]
        else:
            widths = list(SCALING_WIDTHS[algorithm])
        report = measure_scaling(algorithm, widths, seed=args.seed)
        documents.append(report.to_dict())
        for verdict in report.claims:
            marker = "PASS" if verdict.passed else "FAIL"
            print(
                f"[{marker}] {algorithm} {verdict.step} {verdict.claimed} "
                f"{verdict.metric} counts={verdict.counts}"
            )
            all_passed = all_passed and verdict.passed
    if args.output:
        _write_document({"reports": documents}, args.output)
    return 0 if all_passed else 1


def _cmd_appendix1(args) -> int:
    report, rows = replay_walkthrough()
    worst = max(deviation for *_, deviation in rows)
    for label, assignment, expected, simulated, deviation in rows:
        basis = " ".join(f"{name}={value}" for name, value in assignment.items())
        print(
            f"{label:6s} {basis}  expected {expected.real:+.12f}  "
            f"simulated {simulated.real:+.12f}{simulated.imag:+.2e}j  |diff| {deviation:.2e}"
        )
    probability_error = abs(report.success_probability - GOLDEN_PROBABILITY)
    print(f"probability: {report.success_probability:.12f} (target 1/24, |diff| {probability_error:.2e})")
    print(f"worst branch deviation: {worst:.2e}")
    ok = check_golden_walkthrough(report, rows).passed
    if args.output:
        doc = {
            "k": GOLDEN_K,
            "l": GOLDEN_L,
            "probability": report.success_probability,
            "worst_branch_deviation": worst,
            "matrix": matrix_to_payload(report.output_matrix),
            "passed": ok,
        }
        _write_document(doc, args.output)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmatops",
        description=(
            "Simulate amplitude-encoded matrix circuits (row addition, row "
            "swapping, trace readout, transpose) and verify them against "
            "classical linear algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, with_rows) in _ROUTINES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="matrix JSON file")
        if with_rows:
            p.add_argument("--k", type=int, required=True, help="source row index")
            p.add_argument("--l", type=int, required=True, help="target row index")
        p.add_argument("--seed", type=int, default=0, help="seed for the optional shot sampler")
        p.add_argument("--shots", type=int, default=None, help="sample the accept/reject outcome")
        p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--verbose", action="store_true", help="include per-stage state records")

    p = sub.add_parser("verify", help="run the full oracle-equivalence suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrices", type=int, default=200, help="size of the random-matrix suite")
    p.add_argument("--output", default=None, help="also write the results as JSON")

    p = sub.add_parser("scaling", help="measure per-step gate counts across widths")
    p.add_argument("--algorithm", default="all", choices=["all", *sorted(CLAIMS)])
    p.add_argument("--widths", default=None, help="comma-separated register widths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)

    p = sub.add_parser("appendix1", help="replay the built-in 4x4 worked example")
    p.add_argument("--output", default=None)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it is."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in _ROUTINES:
            return _run_algorithm(args.command, args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scaling":
            return _cmd_scaling(args)
        return _cmd_appendix1(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
