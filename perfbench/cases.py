"""Workload inputs and the oracle gate that every benchmark run passes.

Inputs are complex Gaussian matrices drawn from the run's seed, a fresh one
for every routine run; the shapes and routines of each workload are fixed,
so a seed changes the values and the row pair (k, l) but never the amount
of work.  Every output is checked
against ``qmatops.oracle``, the loop-based reference that shares no code
with the simulator, outside the timed region.
"""
from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmatops import matio, oracle

# routine -> the qmatops runner that implements it
RUNNERS = {
    "row-add": "run_row_add",
    "row-swap": "run_row_swap",
    "trace": "run_trace",
    "transpose": "run_transpose",
    "transpose-square": "run_transpose_square",
}
WITH_ROWS = ("row-add", "row-swap")

# Widest state a small-batch case may use: 2^12 complex128 amplitudes, 64 KiB,
# well inside the 2 MiB L2 of the reference machine.
SMALL_BATCH_MAX_QUBITS = 12
SMALL_BATCH_ROW_SWAP_MAX_ROWS = 4
SMALL_BATCH_SHAPES = tuple((n, n) for n in range(2, 9)) + ((3, 5), (5, 3), (6, 2))

# (routine, rows, cols): every gate of these runs gathers 2^20-2^21 amplitudes.
WIDE_ITEMS = (
    ("row-add", 64, 64),
    ("row-swap", 16, 32),
    ("trace", 64, 64),
    ("transpose", 128, 128),
)
CLI_ITEMS = (
    ("row-add", 32, 32),
    ("row-swap", 8, 8),
    ("trace", 32, 32),
    ("transpose", 64, 64),
)

LAW_TOL = 1e-10
ENTRY_TOL = 1e-10


@dataclass
class Case:
    routine: str
    matrix: np.ndarray
    k: int | None = None
    l: int | None = None
    path: Path | None = None


def _qubits(extent: int) -> int:
    return max(1, (extent - 1).bit_length())


def state_qubits(routine: str, rows: int, cols: int) -> int:
    """Width of the simulated state for one routine on a rows x cols input."""
    n, m = _qubits(rows), _qubits(cols)
    return {
        "row-add": 2 * n + m + 3,
        "row-swap": 3 * n + m + 4,
        "trace": 3 * n + 2,
        "transpose": n + 2 * m,
        "transpose-square": 2 * max(n, m),
    }[routine]


@functools.cache
def items(workload: str) -> tuple[tuple[str, int, int], ...]:
    """One cycle of (routine, rows, cols); a run measures whole cycles."""
    if workload == "wide":
        return WIDE_ITEMS
    if workload == "cli-verbose":
        return CLI_ITEMS
    if workload != "small-batch":
        raise ValueError(f"unknown workload {workload!r}")
    cycle = []
    for rows, cols in SMALL_BATCH_SHAPES:
        for routine in RUNNERS:
            if routine == "trace" and rows != cols:
                continue
            if routine == "row-swap" and rows > SMALL_BATCH_ROW_SWAP_MAX_ROWS:
                continue
            if state_qubits(routine, rows, cols) > SMALL_BATCH_MAX_QUBITS:
                continue
            cycle.append((routine, rows, cols))
    return tuple(cycle)


def make_case(workload: str, seed: int, index: int) -> Case:
    """Input of run ``index``: item ``index`` of the cycle, with fresh values.

    Every run gets a new matrix, so no run can reuse another run's result.
    """
    cycle = items(workload)
    routine, rows, cols = cycle[index % len(cycle)]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode()), index])
    matrix = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    case = Case(routine, matrix)
    if routine in WITH_ROWS:
        case.k, case.l = (int(v) for v in rng.choice(rows, size=2, replace=False))
    return case


def write_input(case: Case, path: Path) -> None:
    """Write the case's matrix with ``matio.save_matrix``; its floats round-trip
    exactly, so the CLI reads back the matrix the oracle sees."""
    matio.save_matrix(path, case.matrix)
    case.path = path


def cli_argv(case: Case, output: Path) -> list[str]:
    argv = [case.routine, "--input", str(case.path)]
    if case.routine in WITH_ROWS:
        argv += ["--k", str(case.k), "--l", str(case.l)]
    return argv + ["--verbose", "--output", str(output)]


# --- oracle gate ---------------------------------------------------------------

@dataclass
class Expected:
    matrix: np.ndarray | None  # oracle output over the unpadded shape
    scale: float  # row-add's G; 1 elsewhere
    probability: float
    trace: complex | None = None


def expected(case: Case) -> Expected:
    """Oracle result for the Frobenius-normalized input the simulator encodes."""
    normalized = case.matrix / np.linalg.norm(case.matrix)
    if case.routine == "row-add":
        res = oracle.oracle_row_add(normalized, case.k, case.l)
        g = res.normalization_G
        return Expected(np.array(res.matrix), g, g * g / 8.0)
    if case.routine == "row-swap":
        res = oracle.oracle_row_swap(normalized, case.k, case.l)
        return Expected(np.array(res.matrix), 1.0, 1.0 / 24.0)
    if case.routine == "trace":
        side = 1 << _qubits(case.matrix.shape[0])
        padded = np.zeros((side, side), dtype=np.complex128)
        padded[: normalized.shape[0], : normalized.shape[1]] = normalized
        res = oracle.oracle_trace(padded)
        return Expected(None, 1.0, res.predicted_probability, res.scalar)
    res = oracle.oracle_transpose(normalized)
    return Expected(np.array(res.matrix, dtype=np.complex128), 1.0, 1.0)


def check(case: Case, want: Expected, output, probability: float, trace, exact_bits: bool) -> str | None:
    """Return None when one run's result passes the oracle gate, else why not.

    ``output`` is the decoded matrix over the padded shape; ``exact_bits``
    asks the transpose comparison to include the sign of zero, which a JSON
    report cannot carry.
    """
    routine = case.routine
    if routine == "trace":
        if trace is None or abs(complex(trace) - want.trace) > ENTRY_TOL:
            return f"trace {trace!r} != oracle {want.trace!r}"
        if abs(probability - want.probability) > LAW_TOL:
            return f"probability {probability!r} != |tr|^2/2^(3n) = {want.probability!r}"
        return None

    if output is None:
        return "no output matrix"
    output = np.asarray(output, dtype=np.complex128)
    rows, cols = want.matrix.shape
    if output.shape != (1 << _qubits(rows), 1 << _qubits(cols)):
        return f"output shape {output.shape} for a {rows}x{cols} result"
    block = output[:rows, :cols]
    padding = output.copy()
    padding[:rows, :cols] = 0

    if routine in ("transpose", "transpose-square"):
        block = np.ascontiguousarray(block)
        same = block.tobytes() == want.matrix.tobytes() if exact_bits else np.array_equal(block, want.matrix)
        if not same or np.any(padding != 0):
            return "transpose output is not bitwise equal to the oracle"
        if probability != 1.0:
            return f"transpose probability {probability!r} is not exactly 1.0"
        return None

    error = float(np.max(np.abs(block * want.scale - want.matrix)))
    if error > ENTRY_TOL or float(np.max(np.abs(padding))) > ENTRY_TOL:
        return f"output differs from the oracle by {error:.3e}"
    if abs(probability - want.probability) > LAW_TOL:
        law = "G^2/8" if routine == "row-add" else "1/24"
        return f"probability {probability!r} != {law} = {want.probability!r}"
    return None


def check_report(case: Case, want: Expected, report) -> str | None:
    return check(case, want, report.output_matrix, report.success_probability, report.recovered_trace, True)


def check_document(case: Case, want: Expected, text: str) -> str | None:
    """Parse a CLI report and pass it through the same gate as an API result."""
    doc = json.loads(text)
    trace = doc.get("recovered_trace")
    if trace is not None:
        trace = complex(trace[0], trace[1])
    if doc.get("command") != case.routine or "steps" not in doc:
        return "report is not a verbose report of the requested command"
    payload = doc.get("matrix")
    output = None if payload is None else matio.payload_to_matrix(payload)
    return check(case, want, output, doc["probability"], trace, False)
