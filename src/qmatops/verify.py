"""Every simulator claim checked against the classical oracles.

Each check returns a CheckResult with the worst deviation it saw; the CLI
prints one PASS/FAIL line per check.  Tolerances are pinned here and are
not read from anywhere else.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    Circuit,
    RunReport,
    row_add_circuit,
    row_swap_circuit,
    run_row_add,
    run_row_swap,
    run_trace,
    run_transpose,
    run_transpose_square,
    trace_circuit,
)
from .complexity import measure_scaling
from .gates import ControlledOp, apply_gate, decompose_mcx
from .golden import (
    GOLDEN_FROBENIUS_SCALE,
    GOLDEN_PROBABILITY,
    ReplayRow,
    golden_swapped,
    replay_walkthrough,
)
from .oracle import (
    dense_mcx,
    dense_unitary_of,
    mcx_reference_action,
    oracle_row_add,
    oracle_row_swap,
    oracle_trace,
    oracle_transpose,
)
from .state import EncodedMatrix, RegisterLayout, StateBuffer, StateVector, encode_matrix, post_select

TOL_LAW = 1e-10
TOL_NORM = 1e-12

SCALING_WIDTHS = {
    "row-add": (2, 3, 4, 5),
    "row-swap": (2, 3, 4, 5),
    "trace": (1, 2, 3),
    "transpose": (1, 2, 3, 4, 5, 6),
}

__all__ = ["CheckResult", "run_all_checks", "SCALING_WIDTHS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteCase:
    encoded: EncodedMatrix
    k: int
    l: int


_SUITE_SHAPES = (
    (2, 2), (2, 4), (2, 8),
    (4, 2), (4, 4), (4, 8),
    (8, 2), (8, 4), (8, 8),
    (3, 5), (5, 3), (6, 2),
)


def _random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pair_cyclers() -> dict[int, itertools.cycle]:
    cyclers = {}
    for dim in (2, 4, 8, 16):
        pairs = [(k, l) for k in range(dim) for l in range(dim) if k != l]
        cyclers[dim] = itertools.cycle(pairs)
    return cyclers


def build_suite(seed: int, count: int) -> list[SuiteCase]:
    """Seeded random matrices cycling over the shape table, with (k, l)
    pairs cycling over every ordered pair for each padded row count."""
    rng = np.random.default_rng(seed)
    shapes = itertools.cycle(_SUITE_SHAPES)
    cyclers = _pair_cyclers()
    cases = []
    for _ in range(count):
        encoded = encode_matrix(_random_complex(rng, next(shapes)))
        k, l = next(cyclers[encoded.rows])
        cases.append(SuiteCase(encoded, k, l))
    return cases


def _matrix_deviation(simulated: np.ndarray, reference) -> float:
    return float(np.max(np.abs(simulated - np.array(reference, dtype=np.complex128))))


def check_golden_walkthrough(report: RunReport, rows: list[ReplayRow]) -> CheckResult:
    """Judge one ``replay_walkthrough``: every branch, the Frobenius scale,
    the probability and the decoded matrix.  ``qmatops appendix1`` passes
    exactly when this check does."""
    worst = max(deviation for *_, deviation in rows)
    worst = max(worst, abs(report.frobenius_scale - GOLDEN_FROBENIUS_SCALE))
    worst = max(worst, abs(report.success_probability - GOLDEN_PROBABILITY))
    swapped = np.array(golden_swapped(), dtype=np.complex128) / GOLDEN_FROBENIUS_SCALE
    worst = max(worst, _matrix_deviation(report.output_matrix, swapped))
    return CheckResult(
        "golden-walkthrough",
        worst <= TOL_LAW,
        f"worst branch/probability deviation {worst:.3e}",
    )


def check_row_add_law(suite: list[SuiteCase]) -> CheckResult:
    worst = 0.0
    for case in suite:
        reference = oracle_row_add(case.encoded.entries, case.k, case.l)
        report = run_row_add(case.encoded, case.k, case.l)
        worst = max(worst, abs(report.success_probability - reference.predicted_probability))
        worst = max(worst, abs(report.success_probability - report.predicted_probability))
        worst = max(worst, abs(report.normalization - reference.normalization_G))
        rescaled = report.output_matrix * report.normalization
        worst = max(worst, _matrix_deviation(rescaled, reference.matrix))
    return CheckResult(
        "row-add-oracle-law",
        worst <= TOL_LAW,
        f"{len(suite)} runs, worst deviation {worst:.3e}",
    )


def check_row_swap_law(suite: list[SuiteCase]) -> CheckResult:
    worst = 0.0
    for case in suite:
        reference = oracle_row_swap(case.encoded.entries, case.k, case.l)
        report = run_row_swap(case.encoded, case.k, case.l)
        worst = max(worst, abs(report.success_probability - 1.0 / 24.0))
        worst = max(worst, _matrix_deviation(report.output_matrix, reference.matrix))
    return CheckResult(
        "row-swap-oracle-law",
        worst <= TOL_LAW,
        f"{len(suite)} runs, worst deviation {worst:.3e}",
    )


def check_row_swap_dimension_independence(seed: int, count: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    cyclers = _pair_cyclers()
    row_choices = itertools.cycle((2, 4, 8, 16))
    col_choices = itertools.cycle((2, 4, 2, 4))
    worst = 0.0
    for _ in range(count):
        rows, cols = next(row_choices), next(col_choices)
        encoded = encode_matrix(_random_complex(rng, (rows, cols)))
        k, l = next(cyclers[rows])
        report = run_row_swap(encoded, k, l)
        worst = max(worst, abs(report.success_probability - 1.0 / 24.0))
    return CheckResult(
        "row-swap-dimension-independence",
        worst <= TOL_LAW,
        f"rows up to 16, worst |p - 1/24| = {worst:.3e}",
    )


def check_trace_law(suite: list[SuiteCase], seed: int) -> CheckResult:
    worst = 0.0
    runs = 0
    for case in suite:
        if case.encoded.rows != case.encoded.cols:
            continue
        runs += 1
        reference = oracle_trace(case.encoded.entries)
        report = run_trace(case.encoded)
        worst = max(worst, abs(report.success_probability - reference.predicted_probability))
        worst = max(worst, abs(report.recovered_trace - reference.scalar))
    # exactly traceless inputs: zero diagonal means the accepted amplitude
    # is exactly zero, not merely small
    rng = np.random.default_rng(seed)
    exact_zero = True
    for dim in (2, 4):
        matrix = _random_complex(rng, (dim, dim))
        np.fill_diagonal(matrix, 0.0)
        report = run_trace(encode_matrix(matrix))
        exact_zero = exact_zero and report.success_probability == 0.0
        exact_zero = exact_zero and report.recovered_trace == 0.0
    return CheckResult(
        "trace-law",
        worst <= TOL_LAW and exact_zero,
        f"{runs} square runs, worst deviation {worst:.3e}, traceless exact: {exact_zero}",
    )


def check_transpose_exact(suite: list[SuiteCase]) -> CheckResult:
    exact = True
    for case in suite:
        reference = oracle_transpose(case.encoded.entries)
        report = run_transpose(case.encoded)
        exact = exact and report.success_probability == 1.0
        exact = exact and np.array_equal(
            report.output_matrix, np.array(reference.matrix, dtype=np.complex128)
        )
        square = run_transpose_square(case.encoded)
        exact = exact and np.array_equal(report.output_matrix, square.output_matrix)
    return CheckResult(
        "transpose-exactness",
        exact,
        f"{len(suite)} runs, probability bitwise 1 and outputs permutation-exact",
    )


def check_probability_completeness(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((("X", 2), ("Y", 1), ("Z", 2)))
    worst = 0.0
    for _ in range(5):
        raw = _random_complex(rng, layout.size)
        state = StateVector(layout, raw / np.linalg.norm(raw))
        total = 0.0
        for y in range(2):
            for z in range(4):
                total += post_select(state, {"Y": y, "Z": z}).probability
        worst = max(worst, abs(total - 1.0))
    return CheckResult(
        "post-selection-completeness",
        worst <= TOL_NORM,
        f"worst |sum(p) - 1| = {worst:.3e}",
    )


def _small_circuits() -> list[Circuit]:
    """Representative circuits small enough for dense cross-checking."""
    return [row_add_circuit(2, 2, 2, 1), row_swap_circuit(1, 2, 0, 1), trace_circuit(2)]


def check_controlled_op_unitarity() -> CheckResult:
    worst = 0.0
    counted = 0
    for circuit in _small_circuits():
        for _, gate in circuit.gates():
            if not isinstance(gate, ControlledOp):
                continue
            counted += 1
            unitary = dense_unitary_of(gate, circuit.layout)
            gram = unitary.conj().T @ unitary
            worst = max(worst, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    return CheckResult(
        "controlled-op-unitarity",
        worst <= TOL_NORM,
        f"{counted} ops, worst ||U*U - I|| = {worst:.3e}",
    )


def check_gate_application_matches_dense(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for circuit in _small_circuits():
        layout = circuit.layout
        raw = _random_complex(rng, layout.size)
        state = StateBuffer(layout, raw / np.linalg.norm(raw))
        dense = state.amplitudes.copy()
        for _, gate in circuit.gates():
            apply_gate(state, gate)
            dense = dense_unitary_of(gate, layout) @ dense
        worst = max(worst, float(np.max(np.abs(state.amplitudes - dense))))
    return CheckResult(
        "gate-application-matches-dense",
        worst <= TOL_NORM,
        f"full circuits replayed through dense matrices, worst deviation {worst:.3e}",
    )


def check_mcx_networks(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for num_controls in range(1, 5):
        for polarity in ((1,) * num_controls, tuple(rng.integers(0, 2, num_controls))):
            network = decompose_mcx(num_controls, polarity)
            dense = dense_unitary_of(network)
            block = 1 << (num_controls + 1)
            reference = dense_mcx(num_controls, polarity)
            worst = max(worst, float(np.max(np.abs(dense[:block, :block] - reference))))
            if network.num_work_qubits:
                ok = ok and not np.any(dense[block:, :block])
    for num_controls in range(5, 13):
        for polarity in ((1,) * num_controls, tuple(rng.integers(0, 2, num_controls))):
            network = decompose_mcx(num_controls, polarity)
            for data in range(1 << (num_controls + 1)):
                image = network.apply_to_basis(data)
                expected = mcx_reference_action(data, num_controls, polarity)
                ok = ok and image == expected
    return CheckResult(
        "mcx-network-equivalence",
        ok and worst == 0.0,
        f"1-4 controls dense-checked (worst dev {worst:.1e}), 5-12 basis-checked, work clean",
    )


def check_mcx_count_linearity() -> CheckResult:
    controls = list(range(1, 13))
    toffolis = [decompose_mcx(c).counts().toffoli for c in controls]
    expected = [2 * (c - 1) for c in controls]
    cnots = [decompose_mcx(c).counts().cnot for c in controls]
    ok = toffolis == expected and all(x == 1 for x in cnots)
    return CheckResult(
        "mcx-count-linearity",
        ok,
        f"toffoli counts {toffolis[:4]}... follow 2(c-1), one cnot each",
    )


def check_scaling_claims(seed: int) -> CheckResult:
    failures = []
    for algorithm, widths in SCALING_WIDTHS.items():
        report = measure_scaling(algorithm, widths, seed=seed)
        for verdict in report.claims:
            if not verdict.passed:
                failures.append(f"{algorithm}:{verdict.step}")
    return CheckResult(
        "scaling-claims",
        not failures,
        "all step claims hold" if not failures else f"failed: {failures}",
    )


def check_trace_transpose_consistency(suite: list[SuiteCase]) -> CheckResult:
    worst = 0.0
    runs = 0
    for case in suite:
        if case.encoded.rows != case.encoded.cols:
            continue
        runs += 1
        direct = run_trace(case.encoded).recovered_trace
        transposed = run_transpose_square(case.encoded).output_matrix
        roundtrip = run_trace(encode_matrix(transposed)).recovered_trace
        worst = max(worst, abs(direct - roundtrip))
    return CheckResult(
        "trace-transpose-consistency",
        worst <= TOL_LAW,
        f"{runs} square runs, worst trace deviation {worst:.3e}",
    )


def run_all_checks(seed: int = 0, matrices: int = 200) -> list[CheckResult]:
    if matrices < 1:
        raise ValueError(f"the random-matrix suite needs at least 1 matrix, got {matrices}")
    suite = build_suite(seed, matrices)
    return [
        check_golden_walkthrough(*replay_walkthrough()),
        check_row_add_law(suite),
        check_row_swap_law(suite),
        check_row_swap_dimension_independence(seed + 1),
        check_trace_law(suite, seed + 2),
        check_transpose_exact(suite),
        check_probability_completeness(seed + 3),
        check_controlled_op_unitarity(),
        check_gate_application_matches_dense(seed + 4),
        check_mcx_networks(seed + 5),
        check_mcx_count_linearity(),
        check_scaling_claims(seed + 6),
        check_trace_transpose_consistency(suite),
    ]
