"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test carries a ``criterion`` marker; the terminal summary hook in
conftest.py prints one PASS/FAIL line per criterion after the run.
"""
import itertools
import time

import numpy as np
import pytest

from qmatops import (
    SCALING_WIDTHS,
    encode_matrix,
    measure_scaling,
    oracle_row_add,
    oracle_trace,
    oracle_transpose,
    run_all_checks,
    run_row_add,
    run_row_swap,
    run_trace,
    run_transpose,
    run_transpose_square,
)
from qmatops.golden import GOLDEN_K, GOLDEN_L, GOLDEN_MATRIX
from qmatops.verify import check_controlled_op_unitarity, check_mcx_networks

TOL_LAW = 1e-10
UNITARITY_TOL = 1e-12
VERIFY_BUDGET_SECONDS = 60.0
GOLDEN_BUDGET_SECONDS = 1.0


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pair_cycler(rows):
    pairs = [(k, l) for k in range(rows) for l in range(rows) if k != l]
    return itertools.cycle(pairs)


@pytest.mark.criterion(1, "golden 4x4 row-swap walkthrough")
def test_criterion_1_golden_walkthrough():
    encoded = encode_matrix(GOLDEN_MATRIX)
    started = time.perf_counter()
    report = run_row_swap(encoded, GOLDEN_K, GOLDEN_L)
    elapsed = time.perf_counter() - started

    expected = encoded.entries.copy()
    expected[[GOLDEN_K, GOLDEN_L]] = expected[[GOLDEN_L, GOLDEN_K]]
    deviation = np.max(np.abs(report.output_matrix - expected))
    assert deviation < TOL_LAW, f"output deviation {deviation:.3e}"
    assert abs(report.success_probability - 1 / 24) < TOL_LAW
    assert elapsed < GOLDEN_BUDGET_SECONDS, f"took {elapsed:.3f}s"


@pytest.mark.criterion(2, "row-add law p = G^2/8 over 100 matrices")
def test_criterion_2_row_add_law():
    rng = np.random.default_rng(2025)
    shapes = list(itertools.product((2, 4, 8), repeat=2))
    cyclers = {rows: pair_cycler(rows) for rows in (2, 4, 8)}
    for index in range(100):
        rows, cols = shapes[index % len(shapes)]
        encoded = encode_matrix(random_complex(rng, (rows, cols)))
        k, l = next(cyclers[rows])
        reference = oracle_row_add(encoded.entries, k, l)
        report = run_row_add(encoded, k, l)
        assert abs(report.success_probability - reference.predicted_probability) < TOL_LAW
        rescaled = report.output_matrix * reference.normalization_G
        deviation = np.max(np.abs(rescaled - np.array(reference.matrix)))
        assert deviation < TOL_LAW, (rows, cols, k, l, deviation)


@pytest.mark.criterion(3, "row-swap probability 1/24 independent of size")
def test_criterion_3_row_swap_dimension_independence():
    rng = np.random.default_rng(2026)
    row_sizes = itertools.cycle((2, 4, 8, 16))
    col_sizes = itertools.cycle((2, 4))
    cyclers = {rows: pair_cycler(rows) for rows in (2, 4, 8, 16)}
    seen = set()
    for _ in range(50):
        rows, cols = next(row_sizes), next(col_sizes)
        seen.add(rows)
        encoded = encode_matrix(random_complex(rng, (rows, cols)))
        k, l = next(cyclers[rows])
        report = run_row_swap(encoded, k, l)
        assert abs(report.success_probability - 1 / 24) < TOL_LAW, (rows, cols, k, l)
    assert seen == {2, 4, 8, 16}


@pytest.mark.criterion(4, "trace law p = |tr|^2 / 8^n with exact zero for traceless")
def test_criterion_4_trace_law():
    rng = np.random.default_rng(2027)
    for index in range(50):
        dim = 2 if index % 2 == 0 else 4
        encoded = encode_matrix(random_complex(rng, (dim, dim)))
        reference = oracle_trace(encoded.entries)
        report = run_trace(encoded)
        assert abs(report.success_probability - reference.predicted_probability) < TOL_LAW
        assert abs(report.recovered_trace - reference.scalar) < TOL_LAW
    for dim in (2, 4):
        raw = random_complex(rng, (dim, dim))
        np.fill_diagonal(raw, 0.0)
        report = run_trace(encode_matrix(raw))
        assert report.success_probability == 0.0
        assert report.recovered_trace == 0.0


@pytest.mark.criterion(5, "transpose exact with probability bitwise 1")
def test_criterion_5_transpose_exact():
    rng = np.random.default_rng(2028)
    shapes = itertools.cycle(
        [(2, 2), (2, 4), (4, 2), (2, 8), (8, 2), (4, 8), (8, 4),
         (4, 4), (8, 8), (3, 5), (5, 3), (6, 2)]
    )
    rectangular_seen = 0
    for _ in range(50):
        shape = next(shapes)
        encoded = encode_matrix(random_complex(rng, shape))
        if encoded.rows != encoded.cols:
            rectangular_seen += 1
        reference = oracle_transpose(encoded.entries)
        report = run_transpose(encoded)
        assert report.success_probability == 1.0
        assert np.array_equal(report.output_matrix, np.array(reference.matrix))
        square = run_transpose_square(encoded)
        assert square.success_probability == 1.0
        assert np.array_equal(square.output_matrix, report.output_matrix)
    assert rectangular_seen > 0


@pytest.mark.criterion(6, "controlled-op unitarity and MCX decomposition")
def test_criterion_6_gate_kit_soundness():
    unitarity = check_controlled_op_unitarity()
    assert unitarity.passed, unitarity.detail
    networks = check_mcx_networks(seed=11)
    assert networks.passed, networks.detail


@pytest.mark.criterion(7, "per-step gate-count scaling verdicts")
def test_criterion_7_scaling_claims():
    for algorithm, widths in SCALING_WIDTHS.items():
        report = measure_scaling(algorithm, widths=widths, seed=0)
        failures = [claim.step for claim in report.claims if not claim.passed]
        assert report.all_passed(), (algorithm, failures)


@pytest.mark.criterion(8, "full verification suite under 60 seconds")
def test_criterion_8_verify_suite_runtime():
    started = time.perf_counter()
    results = run_all_checks(seed=0, matrices=200)
    elapsed = time.perf_counter() - started
    failed = [result.name for result in results if not result.passed]
    assert not failed, failed
    assert elapsed < VERIFY_BUDGET_SECONDS, f"took {elapsed:.1f}s"
