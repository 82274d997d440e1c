"""Built-in worked example: one fixed 4x4 row swap, traced branch by branch.

The tables below freeze the expected amplitude of every tracked branch at
every stage boundary, so a run can be replayed and checked term by term.
All amplitudes are real here because the matrix is real.

Branch bookkeeping for swapping rows K and L (K=3, L=1): the auxiliary
registers start in the three-way superposition over (R2, C2) values
(L, K), (K, K), (L, L).  The (L, K) branch carries the rows that stay put,
the (K, K) branch donates row L, and the (L, L) branch donates row K; after
the controlled swaps every wanted term sits at (R2, C2) = (L, K).
"""
from __future__ import annotations

import math

from .algorithms import RunReport, run_row_swap
from .state import encode_matrix

GOLDEN_MATRIX: list[list[float]] = [
    [1 / 4, 1 / 16, 3 / 16, 3 / 16],
    [0.0, 1 / 2, 1 / 8, 1 / 8],
    [7 / 16, 0.0, 1 / 4, 0.0],
    [3 / 16, 3 / 16, 1 / 8, 1 / 2],
]

GOLDEN_K = 3
GOLDEN_L = 1

# squared Frobenius norm of the matrix above is 258/256
GOLDEN_NORM_SQUARED = 258 / 256
GOLDEN_FROBENIUS_SCALE = math.sqrt(GOLDEN_NORM_SQUARED)
GOLDEN_PROBABILITY = 1 / 24

_THIRD = 1 / math.sqrt(3.0)
_MIXED = 1 / math.sqrt(24.0)  # 1/(2*sqrt(2)*sqrt(3)) after the Hadamard mixing


def golden_swapped() -> list[list[float]]:
    out = [list(row) for row in GOLDEN_MATRIX]
    out[GOLDEN_K], out[GOLDEN_L] = list(GOLDEN_MATRIX[GOLDEN_L]), list(GOLDEN_MATRIX[GOLDEN_K])
    return out


Branch = tuple[dict[str, int], complex]


def _term(i, j, r2, c2, b1, b2, b3, amplitude) -> Branch:
    values = {"R1": i, "C1": j, "R2": r2, "C2": c2, "B1": b1, "B2": b2, "B3": b3}
    return values, complex(amplitude)


def expected_branches() -> dict[str, list[Branch]]:
    """Expected amplitude of every tracked branch, keyed by stage label."""
    a = GOLDEN_MATRIX
    swapped = golden_swapped()
    k, l = GOLDEN_K, GOLDEN_L
    scale = GOLDEN_FROBENIUS_SCALE
    pairs = [(l, k), (k, k), (l, l)]
    branches: dict[str, list[Branch]] = {}

    branches["phi_0"] = [
        _term(i, j, r2, c2, 0, 0, 0, a[i][j] * _THIRD / scale)
        for r2, c2 in pairs
        for i in range(4)
        for j in range(4)
    ]
    branches["phi_1"] = [
        _term(i, j, r2, c2, 1 if (r2, c2) == (l, k) else 0, 0, 0, a[i][j] * _THIRD / scale)
        for r2, c2 in pairs
        for i in range(4)
        for j in range(4)
    ]

    # wanted groups after the row tagging: untouched rows stay in the (L, K)
    # branch, row L is tagged inside (K, K), row K inside (L, L)
    stay = [
        _term(i, j, l, k, 1, 0b00, 0, a[i][j] * _THIRD / scale)
        for i in range(4)
        if i not in (k, l)
        for j in range(4)
    ]
    branches["phi_2"] = (
        stay
        + [_term(k, j, l, l, 0, 0b10, 0, a[k][j] * _THIRD / scale) for j in range(4)]
        + [_term(l, j, k, k, 0, 0b01, 0, a[l][j] * _THIRD / scale) for j in range(4)]
    )

    # after the controlled swaps every wanted term reaches (R2, C2) = (L, K)
    moved = (
        stay
        + [_term(l, j, l, k, 0, 0b10, 0, a[k][j] * _THIRD / scale) for j in range(4)]
        + [_term(k, j, l, k, 0, 0b01, 0, a[l][j] * _THIRD / scale) for j in range(4)]
    )
    branches["phi_3"] = moved
    branches["phi_4"] = [
        (dict(values, B3=1), amplitude) for values, amplitude in moved
    ]

    branches["phi_5"] = [
        _term(i, j, l, k, 0, 0b00, 1, swapped[i][j] * _MIXED / scale)
        for i in range(4)
        for j in range(4)
    ]
    branches["phi_6"] = [
        _term(i, j, l, k, 0, 0b00, 1, swapped[i][j] / scale)
        for i in range(4)
        for j in range(4)
    ]
    return branches


# (stage label, basis assignment, expected amplitude, simulated amplitude, |difference|)
ReplayRow = tuple[str, dict[str, int], complex, complex, float]


def replay_walkthrough() -> tuple[RunReport, list[ReplayRow]]:
    """Run the worked example with every stage recorded and compare it with
    ``expected_branches``.

    Returns the run's report and one ReplayRow per tracked branch, in table
    order.
    """
    report = run_row_swap(encode_matrix(GOLDEN_MATRIX), GOLDEN_K, GOLDEN_L, record_steps=True)
    states = {record.label: record.state for record in report.step_states}
    rows = []
    for label, branch_list in expected_branches().items():
        for assignment, expected in branch_list:
            simulated = states[label].amplitude(assignment)
            rows.append((label, assignment, expected, simulated, abs(simulated - expected)))
    return report, rows
