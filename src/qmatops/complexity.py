"""Scaling measurements for the per-step gate-count claims.

For each algorithm the claims table below names the steps whose primitive
counts are asserted to be constant or exactly linear in the register width.
Counts are integers produced by a fixed expansion, so a linear claim must
fit with zero residual, not within a tolerance.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .algorithms import row_add_circuit, row_swap_circuit, trace_circuit, transpose_circuit
from .gates import GateCounts, GateTally, tally_gates

MAX_WIDTH = 12

__all__ = ["Claim", "ClaimVerdict", "StepFit", "ScalingReport", "measure_scaling", "CLAIMS"]


@dataclass(frozen=True)
class Claim:
    step: str
    order: str  # "O(1)", "O(n)" or "O(m)"
    metric: str  # GateCounts field the claim is about
    note: str = ""


CLAIMS: dict[str, tuple[Claim, ...]] = {
    "row-add": (
        Claim("step2-mark-source-branch", "O(n)", "toffoli"),
        Claim("step3-mark-target-row", "O(n)", "toffoli"),
        Claim("step5-mark-useful", "O(1)", "toffoli"),
        Claim("step6-hadamard-mix", "O(1)", "single_qubit"),
    ),
    "row-swap": (
        Claim("step2-mark-distinct-pair", "O(n)", "toffoli"),
        Claim("step3-mark-swap-rows", "O(n)", "toffoli"),
        Claim(
            "step5-mark-useful",
            "O(1)",
            "toffoli",
            note=(
                "counted from the three 3-qubit ancilla patterns rather than a "
                "single-control model; the count is width-independent either way"
            ),
        ),
        Claim("step6-hadamard-mix", "O(1)", "single_qubit"),
    ),
    "trace": (
        Claim("step2-mark-diagonal", "O(n)", "toffoli"),
        Claim("step3-mark-useful", "O(n)", "toffoli"),
        Claim("step4-hadamard-sum", "O(n)", "single_qubit"),
        Claim("step5-remark-useful", "O(n)", "toffoli"),
    ),
    "transpose": (
        Claim("step2-swap-registers", "O(m)", "swap"),
    ),
}

@dataclass
class StepFit:
    metric: str
    counts: list[int]
    slope: float
    intercept: float
    max_residual: float

    def holds(self, order: str) -> bool:
        """O(1) holds when the counts are identical, O(n)/O(m) when they sit
        on a line with positive slope; either way with zero residual."""
        if self.max_residual != 0:
            return False
        return self.slope == 0 if order == "O(1)" else self.slope > 0


@dataclass
class ClaimVerdict:
    step: str
    claimed: str
    metric: str
    counts: list[int]
    passed: bool
    note: str = ""


@dataclass
class ScalingReport:
    algorithm: str
    widths: list[int]
    tallies: list[GateTally]
    fits: dict[str, StepFit]
    claims: list[ClaimVerdict]

    def all_passed(self) -> bool:
        return all(verdict.passed for verdict in self.claims)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "widths": self.widths,
            "tallies": [tally.to_dict() for tally in self.tallies],
            "fits": {step: asdict(fit) for step, fit in self.fits.items()},
            "claims": [asdict(verdict) for verdict in self.claims],
            "all_passed": self.all_passed(),
        }


def _linear_fit(widths: list[int], counts: list[int]) -> tuple[float, float, float]:
    slope = (counts[1] - counts[0]) / (widths[1] - widths[0])
    intercept = counts[0] - slope * widths[0]
    residual = max(abs(c - (slope * w + intercept)) for w, c in zip(widths, counts))
    return slope, intercept, residual


def measure_scaling(algorithm: str, widths, seed: int = 0) -> ScalingReport:
    """Tally one seeded instance per width and judge each scaling claim.

    The varied width is the one the claims are about: the row register of
    a 2^w x 2 matrix for the row operations, both registers of a 2^w x 2^w
    matrix for trace and the column register of a 2 x 2^w matrix for
    transpose.  Circuits are only tallied, never simulated, so no width is
    limited by the simulator's qubit cap.  Each claim is judged by its
    step's fit (``StepFit.holds``); a claim on a step that no circuit
    tallies fails.
    """
    if algorithm not in CLAIMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {sorted(CLAIMS)}")
    widths = sorted({int(w) for w in widths})
    if len(widths) < 2:
        raise ValueError("need at least two distinct widths")
    if any(w < 1 or w > MAX_WIDTH for w in widths):
        raise ValueError(f"widths must lie in [1, {MAX_WIDTH}]")

    rng = np.random.default_rng(seed)
    tallies: list[GateTally] = []
    for width in widths:
        if algorithm in ("row-add", "row-swap"):
            # skip one complex 2^w x 2 matrix's worth of normals before each
            # (k, l), so a seed picks the same pairs as when every width was
            # simulated on a random matrix
            rng.standard_normal(4 << width)
            k, l = (int(v) for v in rng.choice(1 << width, size=2, replace=False))
            build = row_add_circuit if algorithm == "row-add" else row_swap_circuit
            circuit = build(width, 1, k, l)
        elif algorithm == "trace":
            circuit = trace_circuit(width)
        else:
            circuit = transpose_circuit(1, width)
        tallies.append(tally_gates(circuit.gates(), circuit.layout))

    step_labels: list[str] = []
    for tally in tallies:
        for label in tally.per_step:
            if label not in step_labels:
                step_labels.append(label)

    claimed_metric = {claim.step: claim.metric for claim in CLAIMS[algorithm]}
    fits: dict[str, StepFit] = {}
    for label in step_labels:
        metric = claimed_metric.get(label, "toffoli")
        counts = [getattr(t.per_step.get(label, GateCounts()), metric) for t in tallies]
        fits[label] = StepFit(metric, counts, *_linear_fit(widths, counts))

    verdicts: list[ClaimVerdict] = []
    for claim in CLAIMS[algorithm]:
        fit = fits.get(claim.step)
        # a claimed step that no circuit tallies has no counts to hold
        counts, passed = (fit.counts, fit.holds(claim.order)) if fit else ([], False)
        verdicts.append(
            ClaimVerdict(claim.step, claim.order, claim.metric, counts, passed, claim.note)
        )
    return ScalingReport(algorithm, widths, tallies, fits, verdicts)
