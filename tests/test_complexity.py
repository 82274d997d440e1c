import numpy as np
import pytest

from qmatops import CLAIMS, SCALING_WIDTHS, encode_matrix, measure_scaling
from qmatops import run_row_add, run_row_swap, run_trace
from qmatops import algorithms
from qmatops.algorithms import (
    row_add_circuit,
    row_swap_circuit,
    trace_circuit,
    transpose_circuit,
    transpose_square_circuit,
)
from qmatops.complexity import MAX_WIDTH, Claim
from qmatops.gates import ControlledOp, lower, tally_gates
from qmatops.oracle import controlled_op_image
from qmatops.verify import check_scaling_claims

# basis states run through each controlled op's netlist; half of them are
# forced into the projector's subspace, which random integers almost never meet
BIT_LEVEL_SAMPLES = 64


def counts_by_width(algorithm, widths, step, metric):
    report = measure_scaling(algorithm, widths=widths, seed=3)
    fit = report.fits[step]
    assert fit.metric == metric
    return tuple(fit.counts)


def test_all_algorithms_scaling_verdicts_hold():
    for algorithm, widths in SCALING_WIDTHS.items():
        report = measure_scaling(algorithm, widths=widths, seed=0)
        failures = [claim.step for claim in report.claims if not claim.passed]
        assert report.all_passed(), (algorithm, failures)


def test_row_add_count_sequences():
    widths = (2, 3, 4, 5)
    assert counts_by_width("row-add", widths, "step2-mark-source-branch", "toffoli") == (2, 4, 6, 8)
    assert counts_by_width("row-add", widths, "step3-mark-target-row", "toffoli") == (4, 6, 8, 10)
    assert counts_by_width("row-add", widths, "step5-mark-useful", "toffoli") == (2, 2, 2, 2)
    assert counts_by_width("row-add", widths, "step6-hadamard-mix", "single_qubit") == (2, 2, 2, 2)


def test_trace_count_sequences():
    widths = (1, 2, 3)
    assert counts_by_width("trace", widths, "step2-mark-diagonal", "toffoli") == (4, 8, 12)
    assert counts_by_width("trace", widths, "step3-mark-useful", "toffoli") == (0, 2, 4)
    assert counts_by_width("trace", widths, "step4-hadamard-sum", "single_qubit") == (3, 6, 9)
    assert counts_by_width("trace", widths, "step5-remark-useful", "toffoli") == (6, 12, 18)


def test_transpose_swap_counts_track_width():
    widths = (1, 2, 3, 4)
    report = measure_scaling("transpose", widths=widths, seed=1)
    assert report.fits["step2-swap-registers"].counts == list(widths)
    for tally in report.tallies:
        assert tally.total.toffoli == 0
        assert tally.total.cnot == 0


def test_row_swap_cswap_groups_share_slope():
    report = measure_scaling("row-swap", widths=(2, 3, 4), seed=2)
    via_c2 = report.fits["step4-cswap-via-c2"]
    via_r2 = report.fits["step4-cswap-via-r2"]
    assert via_c2.metric == via_r2.metric == "toffoli"
    assert via_c2.slope == via_r2.slope == 2.0
    assert via_c2.max_residual == via_r2.max_residual == 0.0


def test_claims_cover_measured_steps():
    for algorithm, widths in SCALING_WIDTHS.items():
        report = measure_scaling(algorithm, widths=widths[:2], seed=4)
        claimed = {claim.step for claim in CLAIMS[algorithm]}
        assert {verdict.step for verdict in report.claims} == claimed
        assert claimed <= set(report.fits)
        for verdict in report.claims:
            assert verdict.counts == report.fits[verdict.step].counts


def test_claim_on_a_step_no_circuit_tallies_fails(monkeypatch):
    # all-zero counts at every width must not pass as O(1)
    extra = Claim("step9-no-such-step", "O(1)", "toffoli")
    monkeypatch.setitem(CLAIMS, "trace", (*CLAIMS["trace"], extra))
    report = measure_scaling("trace", widths=SCALING_WIDTHS["trace"], seed=0)
    assert report.claims[-1].step == extra.step
    assert report.claims[-1].passed is False
    assert not report.all_passed()
    assert all(verdict.passed for verdict in report.claims[:-1])
    result = check_scaling_claims(seed=0)
    assert not result.passed
    assert "trace:step9-no-such-step" in result.detail


def test_counts_are_data_independent():
    rng = np.random.default_rng(5)
    tallies = []
    for _ in range(2):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        report = run_row_swap(encode_matrix(raw), 1, 2)
        tallies.append(report.gate_tally.to_dict())
    assert tallies[0] == tallies[1]
    add_counts = [
        run_row_add(encode_matrix(np.eye(4) + idx), 0, 3).gate_tally.to_dict()
        for idx in range(2)
    ]
    assert add_counts[0] == add_counts[1]


def test_trace_tally_matches_direct_run():
    report = measure_scaling("trace", widths=(1, 2), seed=6)
    direct = run_trace(encode_matrix(np.eye(4))).gate_tally
    for label, fit in report.fits.items():
        if fit.metric == "toffoli" and label in direct.per_step:
            assert fit.counts[1] == direct.per_step[label].toffoli


def test_measure_scaling_rejects_bad_widths():
    with pytest.raises(ValueError):
        measure_scaling("trace", widths=(2,), seed=0)
    with pytest.raises(ValueError):
        measure_scaling("trace", widths=(2, 2), seed=0)
    with pytest.raises(ValueError):
        measure_scaling("trace", widths=(0, 1), seed=0)
    with pytest.raises(ValueError):
        measure_scaling("no-such-algorithm", widths=(1, 2), seed=0)


def test_scaling_report_serializes():
    report = measure_scaling("row-add", widths=(2, 3), seed=7)
    document = report.to_dict()
    assert document["algorithm"] == "row-add"
    assert document["all_passed"] is True
    assert {entry["step"] for entry in document["claims"]} == {
        claim.step for claim in CLAIMS["row-add"]
    }
    for fit in document["fits"].values():
        assert len(fit["counts"]) == 2


def test_scaling_tallies_every_width_without_simulating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("measure_scaling allocated a state")

    monkeypatch.setattr(algorithms, "prepare_product_state", refuse)
    for algorithm in CLAIMS:
        report = measure_scaling(algorithm, widths=range(1, MAX_WIDTH + 1), seed=0)
        assert report.all_passed(), algorithm
    # 29 qubits, beyond what the simulator may allocate
    assert measure_scaling("trace", widths=[2, 9], seed=0).all_passed()


def test_trace_tally_past_the_old_control_cap():
    # n = 8 is the widest simulable trace (26 qubits); step 5 has 3n+1 controls
    circuit = trace_circuit(8)
    tally = tally_gates(circuit.gates(), circuit.layout)
    assert tally.per_step["step5-remark-useful"].toffoli == 48


@pytest.mark.parametrize("width", range(1, MAX_WIDTH + 1))
def test_lowered_circuits_run_bit_for_bit_like_the_oracle(width):
    """Every circuit that measure_scaling tallies at this width, plus the
    square transpose, run as Toffoli netlists on seeded basis integers."""
    rng = np.random.default_rng(width)
    k, l = (int(v) for v in rng.choice(1 << width, size=2, replace=False))
    circuits = [
        row_add_circuit(width, 1, k, l),
        row_swap_circuit(width, 1, k, l),
        trace_circuit(width),
        transpose_circuit(1, width),
        transpose_square_circuit(width),
    ]
    for circuit in circuits:
        layout = circuit.layout
        for label, gate in circuit.gates():
            if not isinstance(gate, ControlledOp):
                continue
            netlist = lower(gate, layout)
            image = controlled_op_image(gate, layout)
            mask, bits = gate.projector.resolve(layout)
            moved = 0
            for sample in range(BIT_LEVEL_SAMPLES):
                source = int(rng.integers(layout.size))
                if sample % 2:
                    source = source & ~mask | bits
                expected = image(source)
                moved += expected != source
                # the oracle's image lies inside the layout, so equality
                # also means every work qubit came back to 0
                assert netlist.apply_to_basis(source) == expected, (label, gate, source)
            assert moved, (label, gate)
