import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmatops import (
    ControlledOp,
    FlipQubit,
    HadamardLayer,
    Projector,
    RegisterLayout,
    StateVector,
    encode_matrix,
    oracle_row_add,
    oracle_row_swap,
    oracle_trace,
    oracle_transpose,
    post_select,
    prepare_product_state,
    run_row_add,
    run_row_swap,
    run_trace,
    run_transpose,
    run_transpose_square,
)
from qmatops import algorithms
from qmatops import gates as gates_module
from qmatops.algorithms import (
    row_add_circuit,
    row_swap_circuit,
    trace_circuit,
    transpose_circuit,
    transpose_square_circuit,
)
from qmatops import state as state_module
from qmatops.state import DENSE_SHARE, EncodedMatrix, SparseBuffer, occupied_states, qubit_index, qubit_view
from qmatops.golden import (
    GOLDEN_FROBENIUS_SCALE,
    GOLDEN_K,
    GOLDEN_L,
    GOLDEN_MATRIX,
    expected_branches,
    golden_swapped,
)

INV_SQRT2 = 1 / math.sqrt(2)
TOL = 1e-10


def random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- post-selection --------------------------------------------------------

def test_post_select_basis_state():
    layout = RegisterLayout((("A", 1), ("B", 1)))
    state = prepare_product_state(layout, ())
    hit = post_select(state, {"A": 0, "B": 0})
    assert hit.probability == 1.0
    miss = post_select(state, {"A": 1})
    assert miss.probability == 0.0
    assert miss.renormalized_state is None


def test_post_select_renormalizes():
    layout = RegisterLayout((("A", 1), ("B", 1)))
    state = StateVector(layout, np.array([0.5, 0.5, 0.5, 0.5]))
    selected = post_select(state, {"A": 0})
    assert abs(selected.probability - 0.5) < 1e-14
    assert abs(selected.renormalized_state.norm_squared - 1.0) < 1e-12
    assert selected.renormalized_state.amplitude({"A": 1, "B": 0}) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_post_select_probabilities_are_complete(seed):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((("X", 2), ("Y", 2)))
    raw = random_matrix(rng, layout.size)
    state = StateVector(layout, raw / np.linalg.norm(raw))
    total = sum(post_select(state, {"Y": y}).probability for y in range(4))
    assert abs(total - 1.0) < 1e-12


def test_post_select_rejects_unknown_register():
    layout = RegisterLayout((("A", 1),))
    state = prepare_product_state(layout, ())
    with pytest.raises(ValueError):
        post_select(state, {"Z": 0})


# --- row addition ------------------------------------------------------------

def test_row_add_identity_example():
    report = run_row_add(encode_matrix(np.eye(2)), 0, 1)
    assert abs(report.predicted_probability - 3 / 16) < TOL
    assert abs(report.success_probability - 3 / 16) < TOL
    expected = np.array([[INV_SQRT2, 0], [INV_SQRT2, INV_SQRT2]]) / report.normalization
    np.testing.assert_allclose(report.output_matrix, expected, atol=TOL)


def test_row_add_cancelling_rows():
    report = run_row_add(encode_matrix([[1.0, 0.0], [-1.0, 0.0]]), 0, 1)
    assert abs(report.success_probability - 1 / 16) < TOL
    assert abs(report.normalization - INV_SQRT2) < TOL


def test_row_add_zero_source_row():
    report = run_row_add(encode_matrix([[0.0, 0.0], [3.0, 4.0]]), 0, 1)
    assert abs(report.success_probability - 1 / 8) < TOL
    assert abs(report.normalization - 1.0) < TOL
    encoded = encode_matrix([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(report.output_matrix, encoded.entries, atol=TOL)


def test_row_add_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(10)
    for rows, cols in ((2, 2), (4, 2), (4, 8), (8, 4)):
        encoded = encode_matrix(random_matrix(rng, (rows, cols)))
        k = int(rng.integers(rows))
        l = (k + 1 + int(rng.integers(rows - 1))) % rows
        reference = oracle_row_add(encoded.entries, k, l)
        report = run_row_add(encoded, k, l)
        assert abs(report.success_probability - reference.predicted_probability) < TOL
        np.testing.assert_allclose(
            report.output_matrix * report.normalization,
            np.array(reference.matrix),
            atol=TOL,
        )


@pytest.mark.parametrize("runner", [run_row_add, run_row_swap])
def test_a_non_integer_row_index_is_refused_before_the_builder(runner):
    # 1.0 == True == 1, so a builder that kept a circuit built with k = 1.0
    # would hand it to every later call with k = 1
    encoded = encode_matrix(random_matrix(np.random.default_rng(47), (4, 4)))
    for k, l, name in ((1.0, 2, "k"), (True, 2, "k"), (None, 2, "k"), (1, 2.0, "l"), (1, np.bool_(True), "l")):
        with pytest.raises(ValueError, match=f"row index {name} must be an integer"):
            runner(encoded, k, l)
    with pytest.raises(ValueError, match="row index k must be an integer"):
        state_module.AncillaVector("row-add", 1.0, 2, 2)
    oracle = oracle_row_add if runner is run_row_add else oracle_row_swap
    reference = np.array(oracle(encoded.entries, 1, 2).matrix)
    for k in (1, np.int64(1)):
        report = runner(encoded, k, 2)
        np.testing.assert_allclose(report.output_matrix * (report.normalization or 1.0), reference, atol=TOL)


def test_row_add_report_invariant():
    report = run_row_add(encode_matrix(GOLDEN_MATRIX), 2, 0)
    assert abs(report.success_probability - report.predicted_probability) < TOL
    assert report.output_unpadded_shape == (4, 4)


def test_row_ops_reject_equal_or_out_of_range_rows():
    encoded = encode_matrix(np.eye(4))
    for runner in (run_row_add, run_row_swap):
        with pytest.raises(ValueError):
            runner(encoded, 1, 1)
        with pytest.raises(ValueError):
            runner(encoded, 0, 4)
        with pytest.raises(ValueError):
            runner(encoded, -1, 0)


# --- row swapping -------------------------------------------------------------

def test_row_swap_probability_is_input_independent():
    rng = np.random.default_rng(11)
    for rows in (2, 4, 8):
        encoded = encode_matrix(random_matrix(rng, (rows, 4)))
        report = run_row_swap(encoded, 0, rows - 1)
        assert abs(report.success_probability - 1 / 24) < TOL


def test_row_swap_output_matches_oracle():
    rng = np.random.default_rng(12)
    encoded = encode_matrix(random_matrix(rng, (8, 2)))
    reference = oracle_row_swap(encoded.entries, 5, 2)
    report = run_row_swap(encoded, 5, 2)
    np.testing.assert_allclose(report.output_matrix, np.array(reference.matrix), atol=TOL)


def test_row_swap_twice_restores_input():
    rng = np.random.default_rng(13)
    encoded = encode_matrix(random_matrix(rng, (4, 4)))
    once = run_row_swap(encoded, 3, 0).output_matrix
    # the decoded output is unit-norm, so it re-encodes without rescaling
    twice = run_row_swap(encode_matrix(once), 3, 0).output_matrix
    np.testing.assert_allclose(twice, encoded.entries, atol=TOL)


def test_golden_walkthrough_branches():
    encoded = encode_matrix(GOLDEN_MATRIX)
    assert abs(encoded.frobenius_scale - GOLDEN_FROBENIUS_SCALE) < 1e-15
    report = run_row_swap(encoded, GOLDEN_K, GOLDEN_L, record_steps=True)
    states = {record.label: record.state for record in report.step_states}
    assert set(states) == {f"phi_{t}" for t in range(7)}
    for label, branches in expected_branches().items():
        state = states[label]
        for assignment, expected in branches:
            assert abs(state.amplitude(assignment) - expected) < TOL, (label, assignment)
    for record in report.step_states[:-1]:
        assert abs(record.norm_squared - 1.0) < 1e-12


def test_golden_walkthrough_output_and_probability():
    encoded = encode_matrix(GOLDEN_MATRIX)
    report = run_row_swap(encoded, GOLDEN_K, GOLDEN_L)
    assert abs(report.success_probability - 1 / 24) < TOL
    swapped = np.array(golden_swapped()) / GOLDEN_FROBENIUS_SCALE
    np.testing.assert_allclose(report.output_matrix, swapped, atol=TOL)


# --- trace -----------------------------------------------------------------

def test_trace_identity_example():
    report = run_trace(encode_matrix(np.eye(2)))
    # normalized identity has diagonal 1/sqrt(2) twice: trace sqrt(2), n=1
    assert abs(report.predicted_probability - 2 / 8) < TOL
    assert abs(report.success_probability - 2 / 8) < TOL
    assert abs(report.recovered_trace - math.sqrt(2)) < TOL


def test_trace_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(14)
    # a 3x3 matrix runs padded to 4x4
    for dim in (2, 4, 3):
        encoded = encode_matrix(random_matrix(rng, (dim, dim)))
        reference = oracle_trace(encoded.entries)
        report = run_trace(encoded)
        assert abs(report.success_probability - reference.predicted_probability) < TOL
        assert abs(report.recovered_trace - reference.scalar) < TOL


def test_trace_exactly_traceless_is_exactly_zero():
    report = run_trace(encode_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert report.success_probability == 0.0
    assert report.recovered_trace == 0.0
    assert report.output_matrix is None


@pytest.mark.parametrize("dropped", range(4))
def test_trace_marking_check_catches_a_dropped_flip(monkeypatch, dropped):
    build = algorithms.trace_circuit

    def without_one_flip(n):
        circuit = build(n)
        (label, marks), *rest = circuit.steps
        return dataclasses.replace(circuit, steps=((label, marks[:dropped] + marks[dropped + 1 :]), *rest))

    monkeypatch.setattr(algorithms, "trace_circuit", without_one_flip)
    matrix = np.random.default_rng(31).standard_normal((4, 4))
    with pytest.raises(RuntimeError, match="diagonal marking"):
        run_trace(encode_matrix(matrix))


def test_trace_rejects_non_square():
    # a 3x4 or 4x3 matrix pads to a square 4x4 one, but has no trace
    for shape in ((4, 2), (3, 4), (4, 3)):
        with pytest.raises(ValueError, match="trace needs a square matrix"):
            run_trace(encode_matrix(np.ones(shape)))


def test_trace_refuses_non_square_padded_entries_before_preparation(monkeypatch):
    # a 3x3 matrix in a 4x8 zero padding, which EncodedMatrix accepts
    entries = np.zeros((4, 8), dtype=complex)
    entries[:3, :3] = np.eye(3) / math.sqrt(3)
    monkeypatch.setattr(algorithms, "prepare_product_state", None)
    with pytest.raises(ValueError, match="trace needs a square matrix"):
        run_trace(EncodedMatrix(entries, 3, 3, 1.0))


def test_every_sparse_run_prepares_one_sparse_buffer(monkeypatch):
    # a run planned sparse stays sparse, also when it reads an exact-zero
    # part, as a traceless trace does: the sign of that part comes from the
    # dense run's light cone, not from a second, dense run
    kinds = []
    plain = algorithms.prepare_product_state

    def noted(layout, parts, sparse=False):
        state = plain(layout, parts, sparse=sparse)
        kinds.append(type(state).__name__)
        return state

    monkeypatch.setattr(algorithms, "prepare_product_state", noted)
    real = random_matrix(np.random.default_rng(25), (16, 16)).real
    traceless = real.copy()
    np.fill_diagonal(traceless, 0.0)
    traceless[0, 0], traceless[1, 1] = 1.0, -1.0
    complex_traceless = random_matrix(np.random.default_rng(27), (16, 16))
    np.fill_diagonal(complex_traceless, 0.0)
    # a complex matrix of 12 or 24 rows decodes its padding to exact zeros
    padded = random_matrix(np.random.default_rng(26), (24, 32))
    cases = [
        (run_trace, real),
        (run_trace, np.ones((16, 16)) - np.eye(16)),
        (run_trace, traceless),
        (run_trace, complex_traceless),
        (lambda m: run_row_add(m, 0, 1), padded[:12, :16]),
        (lambda m: run_row_swap(m, 0, 1), padded[:12, :8]),
        (run_transpose, padded),
    ]
    for runner, matrix in cases:
        kinds.clear()
        runner(encode_matrix(matrix))
        assert kinds == ["SparseBuffer"]


@pytest.mark.parametrize(
    "real, imag",
    [
        # -0.0 real parts: the dense trace's real part reads -0.0
        ([[-0.0, -0.0], [-0.0, -0.0]], [[0.0, 0.0], [0.0, 1.0]]),
        ([[-0.0, -1.0], [-1.0, -0.0]], [[-0.0, -0.0], [-0.0, -0.0]]),
    ],
)
def test_sparse_trace_keeps_the_sign_of_a_zero_part(monkeypatch, real, imag):
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    matrix = hand_encoded(np.array(real) + 1j * np.array(imag))
    sparse, dense = run_trace(matrix), run_trace(matrix, record_steps=True)
    assert np.complex128(sparse.recovered_trace).tobytes() == np.complex128(dense.recovered_trace).tobytes()
    assert sparse.success_probability.hex() == dense.success_probability.hex()


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["complex", "real", "negative-zero-diagonal"])
def test_sparse_traceless_trace_is_bitwise_the_recorded_one(monkeypatch, n, kind):
    # a traceless matrix's trace amplitude is an exact zero, whose signs the
    # sparse run reads off the light cone of the dense run
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    rng = np.random.default_rng(60 + n)
    matrix = random_matrix(rng, (1 << n, 1 << n))
    if kind == "real":
        matrix = matrix.real.astype(complex)
    np.fill_diagonal(matrix, complex(-0.0, -0.0) if kind == "negative-zero-diagonal" else 0.0)
    encoded = hand_encoded(matrix)
    sparse, dense = run_trace(encoded), run_trace(encoded, record_steps=True)
    assert isinstance(sparse.post_selection.state, SparseBuffer)
    assert sparse.recovered_trace == 0
    assert_reports_bitwise(sparse, dense)


@pytest.mark.parametrize("routine", ["row-add", "row-swap", "trace", "transpose"])
def test_a_read_takes_from_the_light_cone_only_zero_parts_its_inputs_leave_unsure(monkeypatch, routine):
    # every imaginary part of a real input is +0.0 on both paths, and every
    # zero part of a non-negative one; so at the wide shapes only a real
    # signed input with an exact-zero real part among its reads, as a
    # traceless trace's, evaluates a light cone
    runner, shape = SPARSE_ROUTINES[routine]
    made, evaluated = [], []
    plain = algorithms.LightCone

    def noted(values, tables):
        def noted_values(at):
            evaluated.append(len(at))
            return values(at)

        made.append(len(tables))
        return plain(noted_values, tables)

    monkeypatch.setattr(algorithms, "LightCone", noted)
    rng = np.random.default_rng(61)
    signed = rng.standard_normal(shape)
    cases = [(signed, []), (np.abs(signed), []), (random_matrix(rng, shape), [])]
    if routine == "trace":
        traceless = signed.copy()
        np.fill_diagonal(traceless, 0.0)
        traceless[0, 0], traceless[1, 1] = 1.0, -1.0
        cases.append((traceless, [1]))
    for matrix, expected in cases:
        made.clear(), evaluated.clear()
        runner(encode_matrix(matrix))
        assert len(made) == 1
        assert evaluated == expected


@pytest.mark.parametrize(
    "routine, shape",
    [(routine, shape) for routine in ("row-add", "row-swap", "trace", "transpose") for shape in ((4, 4), (8, 8), (4, 8))
     if routine != "trace" or shape[0] == shape[1]],
)
@pytest.mark.parametrize("kind", ["signed", "non-negative"])
def test_real_reports_with_signed_zeros_are_bitwise_the_recorded_ones(monkeypatch, routine, shape, kind):
    # a real input's zero parts that its reads take from the support, not
    # from the light cone, are the dense run's: with -0.0 entries, which
    # encode_matrix would turn into +0.0, negative ones and a zero row
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    runner, _ = SPARSE_ROUTINES[routine]
    rng = np.random.default_rng(sum(shape))
    matrix = rng.standard_normal(shape)
    matrix[rng.random(shape) < 0.3] = -0.0 if kind == "signed" else 0.0
    matrix[1] = 0.0
    if kind == "non-negative":
        matrix = np.abs(matrix)
    encoded = hand_encoded(matrix)
    assert_reports_bitwise(runner(encoded), runner(encoded, record_steps=True))


def hand_encoded(matrix):
    """``matrix`` as an EncodedMatrix that keeps the signs of its zero parts,
    which encode_matrix's complex division would not."""
    matrix = np.asarray(matrix, dtype=complex)
    rows, cols = matrix.shape
    norm = float(np.linalg.norm(matrix))
    entries = np.zeros((1 << max(1, (rows - 1).bit_length()), 1 << max(1, (cols - 1).bit_length())), dtype=complex)
    entries.real[:rows, :cols] = np.divide(matrix.real, norm)
    entries.imag[:rows, :cols] = np.divide(matrix.imag, norm)
    return EncodedMatrix(entries, rows, cols, 1.0)


def test_trace_scale_restoration():
    matrix = 5.0 * np.eye(4)
    encoded = encode_matrix(matrix)
    report = run_trace(encoded)
    restored = report.recovered_trace * encoded.frobenius_scale
    assert abs(restored - 20.0) < 1e-9


# --- transpose ---------------------------------------------------------------

def test_transpose_rectangular_exact():
    rng = np.random.default_rng(15)
    encoded = encode_matrix(random_matrix(rng, (4, 2)))
    reference = oracle_transpose(encoded.entries)
    report = run_transpose(encoded)
    assert report.success_probability == 1.0
    assert report.output_matrix.shape == (2, 4)
    assert np.array_equal(report.output_matrix, np.array(reference.matrix))


@pytest.mark.parametrize("magnitude", [1e200, 1e-170])
def test_transpose_exact_at_extreme_magnitudes(magnitude):
    rng = np.random.default_rng(18)
    encoded = encode_matrix(random_matrix(rng, (4, 2)) * magnitude)
    report = run_transpose(encoded)
    assert report.success_probability == 1.0
    assert np.array_equal(report.output_matrix, np.array(oracle_transpose(encoded.entries).matrix))


def test_transpose_symmetric_fixed_point():
    matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
    encoded = encode_matrix(matrix)
    report = run_transpose(encoded)
    np.testing.assert_array_equal(report.output_matrix, encoded.entries)


def test_transpose_square_variant_agrees_after_unpadding():
    rng = np.random.default_rng(16)
    for shape in ((2, 8), (8, 2), (4, 4), (3, 5)):
        encoded = encode_matrix(random_matrix(rng, shape))
        main = run_transpose(encoded)
        square = run_transpose_square(encoded)
        assert np.array_equal(main.output_matrix, square.output_matrix)
        assert square.success_probability == 1.0
        assert main.output_unpadded_shape == square.output_unpadded_shape


def test_transpose_square_gate_count_uses_padded_side():
    encoded = encode_matrix(np.ones((2, 8)))
    report = run_transpose_square(encoded)
    assert report.gate_tally.total.swap == 3  # log2(max(2, 8))


def test_transpose_involution_through_decode():
    rng = np.random.default_rng(17)
    encoded = encode_matrix(random_matrix(rng, (4, 4)))
    once = run_transpose(encoded).output_matrix
    back = run_transpose(encode_matrix(once)).output_matrix
    np.testing.assert_allclose(back, encoded.entries, atol=1e-12)


# --- run report bookkeeping ---------------------------------------------------

def test_step_states_only_when_requested():
    encoded = encode_matrix(np.eye(2))
    assert run_row_add(encoded, 0, 1).step_states is None
    recorded = run_row_add(encoded, 0, 1, record_steps=True)
    labels = [record.label for record in recorded.step_states]
    assert labels == [f"phi_{t}" for t in range(7)]
    assert all(len(record.checksum) == 16 for record in recorded.step_states)


ROUTINES = {
    "row-add": (lambda m, **kw: run_row_add(m, 1, 2, **kw), (4, 4)),
    "row-swap": (lambda m, **kw: run_row_swap(m, 3, 0, **kw), (4, 2)),
    "trace": (run_trace, (4, 4)),
    "transpose": (run_transpose, (4, 2)),
    "transpose-square": (run_transpose_square, (2, 4)),
}


@pytest.mark.parametrize("record_steps", [False, True])
@pytest.mark.parametrize("routine", sorted(ROUTINES))
def test_runs_call_apply_gate_with_state_and_gate_only(monkeypatch, routine, record_steps):
    # perfbench/spans.py wraps algorithms.apply_gate with exactly this
    # signature, reading the layout and the state's bytes after each call:
    # 16 B per amplitude the state holds, every amplitude of a dense state
    # and at most DENSE_SHARE of them of a sparse one; these small layouts
    # run sparse only below the floor
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    calls = []
    plain = algorithms.apply_gate

    def probed(state, gate):
        result = plain(state, gate)
        sparse = isinstance(state, SparseBuffer)
        held = state.indices.size if sparse else state.amplitudes.size
        calls.append((sparse, held, state.layout.size, state.amplitudes.nbytes))
        return result

    monkeypatch.setattr(algorithms, "apply_gate", probed)
    runner, shape = ROUTINES[routine]
    encoded = encode_matrix(random_matrix(np.random.default_rng(19), shape))
    runner(encoded, record_steps=record_steps)
    assert calls
    for sparse, held, size, nbytes in calls:
        assert nbytes == 16 * held
        assert 0 < held <= DENSE_SHARE * size if sparse else held == size
    # recorded runs are dense; these unrecorded ones hold a support that is
    # at most an eighth of the layout until their mixing layer
    assert any(sparse for sparse, *_ in calls) == (not record_steps and routine in ("row-add", "row-swap", "trace"))


@pytest.mark.parametrize("routine", sorted(ROUTINES))
def test_step_snapshots_are_frozen_and_independent(routine):
    runner, shape = ROUTINES[routine]
    encoded = encode_matrix(random_matrix(np.random.default_rng(20), shape))
    records = runner(encoded, record_steps=True).step_states
    arrays = [record.state.amplitudes for record in records]
    for position, (record, amplitudes) in enumerate(zip(records, arrays)):
        assert not amplitudes.flags.writeable
        assert record.state.checksum() == record.checksum
        for other in arrays[position + 1 :]:
            assert not np.shares_memory(amplitudes, other)


PEAK_MEMORY_RUNS = pytest.mark.parametrize(
    "runner, shape, qubits",
    [
        (lambda m: run_row_add(m, 3, 17), (32, 128), 20),
        (lambda m: run_row_swap(m, 3, 5), (8, 128), 20),
        (run_trace, (64, 64), 20),
        (run_transpose, (64, 128), 20),
    ],
    ids=["row-add", "row-swap", "trace", "transpose"],
)


@PEAK_MEMORY_RUNS
def test_run_peak_memory_is_one_state_and_one_subspace(runner, shape, qubits):
    # these runs hold their support, never the 16 MiB dense state, and
    # preparation, post-selection and decode add nothing the state's size;
    # the dense variant below checks the gates' scratch
    encoded = encode_matrix(random_matrix(np.random.default_rng(21), shape))
    tracemalloc.start()
    try:
        runner(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (16 << qubits)


@PEAK_MEMORY_RUNS
def test_dense_run_peak_memory_is_one_state_and_one_subspace(monkeypatch, runner, shape, qubits):
    # the same runs held dense: the state and fixed-size working arrays only.
    # Gates change the state box by box through a bounded scratch, and
    # preparation, post-selection and decode add nothing the state's size.
    # The largest fixed arrays, preparation's block products (up to 384 KiB)
    # and a Hadamard layer's scratch (192 KiB), are under 3% of these 16 MiB
    # states
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 1 << 30)
    kinds = set()
    plain = algorithms.apply_gate

    def noted(state, gate):
        kinds.add(type(state).__name__)
        return plain(state, gate)

    monkeypatch.setattr(algorithms, "apply_gate", noted)
    encoded = encode_matrix(random_matrix(np.random.default_rng(21), shape))
    tracemalloc.start()
    try:
        runner(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kinds == {"StateBuffer"}
    assert peak <= 1.1 * (16 << qubits)


def test_square_transpose_square_is_not_copied_into_a_padded_square():
    # a 1024x1024 input is already square: at 20 qubits the run holds its
    # 16 MiB state and the 16 MiB decoded output, and no padded copy of the
    # input, which would make it 3x the state
    encoded = encode_matrix(random_matrix(np.random.default_rng(22), (1024, 1024)))
    tracemalloc.start()
    try:
        report = run_transpose_square(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (16 << 20)
    np.testing.assert_array_equal(report.output_matrix, encoded.entries.T)
    assert report.success_probability == 1.0


def test_unrecorded_row_add_holds_only_its_support():
    # 21 qubits, a 32 MiB dense state; the run holds at most 32768 amplitudes
    encoded = encode_matrix(random_matrix(np.random.default_rng(24), (64, 64)))
    run_row_add(encoded, 3, 17)
    tracemalloc.start()
    try:
        run_row_add(encoded, 3, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * (16 << 21)


def test_sparse_final_state_lists_the_occupied_states_of_its_dense_form(monkeypatch):
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(25), (16, 16)))
    state = run_row_add(encoded, 1, 2).post_selection.state
    assert isinstance(state, SparseBuffer)
    dense = state.densify()
    for cap in (None, 5):
        values, listed = occupied_states(state, cap)
        dense_values, dense_listed = occupied_states(dense, cap)
        assert list(values) == list(dense_values)
        for name in values:
            np.testing.assert_array_equal(values[name], dense_values[name])
        assert listed.tobytes() == dense_listed.tobytes()


# --- sparse runs against dense runs ---------------------------------------------
# An unrecorded run holds its support; a recorded run is dense throughout, so
# the two reports of one input compare the sparse path with the dense one.

def _with_rows(runner):
    return lambda matrix, **kw: runner(matrix, matrix.original_rows - 1, 0, **kw)


SPARSE_ROUTINES = {
    "row-add": (_with_rows(run_row_add), (64, 64)),
    "row-swap": (_with_rows(run_row_swap), (16, 32)),
    "trace": (run_trace, (64, 64)),
    "transpose": (run_transpose, (128, 128)),
    "transpose-square": (run_transpose_square, (64, 64)),
}
SUITE_SHAPES = [(n, n) for n in range(2, 9)] + [(3, 5), (5, 3), (6, 2)]


def awkward_matrix(rng, shape, variant):
    """A complex matrix with -0.0 real and imaginary parts, exact zeros and a
    zero row; "traceless" puts signed zeros on the diagonal and "cancelling"
    a diagonal whose sum is exactly zero.  "negative" has a -0.0 diagonal
    and negative real parts elsewhere, so its dense trace reads -0.0, a
    sign that no sparse stage holds.  "real" and "real-traceless" are real
    matrices with -0.0 entries, and "non-negative" a real matrix with no
    sign bit set, whose zero parts no read takes from the light cone."""
    if variant == "negative":
        matrix = np.empty(shape, dtype=complex)
        matrix.real = -(rng.random(shape) + 0.5)
        matrix.imag = -0.0
        np.fill_diagonal(matrix, complex(-0.0, -0.0))
        return matrix
    if variant == "non-negative":
        matrix = np.abs(rng.standard_normal(shape))
        matrix[rng.random(shape) < 0.3] = 0.0
        matrix[shape[0] - 1] = 0.0
        matrix[0, 0] = 1.0
        return matrix
    if variant in ("real", "real-traceless"):
        matrix = rng.standard_normal(shape)
        matrix[rng.random(shape) < 0.3] = -0.0
        matrix[shape[0] - 1] = 0.0
        matrix[0, 0] = 1.0
        if variant == "real-traceless":
            np.fill_diagonal(matrix, -0.0)
            matrix[0, 1] = -1.0
        return matrix
    matrix = random_matrix(rng, shape)
    picked = rng.random(shape)
    matrix[picked < 0.3] = complex(-0.0, -0.0)
    matrix[(picked >= 0.3) & (picked < 0.4)] = complex(0.0, -0.0)
    matrix[(picked >= 0.4) & (picked < 0.5)] = -1.0
    matrix[shape[0] - 1] = 0.0
    matrix[0, 0] = 1.0
    if variant == "traceless":
        np.fill_diagonal(matrix, complex(-0.0, -0.0))
    elif variant == "cancelling":
        np.fill_diagonal(matrix, 0.0)
        matrix[0, 0], matrix[1, 1] = 0.5 - 0.25j, -0.5 + 0.25j
    return matrix


def _sparse_cases():
    cases = []
    for routine, (_, wide) in sorted(SPARSE_ROUTINES.items()):
        for shape in [*SUITE_SHAPES, wide]:
            square = shape[0] == shape[1]
            if routine == "trace" and not square:
                continue
            variants = ["plain", "real", "non-negative"]
            if square and shape != wide:
                variants += ["traceless", "cancelling", "negative", "real-traceless"]
            cases += [pytest.param(routine, shape, v, id=f"{routine}-{shape[0]}x{shape[1]}-{v}") for v in variants]
    return cases


@pytest.mark.parametrize("routine, shape, variant", _sparse_cases())
def test_sparse_reports_are_bitwise_the_dense_reports(monkeypatch, routine, shape, variant):
    # the suite's small shapes run sparse only below the floor
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    runner, _ = SPARSE_ROUTINES[routine]
    encoded = encode_matrix(awkward_matrix(np.random.default_rng(sum(shape)), shape, variant))
    dense = runner(encoded, record_steps=True)
    kinds = set()
    plain = algorithms.apply_gate

    def noted(state, gate):
        kinds.add(type(state).__name__)
        return plain(state, gate)

    monkeypatch.setattr(algorithms, "apply_gate", noted)
    sparse = runner(encoded)
    # a wide run stays sparse to the end, unless its support is its whole
    # state from the start: a mixing layer computes only what is read of it
    if shape == SPARSE_ROUTINES[routine][1]:
        assert kinds == ({"StateBuffer"} if routine == "transpose-square" else {"SparseBuffer"})
    assert_reports_bitwise(sparse, dense)


@pytest.mark.parametrize("routine, shape, variant", _sparse_cases())
def test_replayed_sparse_reports_are_bitwise_the_dense_reports(monkeypatch, routine, shape, variant):
    # runs with the same circuit arguments share one index plan: the second
    # run keeps the index halves it works out and the third replays them,
    # working none out; both on another matrix than the first, and trace
    # still checks its marking and reads its amplitude on each
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    runner, _ = SPARSE_ROUTINES[routine]
    first = encode_matrix(awkward_matrix(np.random.default_rng(sum(shape) + 1), shape, "plain"))
    encoded = encode_matrix(awkward_matrix(np.random.default_rng(sum(shape)), shape, variant))
    dense = runner(encoded, record_steps=True)
    runner(first)
    worked_out, checked, kinds = [], [], set()
    plain_step, plain_check, plain_apply = algorithms.sparse_step, algorithms.supported_on, algorithms.apply_gate

    def noted_step(*args, **kwargs):
        worked_out.append(args[2])
        return plain_step(*args, **kwargs)

    def noted_check(*args):
        checked.append(True)
        return plain_check(*args)

    def noted_apply(state, gate):
        kinds.add(type(state).__name__)
        return plain_apply(state, gate)

    monkeypatch.setattr(algorithms, "sparse_step", noted_step)
    monkeypatch.setattr(gates_module, "sparse_step", noted_step)
    monkeypatch.setattr(algorithms, "supported_on", noted_check)
    monkeypatch.setattr(algorithms, "apply_gate", noted_apply)
    for run in ("second", "third"):
        worked_out.clear(), checked.clear(), kinds.clear()
        replayed = runner(encoded)
        if run == "third":
            assert worked_out == []
        if shape == SPARSE_ROUTINES[routine][1]:
            assert kinds == ({"StateBuffer"} if routine == "transpose-square" else {"SparseBuffer"})
        # once: a run is never done again
        assert len(checked) == (routine == "trace")
        assert_reports_bitwise(replayed, dense)


def _builders_and_arguments(count):
    """Each builder with ``count`` distinct argument tuples."""
    pairs = [(k, l) for k in range(8) for l in range(8) if k != l][:count]
    return {
        "row_add_circuit": [(3, 2, k, l) for k, l in pairs],
        "row_swap_circuit": [(3, 1, k, l) for k, l in pairs],
        "trace_circuit": [(n,) for n in range(1, count + 1)],
        "transpose_circuit": [(n, 3) for n in range(1, count + 1)],
        "transpose_square_circuit": [(n,) for n in range(1, count + 1)],
    }


@pytest.mark.parametrize("name", sorted(_builders_and_arguments(1)))
def test_each_builder_holds_only_the_circuit_it_built_last(name):
    builder = getattr(algorithms, name)
    held = []
    for arguments in _builders_and_arguments(12)[name]:
        circuit = builder(*arguments)
        assert builder(*arguments) is circuit
        held.append(weakref.ref(circuit))
        del circuit
    gc.collect()
    assert [ref() is not None for ref in held] == [False] * 11 + [True]


def test_runs_over_fresh_row_pairs_hold_one_plan_per_builder(monkeypatch):
    # every row pair of a shape replays the plan of the builder's canonical
    # circuit, which is held apart from the circuit it built last; of the
    # pairs' circuits, each with its pair's own memo, only the last stays
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(44), (8, 4)))
    for runner, build in ((run_row_add, row_add_circuit), (run_row_swap, row_swap_circuit)):
        circuits, plans = [], []
        for k, l in [(k, l) for k in range(8) for l in range(8) if k != l]:
            report = runner(encoded, k, l)
            circuit = build(3, 2, k, l)
            assert report.gate_tally is circuit.tally
            plan, rows = algorithms._plan_run(circuit, False)
            assert rows is circuit._rows
            circuits.append(weakref.ref(circuit))
            plans.append(weakref.ref(plan))
            del report, circuit, plan, rows
        gc.collect()
        assert sum(ref() is not None for ref in circuits) == 1 and circuits[-1]() is not None
        assert plans[0]() is not None and all(ref() is plans[0]() for ref in plans)


def test_a_kept_plan_hands_a_caller_only_read_only_arrays(monkeypatch):
    # a report's final state holds the plan's support and read-out halves,
    # which the circuit's later runs share
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(46), (8, 8)))
    for _ in range(3):
        state = run_row_add(encoded, 1, 2).post_selection.state
    assert isinstance(state, SparseBuffer) and not state.indices.flags.writeable

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        return [a for item in value for a in arrays(item)] if isinstance(value, tuple) else []

    held = arrays(tuple(state.readouts.values()))
    assert held and not any(a.flags.writeable for a in held)
    with pytest.raises(TypeError):
        state.readouts[None] = None


PLANNED_BUILDERS = {
    "row-add": row_add_circuit,
    "row-swap": row_swap_circuit,
    "trace": trace_circuit,
    "transpose": transpose_circuit,
}


CANONICAL_BUILDERS = {"row-add": algorithms._canonical_row_add, "row-swap": algorithms._canonical_row_swap}


@pytest.mark.parametrize("routine", sorted(PLANNED_BUILDERS))
def test_a_plan_keeps_what_its_circuits_second_run_works_out(monkeypatch, routine):
    # A circuit's first run keeps no index half, as most circuits run once (a
    # fresh row pair) and a kept half outlives its run.  A copy that kept the
    # halves from the first run made fresh-row-pair runs of the benchmark's
    # `wide` workload slower (6 alternating process pairs of 200 cycles on a
    # 2-core Xeon): row-add 64x64 from 1.26-1.44 to 1.55-1.70 ms, transpose
    # 128x128 from 0.38-0.44 to 0.66-0.74 ms, from when arrays are freed, not
    # from the arithmetic.  The second run keeps every half it works out:
    # the support, each gate's and each read's; the third works none out.
    # A row pair keeps its support and gates' halves in the plan of its
    # shape's canonical circuit, and its mapped-back support and reads'
    # halves in its own memo
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    runner, _ = SPARSE_ROUTINES[routine]
    plans, worked_out, asked = [], [], []
    plain_plan, plain_support = algorithms._plan_run, algorithms.prepared_support
    plain_step, plain_half = algorithms.sparse_step, state_module._index_half

    def noted_plan(*args):
        plans.append(plain_plan(*args))
        return plans[-1]

    def noted_support(*args):
        worked_out.append("support")
        return plain_support(*args)

    def noted_step(*args, **kwargs):
        worked_out.append(args[2])
        return plain_step(*args, **kwargs)

    def noted_half(state, build, *args):
        asked.append(((build, *args), (build, *args) in state.readouts))
        return plain_half(state, build, *args)

    monkeypatch.setattr(algorithms, "_plan_run", noted_plan)
    monkeypatch.setattr(algorithms, "prepared_support", noted_support)
    monkeypatch.setattr(algorithms, "sparse_step", noted_step)
    monkeypatch.setattr(gates_module, "sparse_step", noted_step)
    monkeypatch.setattr(state_module, "_index_half", noted_half)
    PLANNED_BUILDERS[routine].cache_clear()
    if routine in CANONICAL_BUILDERS:
        CANONICAL_BUILDERS[routine].cache_clear()
    rng = np.random.default_rng(47)
    for run in (1, 2, 3):
        worked_out.clear(), asked.clear()
        runner(encode_matrix(random_matrix(rng, (8, 8))))
        plan, rows = plans[-1]
        assert plan is plans[0][0] and rows is plans[0][1]
        assert (rows is None) == (routine not in CANONICAL_BUILDERS)
        memo = plan if rows is None else rows.plan
        assert plan.runs == memo.runs == run
        if run == 1:
            assert not plan.halves and not memo.halves
        elif run == 2:
            reads = {key for key, _ in asked}
            gates = {"support", *range(len(plan.gates))}
            assert reads
            if rows is None:
                assert set(plan.halves) == gates | reads
            else:
                assert set(plan.halves) == gates and set(memo.halves) == {"back", *reads}
        else:
            assert worked_out == [] and asked and all(hit for _, hit in asked)


def test_a_replayed_run_reads_each_stage_with_that_stages_halves(monkeypatch):
    # the memo's keys name no support, so a read during a run must neither
    # keep a half nor find one; a rule that kept the halves of reads of a
    # read-only support would, as a replayed run's supports are the plan's
    # read-only arrays, and the second read would then sum the first stage's
    # support.  Both stages only permute the prepared amplitudes, so their
    # masses are bitwise the recorded run's
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(48), (8, 8)))
    row_add_circuit.cache_clear()
    circuit = row_add_circuit(3, 3, 6, 1)
    records = algorithms.simulate(circuit, encoded.entries, record_steps=True).records
    read_at = {"step2-mark-source-branch": 2, "step4-cswap-rows": 4}
    for _ in range(3):
        masses = {}

        def note(label, buffer):
            if label in read_at:
                masses[label] = buffer.norm_squared

        run = algorithms.simulate(circuit, encoded.entries, after_step=note)
        assert isinstance(run.state, SparseBuffer)
        assert masses == {label: records[position - 1].norm_squared for label, position in read_at.items()}


def test_a_run_selects_its_pinned_entries_once(monkeypatch):
    # a transpose reads its pinned subspace twice, for its share and for its
    # decode: the decode looks the selection up in the final buffer's halves,
    # which a circuit's first two runs share among their reads and its later
    # runs take from the plan
    encoded = encode_matrix(random_matrix(np.random.default_rng(51), (128, 128)))
    calls = []
    plain = state_module._selection

    def noted(*args):
        calls.append(args[1:])
        return plain(*args)

    monkeypatch.setattr(state_module, "_selection", noted)
    transpose_circuit.cache_clear()
    counts = []
    for _ in range(3):
        calls.clear()
        report = run_transpose(encoded)
        counts.append(len(calls))
        assert report.success_probability == 1.0
    assert counts == [1, 1, 0]


@pytest.mark.parametrize("routine", ["row-add", "row-swap", "trace"])
def test_reads_of_a_final_state_keep_no_half(monkeypatch, routine):
    # after its run a state's reads look the kept halves up, or work theirs
    # out on the spot; so a caller's reads cannot grow what a state holds
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    runner, _ = SPARSE_ROUTINES[routine]
    PLANNED_BUILDERS[routine].cache_clear()
    rng = np.random.default_rng(49)
    for _ in range(3):
        state = runner(encode_matrix(random_matrix(rng, (8, 8)))).post_selection.state
        assert isinstance(state, SparseBuffer)
        layout, held = state.layout, len(state.readouts)
        for index in range(1000):
            state.amplitude({name: (index >> layout.field_shift(name)) % (1 << width) for name, width in layout.registers})
            state.norm_squared
        assert len(state.readouts) == held
        with pytest.raises(TypeError):
            state.readouts[None] = None


def test_an_evicted_circuit_and_its_plan_are_freed_at_once(monkeypatch):
    # no reference cycle holds a circuit or its plan, so the builder's next
    # circuit frees them at once, not at a later collection; when arrays are
    # freed shows in the `wide` timings above.  Every row pair of a shape
    # shares the canonical circuit's plan, which a run of another shape frees
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(50), (8, 4)))
    other = encode_matrix(random_matrix(np.random.default_rng(50), (4, 4)))
    gc.disable()
    try:
        for runner, build in ((run_row_add, row_add_circuit), (run_row_swap, row_swap_circuit)):
            held = []
            for k, l in ((0, 1), (2, 5), (7, 3), (4, 6)):
                for _ in range(3):
                    report = runner(encoded, k, l)
                circuit = build(3, 2, k, l)
                plan, rows = algorithms._plan_run(circuit, False)
                assert report.gate_tally is circuit.tally and plan.halves and rows.plan.halves
                held.append((weakref.ref(circuit), weakref.ref(plan), weakref.ref(rows)))
                del report, circuit, plan, rows
            alive = [tuple(ref() is not None for ref in refs) for refs in held]
            assert alive == [(False, True, False)] * 3 + [(True, True, True)]
            runner(other, 0, 1)
            assert [tuple(ref() is not None for ref in refs) for refs in held] == [(False, False, False)] * 4
    finally:
        gc.enable()


@pytest.mark.parametrize("runner, shape", [(run_row_add, (64, 64)), (run_row_swap, (16, 32))], ids=["row-add", "row-swap"])
def test_fresh_row_pairs_replay_their_shapes_plan(monkeypatch, runner, shape):
    # every row pair of a shape relabels its rows into the canonical pair
    # (0, 1), so once a shape has run twice a fresh pair works out no index
    # half of its preparation or its gates
    worked_out = []
    plain_step, plain_support = algorithms.sparse_step, algorithms.prepared_support

    def noted_step(*args, **kwargs):
        worked_out.append("step")
        return plain_step(*args, **kwargs)

    def noted_support(*args):
        worked_out.append("support")
        return plain_support(*args)

    monkeypatch.setattr(algorithms, "sparse_step", noted_step)
    monkeypatch.setattr(gates_module, "sparse_step", noted_step)
    monkeypatch.setattr(algorithms, "prepared_support", noted_support)
    for canonical in CANONICAL_BUILDERS.values():
        canonical.cache_clear()
    rng = np.random.default_rng(52)
    pairs = [(k, l) for k in range(shape[0]) for l in range(shape[0]) if k != l]
    for run, at in enumerate(rng.permutation(len(pairs))[:8]):
        worked_out.clear()
        report = runner(encode_matrix(random_matrix(rng, shape)), *pairs[at])
        assert isinstance(report.post_selection.state, SparseBuffer)
        assert (worked_out == []) == (run >= 2), run


def test_a_relabeled_run_shows_its_callers_the_true_rows(monkeypatch):
    # a row pair runs in relabeled rows, but each stage's buffer that
    # after_step gets and the renormalized state list the true indices:
    # before the mixing layer a support holds the whole state, so each
    # stage's holds the recorded run's amplitudes; on the circuit's first,
    # second and a replayed run
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    encoded = encode_matrix(random_matrix(np.random.default_rng(53), (8, 8)))
    for build in (row_add_circuit, row_swap_circuit):
        circuit = build(3, 3, 6, 2)
        assert algorithms._plan_run(circuit, False)[1] is not None
        records = algorithms.simulate(circuit, encoded.entries, record_steps=True).records
        seen = {}

        def note(label, buffer):
            assert isinstance(buffer, SparseBuffer)
            seen[label] = buffer.densify().amplitudes

        for _ in range(3):
            seen.clear()
            run = algorithms.simulate(circuit, encoded.entries, after_step=note)
            for position, (label, _) in enumerate(circuit.steps[:-1]):
                assert np.array_equal(seen[label], records[position + 1].state.amplitudes), label
            renormalized = run.selection.renormalized_state.amplitudes
            assert np.array_equal(renormalized, records[-1].state.amplitudes)
            assert np.array_equal(run.state.densify().amplitudes[renormalized != 0], records[-2].state.amplitudes[renormalized != 0])


@settings(max_examples=30, deadline=None)
@given(
    routine=st.sampled_from(["row-add", "row-swap"]),
    kind=st.sampled_from(["real", "complex"]),
    rows=st.integers(2, 64),
    cols=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_relabeled_row_run_is_bitwise_the_recorded_run(routine, kind, rows, cols, seed):
    # any row pair of any shape up to 22 qubits, padded or not, real or
    # complex, with signed zeros among its entries: the run in relabeled
    # rows reports what the dense recorded run does, bit for bit
    n, m = max(1, (rows - 1).bit_length()), max(1, (cols - 1).bit_length())
    assume((2 * n + m + 3 if routine == "row-add" else 3 * n + m + 4) <= 22)
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols)) + (1j * rng.standard_normal((rows, cols)) if kind == "complex" else 0)
    picked = rng.random((rows, cols))
    matrix[picked < 0.2] = -0.0
    matrix[(picked >= 0.2) & (picked < 0.3)] = complex(0.0, -0.0) if kind == "complex" else 0.0
    assume(np.any(matrix != 0))
    k, l = (int(v) for v in rng.choice(rows, 2, replace=False))
    runner = run_row_add if routine == "row-add" else run_row_swap
    encoded = hand_encoded(matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "SPARSE_FLOOR", 0)
        relabeled = runner(encoded, k, l)
    assert isinstance(relabeled.post_selection.state, SparseBuffer)
    recorded = runner(encoded, k, l, record_steps=True)
    assert_reports_bitwise(relabeled, recorded)
    assert relabeled.gate_tally.to_dict() == recorded.gate_tally.to_dict()


def test_a_shared_circuit_and_tally_are_read_only():
    # every run with the same arguments shares one circuit and its tally, so
    # neither a report nor a caller can change what the next run reports
    encoded = encode_matrix(random_matrix(np.random.default_rng(45), (4, 4)))
    first = run_row_add(encoded, 1, 2)
    counts = first.gate_tally.to_dict()
    with pytest.raises(TypeError):
        first.gate_tally.per_step["step2-mark-source-branch"] = first.gate_tally.total
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.gate_tally.per_step = {}
    circuit = row_add_circuit(2, 2, 1, 2)
    with pytest.raises(TypeError):
        circuit.accept["B1"] = 1
    with pytest.raises(TypeError):
        circuit.decode[2]["R2"] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.accept = {}
    with pytest.raises(AttributeError):
        circuit.steps[0][1].append(circuit.steps[0][1][0])
    second = run_row_add(encoded, 1, 2)
    assert second.gate_tally.to_dict() == counts
    assert_reports_bitwise(second, first)


@pytest.mark.parametrize(
    "runner, shape",
    [
        (lambda m, **kw: run_row_add(m, 3, 1, **kw), (4, 64)),
        (lambda m, **kw: run_row_swap(m, 1, 0, **kw), (2, 64)),
    ],
    ids=["row-add-4-rows", "row-swap-2-rows"],
)
def test_narrow_row_ops_stay_sparse_above_the_floor(monkeypatch, runner, shape):
    # their mixing layer could grow the support past DENSE_SHARE (4 times
    # 1/16 and 8 times 3/64 of the layout), but the accept pattern reads
    # one of its outputs in 4 and in 8
    encoded = encode_matrix(awkward_matrix(np.random.default_rng(sum(shape)), shape, "plain"))
    dense = runner(encoded, record_steps=True)
    assert dense.post_selection.state.layout.size > state_module.SPARSE_FLOOR
    kinds = set()
    plain = algorithms.apply_gate

    def noted(state, gate):
        kinds.add(type(state).__name__)
        return plain(state, gate)

    monkeypatch.setattr(algorithms, "apply_gate", noted)
    sparse = runner(encoded)
    assert kinds == {"SparseBuffer"}
    assert_reports_bitwise(sparse, dense)


def planned_circuits():
    """Every routine's circuit at each shape of at most MAX_QUBITS, the
    sparse floor's layout and those below it included."""
    for n, m in itertools.product(range(1, 25), repeat=2):
        yield "row-add", row_add_circuit(n, m, 0, 1)
        yield "row-swap", row_swap_circuit(n, m, 0, 1)
        yield "transpose", transpose_circuit(n, m)
        if n == m:
            yield "trace", trace_circuit(n)
            yield "transpose-square", transpose_square_circuit(n)


@pytest.mark.parametrize("record_steps", [False, True])
def test_run_plan_holds_each_routine_as_it_always_has(monkeypatch, record_steps):
    # the plan reads the circuit alone, so it is cheap at any width.  Row-add,
    # row-swap and trace read outputs with every mixing target fixed, and
    # trace's other read cube needs B2 = 1 where B2 is still |0>, so they
    # stay sparse; transpose holds a 2^-m share of its layout; transpose-square's
    # matrix fills its whole layout
    monkeypatch.setattr(algorithms, "_physical_memory", lambda: 1 << 60)
    seen = set()
    for routine, circuit in planned_circuits():
        layout = circuit.layout
        if layout.total_qubits > state_module.MAX_QUBITS:
            continue
        above_floor = layout.size > state_module.SPARSE_FLOOR
        expected = above_floor and not record_steps and (
            routine in ("row-add", "row-swap", "trace")
            or routine == "transpose" and layout.width("C") >= 3
        )
        assert (algorithms._plan_run(circuit, record_steps) is not None) == expected, (routine, layout)
        seen.add((routine, above_floor, layout.total_qubits == state_module.MAX_QUBITS))
    assert len(seen) == 15


def test_a_circuit_that_discards_nothing_needs_a_decode(monkeypatch):
    # its report is the share of its decoded subspace, so without a decode
    # it is refused before preparation
    layout = RegisterLayout((("R", 1), ("C", 1), ("B", 3)))
    entries = encode_matrix(random_matrix(np.random.default_rng(42), (2, 2))).entries
    flip = algorithms._plain_step("flip", ControlledOp(Projector(register_values=(("R", 1),)), FlipQubit("B", 0)))
    undecoded = algorithms.Circuit(layout, ("R", "C"), (), (flip,), None, None)
    plain = algorithms.prepare_product_state
    monkeypatch.setattr(algorithms, "prepare_product_state", None)
    with pytest.raises(ValueError, match="discards nothing needs a decode"):
        algorithms.simulate(undecoded, entries)
    # one that post-selects reports its selected mass, decoded or not
    monkeypatch.setattr(algorithms, "prepare_product_state", plain)
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    selected = algorithms.simulate(dataclasses.replace(undecoded, accept={"B": 0}), entries)
    assert isinstance(selected.state, SparseBuffer) and selected.output is None
    assert selected.probability == pytest.approx(np.sum(np.abs(entries[0]) ** 2))


def test_a_run_whose_mixing_may_outgrow_the_share_is_dense_from_preparation(monkeypatch):
    # the prepared support, 2^14 of 2^17 amplitudes, is the share itself, but
    # an unread Hadamard layer on H may multiply it by 8; so the whole run is
    # dense, and nothing is copied from a support into a dense buffer
    layout = RegisterLayout((("R", 7), ("C", 7), ("H", 3)))
    mix = HadamardLayer(("H",))
    steps = (algorithms._plain_step("mix", mix), algorithms._plain_step("unmix", mix))
    circuit = algorithms.Circuit(layout, ("R", "C"), (), steps, None, ("R", "C", {"H": 0}))
    prepared, kinds = [], set()
    plain_prepare, plain_apply = algorithms.prepare_product_state, algorithms.apply_gate

    def noted_prepare(layout, parts, sparse=False):
        prepared.append(sparse)
        return plain_prepare(layout, parts, sparse=sparse)

    def noted_apply(state, gate):
        kinds.add(type(state).__name__)
        return plain_apply(state, gate)

    monkeypatch.setattr(algorithms, "prepare_product_state", noted_prepare)
    monkeypatch.setattr(algorithms, "apply_gate", noted_apply)
    encoded = encode_matrix(random_matrix(np.random.default_rng(43), (128, 128)))
    run = algorithms.simulate(circuit, encoded.entries)
    assert prepared == [False] and kinds == {"StateBuffer"}
    recorded = algorithms.simulate(circuit, encoded.entries, record_steps=True)
    assert_reports_bitwise(run.report("mix", 1.0, encoded), recorded.report("mix", 1.0, encoded))


def test_trace_at_26_qubits_holds_a_small_share_of_its_state():
    # the Hadamard sum computes the one amplitude the accept pattern reads,
    # so the 1 GiB dense state is never allocated
    encoded = encode_matrix(random_matrix(np.random.default_rng(7), (256, 256)))
    tracemalloc.start()
    try:
        report = run_trace(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * (16 << 26)
    reference = oracle_trace(encoded.entries)
    assert abs(report.recovered_trace - reference.scalar) <= TOL
    assert abs(report.success_probability - reference.predicted_probability) <= TOL


def assert_reports_bitwise(sparse, dense):
    for name in ("success_probability", "output_matrix", "recovered_trace", "normalization"):
        ours, theirs = getattr(sparse, name), getattr(dense, name)
        assert (ours is None) == (theirs is None), name
        if theirs is not None:
            assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes(), name
    if dense.post_selection is not None:
        ours, theirs = sparse.post_selection.renormalized_state, dense.post_selection.renormalized_state
        assert (ours is None) == (theirs is None)
        if theirs is not None:
            # only the signs of zeros no report reads may differ
            assert np.array_equal(ours.amplitudes, theirs.amplitudes)
            nonzero = theirs.amplitudes != 0
            assert ours.amplitudes[nonzero].tobytes() == theirs.amplitudes[nonzero].tobytes()


NEGATIVE_ROW_K = [[-1, 1], [1, 1], [complex(-0.0, -0.0), 1], [1, 1]]


def negative_row_k(rng, shape):
    """Row 0 with negative real parts and imaginary parts of both signs,
    zeros among them; row 2 alternating -0-0j with nonzero entries."""
    matrix = random_matrix(rng, shape)
    matrix.real[0] = -(rng.random(shape[1]) + 0.5)
    matrix.imag[0] = rng.choice([-1.0, -0.0, 0.0, 1.0], shape[1])
    matrix[2, ::2] = complex(-0.0, -0.0)
    return matrix


@pytest.mark.parametrize("seed", range(4))
def test_sparse_outputs_keep_zero_signs_without_a_second_run(monkeypatch, seed):
    # hand-built matrices whose parts are signed zeros, +-1, +-0.5 and
    # subnormals: the decoded outputs are bitwise the recorded runs' after
    # a single preparation, so with no dense rerun behind them
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    prepared = []
    plain = algorithms.prepare_product_state

    def noted(layout, parts, sparse=False):
        prepared.append(sparse)
        return plain(layout, parts, sparse=sparse)

    monkeypatch.setattr(algorithms, "prepare_product_state", noted)
    rng = np.random.default_rng(seed)
    values = [-0.0, 0.0, -1.0, 1.0, -0.5, 0.5, -5e-324, 5e-324]
    for _ in range(25):
        shape = (int(rng.integers(2, 9)), int(rng.integers(1, 9)))
        matrix = rng.choice(values, shape) + 1j * rng.choice(values, shape)
        matrix.real, matrix.imag = rng.choice(values, shape), rng.choice(values, shape)
        if not np.any(np.abs(matrix) >= 0.5):
            continue
        encoded = hand_encoded(matrix)
        k, l = (int(v) for v in rng.choice(shape[0], 2, replace=False))
        for runner in (partial(run_row_add, k=k, l=l), partial(run_row_swap, k=k, l=l), run_transpose):
            prepared.clear()
            sparse = runner(encoded)
            assert len(prepared) == 1
            assert_reports_bitwise(sparse, runner(encoded, record_steps=True))


@pytest.mark.parametrize("hand_built", [False, True], ids=["encoded", "hand-built"])
@pytest.mark.parametrize("k, l", [(0, 1), (0, 2)])
@pytest.mark.parametrize("shape", [None, (4, 4), (5, 3), (8, 8), (12, 16), (16, 16)])
@pytest.mark.parametrize("runner", [run_row_add, run_row_swap], ids=["row-add", "row-swap"])
def test_sparse_row_ops_match_dense_with_a_negative_row_k(monkeypatch, runner, shape, k, l, hand_built):
    # the dense state holds row 0's entries times zero ancilla entries, zeros
    # signed by row 0's parts where the support lists nothing; row 2's
    # -0-0j entries are exact zeros that the row ops move and mix with them
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    if shape is None:
        matrix = np.array(NEGATIVE_ROW_K, dtype=complex)
    else:
        matrix = negative_row_k(np.random.default_rng(sum(shape) + 7), shape)
    encoded = hand_encoded(matrix) if hand_built else encode_matrix(matrix)
    assert_reports_bitwise(runner(encoded, k, l), runner(encoded, k, l, record_steps=True))


def test_post_select_allocates_less_than_the_state():
    layout = RegisterLayout((("A", 15), ("B", 3)))
    raw = random_matrix(np.random.default_rng(22), layout.size)
    state = StateVector(layout, raw / np.linalg.norm(raw))
    tracemalloc.start()
    try:
        selection = post_select(state, {"B": 5})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the squared magnitudes are summed block by block of MASS_BLOCK
    assert peak < 0.05 * state.amplitudes.nbytes
    assert selection.probability > 0


READOUTS = {
    "row-add": (lambda m: row_add_circuit(m.row_qubits, m.col_qubits, 1, 2),
                lambda m: run_row_add(m, 1, 2)),
    "row-swap": (lambda m: row_swap_circuit(m.row_qubits, m.col_qubits, 1, 2),
                 lambda m: run_row_swap(m, 1, 2)),
    "trace": (lambda m: trace_circuit(m.row_qubits), run_trace),
}


@pytest.mark.parametrize("routine", sorted(READOUTS))
def test_readout_is_bitwise_the_renormalized_state(monkeypatch, routine):
    # below the floor, so that a run whose read-out is sure stays sparse
    monkeypatch.setattr(state_module, "SPARSE_FLOOR", 0)
    build, runner = READOUTS[routine]
    matrix = random_matrix(np.random.default_rng(23), (4, 4))
    matrix[0, 1] = complex(-0.0, 0.0)
    matrix[3] = 0.0
    matrix[2, 2] = complex(0.5, -0.0)
    encoded = encode_matrix(matrix)
    circuit = build(encoded)
    layout = circuit.layout
    # the readout as a full-size renormalized state, written out by hand
    final = algorithms.simulate(circuit, encoded.entries).state
    if isinstance(final, SparseBuffer):
        final = final.densify()
    selected = qubit_index(layout, circuit.accept)
    kept = qubit_view(final.amplitudes, layout)[selected]
    probability = float(np.sum(np.abs(kept).ravel() ** 2))
    expected = np.zeros(layout.size, dtype=np.complex128)
    np.divide(kept, math.sqrt(probability), out=qubit_view(expected, layout)[selected])

    report = runner(encoded)
    assert report.success_probability.hex() == probability.hex()
    renormalized = report.post_selection.renormalized_state
    assert renormalized.amplitudes.tobytes() == expected.tobytes()
    assert not renormalized.amplitudes.flags.writeable
    if circuit.decode is not None:
        pinned = qubit_view(expected, layout)[qubit_index(layout, circuit.decode[2])]
        decoded = np.array(pinned, order="C").reshape(report.output_matrix.shape)
        assert report.output_matrix.tobytes() == decoded.tobytes()


def test_zero_probability_outcome_has_no_renormalized_state():
    report = run_trace(encode_matrix(np.array([[1.0, 2.0], [3.0, -1.0]])))
    assert report.success_probability == 0.0
    assert report.post_selection.renormalized_state is None


def test_gate_tally_reports_expected_steps():
    encoded = encode_matrix(np.eye(4))
    report = run_row_swap(encoded, 0, 1)
    assert set(report.gate_tally.per_step) == {
        "step2-mark-distinct-pair",
        "step3-mark-swap-rows",
        "step4-cswap-via-c2",
        "step4-cswap-via-r2",
        "step5-mark-useful",
        "step6-hadamard-mix",
    }
    assert report.gate_tally.per_step["step6-hadamard-mix"].single_qubit == 3


def test_qubit_cap_refuses_before_building_ancilla_tables():
    # 4096 rows need 41 qubits for a row swap, and the (R2, C2) ancilla
    # table alone would take 256 MiB
    encoded = encode_matrix(np.ones((4096, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense-array cap"):
            run_row_swap(encoded, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_transpose_square_refuses_before_padding():
    # the padded square would be 2^14 x 2^14, 4 GiB of amplitudes over 28 qubits
    encoded = encode_matrix(np.ones((2, 1 << 14)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense-array cap"):
            run_transpose_square(encoded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_recorded_run_refuses_states_beyond_physical_memory(monkeypatch):
    # a 16x16 row-add has 15 qubits, so a 512 KiB state; a recorded run
    # keeps one snapshot per step, the final state and the renormalized one
    encoded = encode_matrix(np.random.default_rng(41).standard_normal((16, 16)))
    state_bytes = 16 << 15
    states = len(row_add_circuit(4, 4, 1, 2).steps) + 2
    monkeypatch.setattr(algorithms, "_physical_memory", lambda: states * state_bytes - 1)
    message = (
        f"a recorded run of 15 qubits keeps {states} states of {state_bytes} B, "
        f"{states * state_bytes} B in all, more than the {states * state_bytes - 1} B of physical memory"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_row_add(encoded, 1, 2, record_steps=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state_bytes
    assert run_row_add(encoded, 1, 2).success_probability > 0
    # a layout beyond the qubit cap still gets the cap's error
    with pytest.raises(ValueError, match="dense-array cap"):
        run_row_swap(encode_matrix(np.ones((4096, 2))), 0, 1, record_steps=True)
    monkeypatch.setattr(algorithms, "_physical_memory", lambda: states * state_bytes)
    assert len(run_row_add(encoded, 1, 2, record_steps=True).step_states) == states


def test_builders_need_no_matrix():
    circuit = row_swap_circuit(12, 12, 3, 7)
    assert circuit.layout.total_qubits == 52
    assert circuit.gates()[0][0] == "step2-mark-distinct-pair"
    with pytest.raises(ValueError, match="distinct"):
        row_add_circuit(2, 2, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        row_swap_circuit(2, 2, 0, 4)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([2, 4]),
    cols=st.sampled_from([2, 4]),
)
def test_row_swap_law_property(seed, rows, cols):
    rng = np.random.default_rng(seed)
    encoded = encode_matrix(random_matrix(rng, (rows, cols)))
    pairs = [(k, l) for k in range(rows) for l in range(rows) if k != l]
    k, l = pairs[seed % len(pairs)]
    report = run_row_swap(encoded, k, l)
    assert abs(report.success_probability - 1 / 24) < TOL
    reference = oracle_row_swap(encoded.entries, k, l)
    np.testing.assert_allclose(report.output_matrix, np.array(reference.matrix), atol=TOL)
