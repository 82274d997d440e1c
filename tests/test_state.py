import hashlib
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmatops import (
    AncillaVector,
    RegisterLayout,
    StateVector,
    StateBuffer,
    decode_matrix,
    encode_matrix,
    prepare_product_state,
)
from qmatops import algorithms
from qmatops import gates
from qmatops import state as state_module
from qmatops.state import (
    EncodedMatrix,
    LightCone,
    SparseBuffer,
    occupied_states,
    post_select,
    pinned_share,
    qubit_index,
    qubit_view,
    squared_mass,
    supported_on,
)

st_dims = st.sampled_from([1, 2, 3, 4, 5, 8])
st_entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def random_unit(rng, size):
    raw = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return raw / np.linalg.norm(raw)


# --- layout -------------------------------------------------------------

def test_layout_bit_order_is_most_significant_first():
    layout = RegisterLayout((("R", 2), ("C", 1)))
    assert layout.total_qubits == 3
    # R=2 (binary 10), C=1 packs to index 101
    assert layout.basis_index({"R": 2, "C": 1}) == 0b101
    assert layout.shape == (4, 2)
    assert np.unravel_index(0b101, layout.shape) == (2, 1)


def test_layout_rejects_duplicates_zero_width_and_overflow():
    with pytest.raises(ValueError):
        RegisterLayout((("R", 2), ("R", 1)))
    with pytest.raises(ValueError):
        RegisterLayout((("R", 0),))
    # layouts are unbounded; the qubit cap applies where a state is allocated
    wide = RegisterLayout((("R", 27),))
    with pytest.raises(ValueError, match="dense-array cap"):
        prepare_product_state(wide, ())


def test_layout_pattern_rejects_out_of_range_value():
    layout = RegisterLayout((("R", 2),))
    with pytest.raises(ValueError):
        layout.pattern({"R": 4})
    with pytest.raises(ValueError):
        layout.pattern({"X": 0})


def test_state_vector_is_immutable_and_checks_size():
    layout = RegisterLayout((("R", 1),))
    state = StateVector(layout, [1.0, 0.0])
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5
    with pytest.raises(ValueError):
        StateVector(layout, [1.0, 0.0, 0.0])


def test_checksum_hashes_the_bytes_of_the_array():
    layout = RegisterLayout((("R", 2),))
    amplitudes = np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, -0.0), 0.0])
    state = StateVector(layout, amplitudes)
    assert state.checksum() == hashlib.sha256(amplitudes.tobytes()).hexdigest()[:16]
    # the sign of a zero part is part of the bytes
    unsigned = StateVector(layout, np.abs(amplitudes.real) + 1j * np.abs(amplitudes.imag))
    assert state.checksum() != unsigned.checksum()


# --- encoding -----------------------------------------------------------

def test_encode_golden_scale():
    from qmatops.golden import GOLDEN_MATRIX

    encoded = encode_matrix(GOLDEN_MATRIX)
    assert abs(encoded.frobenius_scale - math.sqrt(258 / 256)) < 1e-15
    assert abs(np.linalg.norm(encoded.entries) - 1.0) < 1e-12


def test_encode_pads_to_powers_of_two():
    encoded = encode_matrix(np.ones((3, 5)))
    assert encoded.entries.shape == (4, 8)
    assert encoded.original_rows == 3 and encoded.original_cols == 5
    assert np.all(encoded.entries[3:, :] == 0)
    assert np.all(encoded.entries[:, 5:] == 0)
    assert abs(encoded.frobenius_scale - math.sqrt(15)) < 1e-12


def test_encode_one_by_one_becomes_two_by_two():
    encoded = encode_matrix([[3.0]])
    assert encoded.entries.shape == (2, 2)
    assert encoded.entries[0, 0] == 1.0
    assert encoded.frobenius_scale == 3.0


def test_encode_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        encode_matrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        encode_matrix([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(ValueError):
        encode_matrix([1.0, 2.0])


@pytest.mark.parametrize(
    "shape, part",
    [((4, 4), "real"), ((4, 4), "imag"), ((2, 8), "real")],
    ids=["real-part", "imaginary-part", "transpose-square"],
)
def test_encoded_matrix_refuses_a_nan_entry(shape, part):
    # a NaN norm passes a tolerance check, so every routine failed later, at
    # preparation; transpose-square's non-square input after allocating its
    # padded square
    entries = np.zeros(shape, dtype=complex)
    entries[0, 0] = 1.0
    getattr(entries, part)[1, -1] = np.nan
    with pytest.raises(ValueError, match="entries must be finite"):
        EncodedMatrix(entries, *shape, 1.0)


@pytest.mark.parametrize("exponent", [665, -565])
def test_encode_extreme_magnitudes(exponent):
    # 2^665 ~ 1e200 squares to overflow, 2^-565 ~ 1e-170 to underflow;
    # scaling by a power of two is exact, so the unit matrix is known
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    encoded = encode_matrix(np.ldexp(base.real, exponent) + 1j * np.ldexp(base.imag, exponent))
    base_norm = np.linalg.norm(base)
    np.testing.assert_allclose(encoded.entries[:3, :5], base / base_norm, rtol=0, atol=1e-12)
    assert encoded.frobenius_scale == pytest.approx(math.ldexp(base_norm, exponent), rel=1e-12)
    for value in (math.ldexp(1.0, exponent), 1e200, 1e-170):
        flat = encode_matrix(np.full((2, 2), value))
        np.testing.assert_allclose(flat.entries, np.full((2, 2), 0.5), rtol=0, atol=1e-12)


def test_encode_allocates_only_the_padded_matrix():
    rng = np.random.default_rng(13)
    matrix = rng.standard_normal((1000, 1000)) + 1j * rng.standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        encoded = encode_matrix(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encoded.entries.shape == (1024, 1024)
    assert peak <= 1.2 * encoded.entries.nbytes


# 2^482 and 2^-482 lie just outside NORM_SAFE_RANGE, so those inputs are
# prescaled, yet their squares still sum in range for the plain division
@pytest.mark.parametrize("exponent", [0, 482, -482])
def test_encode_is_bitwise_the_plain_division(exponent):
    rng = np.random.default_rng(14)
    matrix = np.empty((3, 5), dtype=np.complex128)
    matrix.real = np.ldexp(rng.standard_normal((3, 5)), exponent)
    matrix.imag = np.ldexp(rng.standard_normal((3, 5)), exponent)
    matrix.real[0, 1] = -0.0
    matrix.imag[0, 1:3] = (-0.0, 0.0)
    low, high = state_module.NORM_SAFE_RANGE
    assert (exponent == 0) == (low <= np.max(np.abs(matrix.view(np.float64))) <= high)
    expected = np.zeros((4, 8), dtype=np.complex128)
    expected[:3, :5] = matrix / np.linalg.norm(matrix)
    encoded = encode_matrix(matrix)
    assert encoded.entries.tobytes() == expected.tobytes()


def test_encode_rejects_norm_beyond_float_range():
    with pytest.raises(ValueError, match="overflows"):
        encode_matrix(np.full((2, 2), 1.5e308))


def test_restored_round_trips_the_original():
    rng = np.random.default_rng(7)
    original = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    encoded = encode_matrix(original)
    np.testing.assert_allclose(encoded.restored(), original, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(rows=st_dims, cols=st_dims, data=st.data())
def test_encode_decode_round_trip(rows, cols, data):
    matrix = data.draw(
        hnp.arrays(np.complex128, (rows, cols), elements=st_entries)
    )
    norm = np.linalg.norm(matrix)
    if not norm > 1e-6:
        matrix = matrix + np.eye(rows, cols)
    encoded = encode_matrix(matrix)
    layout = RegisterLayout((("R", encoded.row_qubits), ("C", encoded.col_qubits)))
    state = StateVector(layout, encoded.entries.ravel())
    decoded = decode_matrix(state, "R", "C", {})
    np.testing.assert_allclose(decoded, encoded.entries, atol=1e-14)


# --- product preparation -------------------------------------------------

def test_prepare_identity_times_plus_state():
    layout = RegisterLayout((("R1", 1), ("C1", 1), ("R2", 1)))
    matrix_part = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    state = prepare_product_state(layout, ((("R1", "C1"), matrix_part), (("R2",), plus)))
    assert state.amplitudes.size == 8
    magnitudes = np.abs(state.amplitudes)
    assert np.count_nonzero(np.isclose(magnitudes, 0.5)) == 4
    assert abs(state.norm_squared - 1.0) < 1e-12


def test_prepare_single_register_default_ground():
    layout = RegisterLayout((("B", 1),))
    state = prepare_product_state(layout, ())
    np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])


def test_prepare_uncovered_registers_start_in_ground():
    layout = RegisterLayout((("D", 2), ("R", 1)))
    part = np.array([0, 1], dtype=complex)
    state = prepare_product_state(layout, ((("R",), part),))
    assert state.amplitude({"D": 0, "R": 1}) == 1.0


def test_prepare_rejects_bad_norm_and_gaps():
    layout = RegisterLayout((("A", 1), ("B", 1), ("C", 1)))
    good = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError):
        prepare_product_state(layout, ((("A",), good * 1.5),))
    with pytest.raises(ValueError):
        # A and C are not consecutive
        prepare_product_state(layout, ((("A", "C"), np.array([1, 0, 0, 0], dtype=complex)),))
    with pytest.raises(ValueError):
        prepare_product_state(
            layout, ((("A",), good), (("A",), good))
        )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_prepare_product_norm_is_one(seed):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((("X", 2), ("Y", 1)))
    state = prepare_product_state(
        layout, ((("X",), random_unit(rng, 4)), (("Y",), random_unit(rng, 2)))
    )
    assert abs(state.norm_squared - 1.0) < 1e-12


SIGNED_ZEROS = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


def signed_unit(rng, size):
    """A unit table with every sign of zero and negative parts."""
    table = random_unit(rng, size)
    zeros = min(len(SIGNED_ZEROS), size // 2)
    table[:zeros] = SIGNED_ZEROS[:zeros]
    return table / np.linalg.norm(table)


def kron_reference(layout, parts):
    """The prepared state as a ``reduce(np.kron, ...)`` fold, every register
    no part covers in |0>."""
    tables = {layout.names.index(names[0]): (len(names), table) for names, table in parts}
    factors, position = [], 0
    while position < len(layout.names):
        count, table = tables.get(position, (1, None))
        if table is None:
            table = np.zeros(1 << layout.width(layout.names[position]), dtype=complex)
            table[0] = 1.0
        factors.append(np.asarray(table, dtype=complex).ravel())
        position += count
    return reduce(np.kron, factors)


@pytest.mark.parametrize(
    "registers, tables",
    [
        # matrix, row-add ancilla, three ground qubits
        ((("R1", 2), ("C1", 3), ("R2", 2), ("B1", 1), ("B2", 1), ("B3", 1)),
         [(("R1", "C1"), None), (("R2",), AncillaVector("row-add", 3, 1, 2))]),
        # matrix, row-swap ancilla over two registers, ground registers of 1-2 qubits
        ((("R1", 2), ("C1", 2), ("R2", 2), ("C2", 2), ("B1", 1), ("B2", 2), ("B3", 1)),
         [(("R1", "C1"), None), (("R2", "C2"), AncillaVector("row-swap", 1, 2, 2))]),
        # 17 qubits: four blocks of several leading-factor rows each
        ((("R", 5), ("C", 5), ("A", 5), ("B1", 1), ("B2", 1)), [(("R", "C"), None)]),
        # 17 qubits led by a ground register, so each block is one row
        ((("D", 1), ("R", 8), ("C", 8)), [(("R", "C"), None)]),
        # ground registers only
        ((("X", 3), ("Y", 1), ("Z", 2)), []),
        # complex tables on both sides of either loop order: numpy's complex
        # multiply is not commutative bit for bit, so this pins operand order
        ((("A", 3), ("B", 5), ("C", 3)), [(("A",), None), (("B",), None), (("C",), None)]),
    ],
    ids=["row-add", "row-swap", "blocks", "ground-leading", "ground-only", "complex"],
)
def test_prepare_is_bitwise_the_kron_fold(registers, tables):
    layout = RegisterLayout(registers)
    rng = np.random.default_rng(31)
    parts = []
    for names, ancilla in tables:
        if ancilla is None:
            table = signed_unit(rng, 1 << sum(layout.width(name) for name in names))
        else:
            table = ancilla.amplitudes()
        parts.append((names, table))
    state = prepare_product_state(layout, parts)
    assert state.amplitudes.tobytes() == kron_reference(layout, parts).tobytes()
    assert not state.amplitudes.flags.writeable


def test_prepare_copies_a_lone_factor():
    layout = RegisterLayout((("R", 2), ("C", 2)))
    table = signed_unit(np.random.default_rng(32), 16)
    original = table.tobytes()
    state = prepare_product_state(layout, ((("R", "C"), table),))
    assert state.amplitudes.tobytes() == original
    assert not np.shares_memory(state.amplitudes, table)
    assert table.flags.writeable
    table[0] = 1.0
    assert state.amplitudes.tobytes() == original


SPARSE_PREPARATIONS = {
    "row-add": ((("R1", 2), ("C1", 3), ("R2", 2), ("B1", 1), ("B2", 1), ("B3", 1)),
                [(("R1", "C1"), None), (("R2",), AncillaVector("row-add", 3, 1, 2))]),
    "row-swap": ((("R1", 2), ("C1", 2), ("R2", 2), ("C2", 2), ("B1", 1), ("B2", 2), ("B3", 1)),
                 [(("R1", "C1"), None), (("R2", "C2"), AncillaVector("row-swap", 1, 2, 2))]),
    "ground-leading": ((("D", 3), ("R", 2), ("C", 3)), [(("R", "C"), None)]),
    # the whole table is the first part given, not the leading factor
    "whole-table-last": ((("K", 2), ("B", 3), ("R", 2), ("C", 2)),
                         [(("R", "C"), None), (("K",), AncillaVector("row-add", 0, 2, 2))]),
}


@pytest.mark.parametrize("name", sorted(SPARSE_PREPARATIONS))
def test_sparse_prepare_is_bitwise_the_kron_fold_on_its_support(name):
    registers, tables = SPARSE_PREPARATIONS[name]
    layout = RegisterLayout(registers)
    rng = np.random.default_rng(33)
    parts = []
    for names, ancilla in tables:
        if ancilla is None:
            table = signed_unit(rng, 1 << sum(layout.width(name) for name in names))
        else:
            table = ancilla.amplitudes()
        parts.append((names, table))
    state = prepare_product_state(layout, parts, sparse=True)
    assert isinstance(state, SparseBuffer)
    assert np.all(np.diff(state.indices) > 0)
    reference = kron_reference(layout, parts)
    assert state.amplitudes.tobytes() == reference[state.indices].tobytes()
    # the first table whole, signed zeros included, times the others' nonzero entries
    listed = parts[0][1].size * math.prod(np.count_nonzero(table) for _, table in parts[1:])
    assert state.indices.size == listed
    unlisted = np.ones(layout.size, dtype=bool)
    unlisted[state.indices] = False
    assert not np.any(reference[unlisted])


def held_sparse(ground_qubits):
    """Whether a run is planned sparse when it holds a 2x2 matrix next to a
    register of ``ground_qubits`` in |0>, under no gate."""
    layout = RegisterLayout((("R", 1), ("C", 1), ("B", ground_qubits)))
    circuit = algorithms.Circuit(layout, ("R", "C"), (), (), None, ("R", "C", {"B": 0}))
    return algorithms._plan_run(circuit, record_steps=False) is not None


def test_sparse_prepare_goes_dense_past_the_dense_share():
    # the run plan holds a support of 4 of 32 amplitudes, the share itself,
    # sparse, as it does 4 of 2^12, and 4 of 16, past it, dense; asked for a
    # sparse product, preparation builds one either way
    assert held_sparse(3) and held_sparse(10) and not held_sparse(2)
    table = random_unit(np.random.default_rng(34), 4)
    for ground_qubits in (3, 2):
        layout = RegisterLayout((("R", 1), ("C", 1), ("B", ground_qubits)))
        assert isinstance(prepare_product_state(layout, [(("R", "C"), table)], sparse=True), SparseBuffer)


@pytest.mark.parametrize("kind", ["non-negative", "real", "complex", "signed-zero-imaginary"])
def test_a_sparse_product_evaluates_its_unlisted_positions_as_the_dense_one(kind):
    # where the support lists nothing the dense product holds signed zeros;
    # the prepared product evaluated there (state.prepared_at, through a
    # light cone of no gates) gives them byte for byte, also when the matrix
    # registers follow a |0> register, as transpose's D, R, C do
    rng = np.random.default_rng(36)
    table = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    table[rng.random(16) < 0.3] = complex(-0.0, -0.0)
    if kind == "non-negative":
        table = np.abs(table).astype(complex)
    elif kind == "real":
        table = table.real.astype(complex)
    elif kind == "signed-zero-imaginary":
        table.imag = -0.0
    table /= np.linalg.norm(table)
    for registers in ((("R", 2), ("C", 2), ("K", 2), ("B", 2)), (("D", 2), ("R", 2), ("C", 2), ("K", 2))):
        layout = RegisterLayout(registers)
        parts = [(("R", "C"), table), (("K",), AncillaVector("row-add", 1, 3, 2).amplitudes())]
        state = prepare_product_state(layout, parts, sparse=True)
        reference = kron_reference(layout, parts)
        unlisted = np.ones(layout.size, dtype=bool)
        unlisted[state.indices] = False
        at = np.flatnonzero(unlisted)
        cone = gates.light_cone(layout, (), at, state_module.prepared_at(layout, parts))
        assert cone.tobytes() == reference[at].tobytes()
        assert state_module.prepared_at(layout, parts)(state.indices).tobytes() == state.amplitudes.tobytes()
        if kind != "non-negative":
            # a negative part signs some of the zeros the support leaves out
            assert np.any(np.signbit(reference[at].view(np.float64)))


def random_support(rng, layout, share, inside=None):
    """A sparse state listing about ``share`` of the layout's basis states,
    or of those matching the (mask, bits) pattern ``inside``, with signed
    zeros and exact zeros among its amplitudes."""
    indices = np.flatnonzero(rng.random(layout.size) < share)
    if inside is not None:
        indices = indices[(indices & inside[0]) == inside[1]]
    indices = np.union1d(indices, [inside[1] if inside else 0]).astype(np.int64)
    amplitudes = rng.standard_normal(indices.size) + 1j * rng.standard_normal(indices.size)
    amplitudes *= np.exp2(rng.integers(-30, 30, indices.size))
    zeros = rng.random(indices.size) < 0.2
    amplitudes[zeros] = np.array(SIGNED_ZEROS)[rng.integers(len(SIGNED_ZEROS), size=np.count_nonzero(zeros))]
    return SparseBuffer(layout, indices, amplitudes)


@pytest.mark.parametrize("laid_out", [None, 1 << 2])
@pytest.mark.parametrize("qubits, share", [(4, 0.5), (9, 0.2), (14, 0.02), (17, 0.01), (17, 0.6)])
def test_sparse_squared_mass_is_bitwise_the_dense_sum(monkeypatch, qubits, share, laid_out):
    # subspaces below and above numpy's 128-value block, laid out whole or
    # summed lane by lane from the listed entries; with LAID_OUT at 4 every
    # subspace of 8 values or more takes the lanes
    if laid_out is not None:
        monkeypatch.setattr(state_module, "LAID_OUT", laid_out)
    layout = RegisterLayout((("A", qubits - 3), ("M", 1), ("B", 2)))
    rng = np.random.default_rng(qubits)
    sparse = random_support(rng, layout, share)
    dense = sparse.densify().amplitudes
    assert sparse.norm_squared.hex() == squared_mass(dense).hex()
    for pattern in ({"M": 1}, {"A": 1, "B": 2}, {"M": 0, "B": 3}):
        kept = qubit_view(dense, layout)[qubit_index(layout, pattern)]
        assert post_select(sparse, pattern).probability.hex() == squared_mass(kept).hex()
        assert pinned_share(sparse, pattern).hex() == pinned_share(StateVector(layout, dense), pattern).hex()


@settings(max_examples=20, deadline=None)
@given(
    qubits=st.integers(17, 23),
    seed=st.integers(0, 2**32 - 1),
    pattern=st.sampled_from([{"M": 1}, {"B": 2}, {"M": 0, "Z": 1}, {"A": 5, "M": 1}]),
)
def test_sparse_mass_of_clustered_runs_is_bitwise_the_dense_sum(qubits, seed, pattern):
    # runs of consecutive indices, thinned, so that a lane of a 128-value
    # block holds 1 to 16 listed entries; weights from 2^-60 to 2^60 and
    # signed zeros planted among them
    layout = RegisterLayout((("A", qubits - 4), ("M", 1), ("B", 2), ("Z", 1)))
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, layout.size, rng.integers(1, 40))
    lengths = rng.integers(1, 600, starts.size)
    indices = np.unique(np.concatenate([np.arange(s, min(s + n, layout.size)) for s, n in zip(starts, lengths)]))
    indices = np.union1d(indices[rng.random(indices.size) < rng.uniform(0.2, 1.0)], starts[:1])
    amplitudes = rng.standard_normal(indices.size) + 1j * rng.standard_normal(indices.size)
    amplitudes *= np.exp2(rng.integers(-60, 61, indices.size))
    zeros = rng.random(indices.size) < 0.1
    amplitudes[zeros] = np.array(SIGNED_ZEROS)[rng.integers(len(SIGNED_ZEROS), size=np.count_nonzero(zeros))]
    sparse = SparseBuffer(layout, indices.astype(np.int64), amplitudes)
    dense = sparse.densify().amplitudes
    assert sparse.norm_squared.hex() == squared_mass(dense).hex()
    kept = qubit_view(dense, layout)[qubit_index(layout, pattern)]
    assert post_select(sparse, pattern).probability.hex() == squared_mass(kept).hex()
    assert pinned_share(sparse, pattern).hex() == pinned_share(StateVector(layout, dense), pattern).hex()


@pytest.mark.parametrize(
    "indices, amplitudes",
    [
        ([5, 1], [1.0, 2.0]),
        ([1, 1], [1.0, 2.0]),
        ([1, 9], [1.0, 2.0]),
        ([-1, 2], [1.0, 2.0]),
        ([1, 2], [1.0]),
        ([], []),
        (np.array([1, 2], dtype=np.int32), [1.0, 2.0]),
        ([1, 2], np.array([1.0, 2.0])),
        ([[1, 2]], [[1.0, 2.0]]),
    ],
    ids=["unsorted", "repeated", "past-the-end", "negative", "short", "empty", "int32", "float", "2-d"],
)
def test_sparse_buffer_refuses_a_malformed_support(indices, amplitudes):
    layout = RegisterLayout((("X", 2), ("Y", 1)))
    indices = np.asarray(indices, dtype=getattr(indices, "dtype", np.int64))
    amplitudes = np.asarray(amplitudes, dtype=getattr(amplitudes, "dtype", np.complex128))
    with pytest.raises(ValueError, match="sparse buffer"):
        SparseBuffer(layout, indices, amplitudes)
    SparseBuffer(layout, np.array([0, 7]), np.array([1.0, 2.0], dtype=complex))


def test_sparse_readouts_are_bitwise_the_dense_ones():
    layout = RegisterLayout((("K", 2), ("C", 3), ("R", 3), ("B", 1)))
    rng = np.random.default_rng(35)
    pinned = {"K": 2, "B": 1}
    # the pinned block holds all of the selected subspace B=1; B=0 the rest
    block = random_support(rng, layout, 0.5, layout.pattern(pinned))
    rest = random_support(rng, layout, 0.1, layout.pattern({"B": 0}))
    indices = np.concatenate([block.indices, rest.indices])
    order = np.argsort(indices)
    sparse = SparseBuffer(layout, indices[order], np.concatenate([block.amplitudes, rest.amplitudes])[order])
    dense = StateVector(layout, sparse.densify().amplitudes)

    selection, reference = post_select(sparse, {"B": 1}), post_select(dense, {"B": 1})
    assert selection.probability.hex() == reference.probability.hex()
    assert selection.renormalized_state.amplitudes.tobytes() == reference.renormalized_state.amplitudes.tobytes()
    decoded = decode_matrix(sparse, "R", "C", pinned, selection.probability)
    assert decoded.tobytes() == decode_matrix(dense, "R", "C", pinned, reference.probability).tobytes()
    # without a selection, from a state whose mass lies in the pinned block
    block_dense = StateVector(layout, block.densify().amplitudes)
    assert decode_matrix(block, "C", "R", pinned).tobytes() == decode_matrix(block_dense, "C", "R", pinned).tobytes()
    for index in (*sparse.indices[:5], 1, layout.size - 1):
        values = dict(zip(layout.names, (int(v) for v in np.unravel_index(index, layout.shape))))
        assert np.complex128(sparse.amplitude(values)).tobytes() == np.complex128(dense.amplitude(values)).tobytes()
    rows = np.arange(8)[:, None]
    for b in (1, np.arange(2)[:, None, None]):
        listed = {"K": 2, "C": rows, "R": rows.T, "B": b}
        assert supported_on(sparse, listed) == supported_on(dense, listed)
        assert supported_on(block, listed) == supported_on(block_dense, listed)


def test_sparse_reads_take_every_exact_zero_part_from_the_cone():
    # a support whose zero parts lost their signs, as a Hadamard layer's
    # +0.0 stand-ins lose them, and that lists only some of the pinned
    # block: with the dense state's amplitudes as its cone, the decoded
    # block, renormalized or not, and every amplitude are the dense bytes
    layout = RegisterLayout((("R", 2), ("B", 1), ("C", 2)))
    rng = np.random.default_rng(37)
    dense = rng.standard_normal(layout.size) + 1j * rng.standard_normal(layout.size)
    zeros = rng.random(layout.size) < 0.5
    dense[zeros] = np.array(SIGNED_ZEROS)[rng.integers(len(SIGNED_ZEROS), size=np.count_nonzero(zeros))]
    dense.real[rng.random(layout.size) < 0.2] = -0.0
    dense.imag[rng.random(layout.size) < 0.2] = -0.0
    dense /= np.linalg.norm(dense)
    pinned = {"B": 1}
    outside = (np.arange(layout.size) & layout.pattern(pinned)[0]) == 0
    dense[outside] = complex(-0.0, -0.0)
    indices = np.flatnonzero((dense != 0) | (rng.random(layout.size) < 0.5))
    lost = dense[indices].copy()
    lost.real[lost.real == 0], lost.imag[lost.imag == 0] = 0.0, 0.0
    sparse = SparseBuffer(layout, indices, lost)
    reference = StateVector(layout, dense)
    mass = float(np.sum(np.abs(dense) ** 2))
    reads = [(), (mass,)]
    assert any(
        decode_matrix(sparse, "R", "C", pinned, *read).tobytes() != decode_matrix(reference, "R", "C", pinned, *read).tobytes()
        for read in reads
    )
    sparse.cone = LightCone(lambda at: dense[at], (dense,))
    for read in reads:
        assert decode_matrix(sparse, "R", "C", pinned, *read).tobytes() == decode_matrix(reference, "R", "C", pinned, *read).tobytes()
    for index in range(layout.size):
        values = dict(zip(layout.names, (int(v) for v in np.unravel_index(index, layout.shape))))
        assert np.complex128(sparse.amplitude(values)).tobytes() == dense[index].tobytes()


@pytest.mark.parametrize(
    "tables, real, imaginary",
    [
        # real tables with one signed among them: only zero real parts
        ([[1.0, -2.0, 0.0, 1.0], [0.5, 0.0]], True, False),
        # no sign bit set at all: no zero part
        ([[1.0, 2.0, 0.0, 1.0], [0.5, 0.0]], False, False),
        # two signed tables multiply into -0.0 imaginary parts
        ([[1.0, -2.0, 0.0, 1.0], [-0.0, 0.5]], True, True),
        # a -0.0 or a nonzero imaginary part: both
        ([[1.0, complex(2.0, -0.0), 0.0, 1.0], [0.5, 0.0]], True, True),
        ([[1.0, 2.0j, 0.0, 1.0], [0.5, 0.0]], True, True),
    ],
)
def test_a_light_cone_marks_the_zero_parts_its_tables_leave_unsure(tables, real, imaginary):
    tables = tuple(np.array(table, dtype=complex) for table in tables)
    values = np.array([1 + 1j, 1.0, 1j, 0.0, complex(-0.0, 2.0), complex(2.0, -0.0), -1 - 1j])
    zero_real = np.flatnonzero(values.real == 0.0)
    zero_imaginary = np.flatnonzero(values.imag == 0.0)
    expected = np.union1d(zero_real if real else [], zero_imaginary if imaginary else []).astype(np.int64)
    cone = LightCone(None, tables)
    assert cone.unsure(values).tolist() == expected.tolist()
    assert cone.unsure(np.array([1 + 1j, -2 - 0.5j])).size == 0
    assert cone.unsure(np.array([0j])).size == (1 if real else 0)


def test_a_decode_evaluates_its_cone_a_block_at_a_time(monkeypatch):
    # a transpose of one nonzero complex entry takes every other decoded
    # entry from its cone: in blocks, besides the returned matrix, a decode
    # holds only their positions (int64, half the matrix's bytes) and one
    # block's arrays, and each entry is the one a single block gives
    matrix = np.zeros((256, 256), dtype=complex)
    matrix[1, 2] = 1 - 1j
    encoded = encode_matrix(matrix)
    reads = []
    plain = algorithms.decode_matrix

    def noted(state, *args):
        reads.append((state, args))
        return plain(state, *args)

    monkeypatch.setattr(algorithms, "decode_matrix", noted)
    whole = algorithms.run_transpose(encoded).output_matrix
    state, args = reads[0]
    assert isinstance(state, SparseBuffer)
    monkeypatch.setattr(state_module, "PREPARE_BLOCK", 1 << 10)
    tracemalloc.start()
    try:
        blocked = plain(state, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.cone.unsure(blocked.reshape(-1)).size == blocked.size - 1
    assert peak <= 2.0 * blocked.nbytes
    assert blocked.tobytes() == whole.tobytes()


# --- decoding ------------------------------------------------------------

def test_decode_rejects_mass_outside_pinned_subspace():
    layout = RegisterLayout((("R", 1), ("C", 1), ("B", 1)))
    amplitudes = np.zeros(8, dtype=complex)
    amplitudes[0] = amplitudes[1] = 1 / math.sqrt(2)  # B carries weight on both values
    state = StateVector(layout, amplitudes)
    with pytest.raises(ValueError):
        decode_matrix(state, "R", "C", {"B": 0})
    # read as post-selected on the whole state, half of it is still outside
    with pytest.raises(ValueError, match="outside the pinned"):
        decode_matrix(state, "R", "C", {"B": 0}, selected_mass=1.0)
    with pytest.raises(ValueError, match="positive"):
        decode_matrix(state, "R", "C", {"B": 0}, selected_mass=0.0)


def test_decode_requires_full_register_coverage():
    layout = RegisterLayout((("R", 1), ("C", 1), ("B", 1)))
    state = prepare_product_state(layout, ())
    with pytest.raises(ValueError):
        decode_matrix(state, "R", "C", {})
    with pytest.raises(ValueError):
        decode_matrix(state, "R", "R", {"B": 0, "C": 0})


@pytest.mark.parametrize(
    "registers",
    [(("R", 2), ("B", 1), ("C", 1)), (("C", 1), ("B", 1), ("R", 2))],
    ids=["row-first", "column-first"],
)
def test_decode_reads_entry_ij_from_row_i_column_j(registers):
    layout = RegisterLayout(registers)
    rng = np.random.default_rng(12)
    amplitudes = random_unit(rng, layout.size)
    for index in range(layout.size):
        if np.unravel_index(index, layout.shape)[layout.names.index("B")] == 0:
            amplitudes[index] = 0
    state = StateVector(layout, amplitudes / np.linalg.norm(amplitudes))
    decoded = decode_matrix(state, "R", "C", {"B": 1})
    expected = [
        [state.amplitude({"R": i, "C": j, "B": 1}) for j in range(2)] for i in range(4)
    ]
    np.testing.assert_array_equal(decoded, expected)


def test_decode_divides_the_pinned_block_as_post_selection_does():
    layout = RegisterLayout((("R", 2), ("C", 3), ("B", 1)))
    amplitudes = random_unit(np.random.default_rng(33), layout.size)
    # a negative zero with a non-negative imaginary part keeps its sign under
    # a reciprocal multiply but not under numpy's complex division
    amplitudes[0] = complex(-0.0, 0.25)
    amplitudes[2] = complex(-0.0, 0.0)
    state = StateVector(layout, amplitudes)
    mass = float(np.sum(np.abs(amplitudes[0::2]) ** 2))
    decoded = decode_matrix(state, "R", "C", {"B": 0}, selected_mass=mass)
    expected = np.divide(amplitudes[0::2], math.sqrt(mass)).reshape(4, 8)
    assert decoded.tobytes() == expected.tobytes()


def test_decode_applies_no_renormalization():
    layout = RegisterLayout((("R", 1), ("C", 1)))
    amplitudes = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    state = StateVector(layout, amplitudes)
    decoded = decode_matrix(state, "R", "C", {})
    np.testing.assert_array_equal(decoded, [[0.5, 0.5], [0.5, 0.5]])


# --- readout -------------------------------------------------------------

@pytest.mark.parametrize("qubits", [3, 10, 14, 16, 20])
def test_squared_mass_is_bitwise_the_plain_sum(monkeypatch, qubits):
    # blocks of the module's size, and of numpy's smallest pairwise block and
    # one above it, so that every width but the smallest crosses blocks
    layout = RegisterLayout((("A", qubits - 2), ("M", 1), ("B", 1)))
    amplitudes = random_unit(np.random.default_rng(qubits), layout.size)
    amplitudes[::3] *= np.exp2(np.arange(amplitudes[::3].size) % 61 - 30)
    whole = float(np.sum(np.abs(amplitudes) ** 2))
    for block in (state_module.MASS_BLOCK, 1 << 7, 1 << 8):
        monkeypatch.setattr(state_module, "MASS_BLOCK", block)
        assert squared_mass(amplitudes).hex() == whole.hex()
        assert StateVector(layout, amplitudes).norm_squared.hex() == whole.hex()
        for pattern in ({"M": 1}, {"A": 1, "B": 0}):
            pinned = qubit_view(amplitudes, layout)[qubit_index(layout, pattern)]
            assert squared_mass(pinned).hex() == float(np.sum(np.abs(pinned) ** 2)).hex()


def test_pinned_share_is_exactly_one_when_nothing_lies_outside():
    layout = RegisterLayout((("A", 1), ("B", 2)))
    inside = StateVector(layout, [0.6, 0, 0, 0.8j, 0, 0, 0, 0])
    assert pinned_share(inside, {"A": 0}) == 1.0
    amplitudes = np.array([0.6, 0, 0, 0, 0, 0.8j, 0, 0])
    split = StateVector(layout, amplitudes)
    assert pinned_share(split, {"A": 0}) == squared_mass(amplitudes[:4]) / squared_mass(amplitudes)
    assert pinned_share(split, {"A": 1, "B": 1}) == squared_mass(amplitudes[5:6]) / squared_mass(amplitudes)


@pytest.mark.parametrize("cap", [None, 0, 2, 100])
def test_occupied_states_lists_register_values_in_index_order(cap):
    layout = RegisterLayout((("R", 2), ("C", 3), ("B", 1)))
    amplitudes = np.zeros(layout.size, dtype=complex)
    occupied = [3, 17, 40, 63]
    amplitudes[occupied] = [1.0, 2j, -3.0, complex(-0.0, 0.5)]
    expected = occupied[:cap]
    for state in (StateVector(layout, amplitudes), StateBuffer(layout, amplitudes.copy())):
        values, listed = occupied_states(state, cap)
        assert list(values) == ["R", "C", "B"]
        np.testing.assert_array_equal(values["R"], [i >> 4 for i in expected])
        np.testing.assert_array_equal(values["C"], [(i >> 1) & 7 for i in expected])
        np.testing.assert_array_equal(values["B"], [i & 1 for i in expected])
        assert listed.tobytes() == amplitudes[expected].tobytes()


def test_supported_on_counts_only_nonzero_parts():
    layout = RegisterLayout((("R", 2), ("C", 2), ("B", 1)))
    rows = np.arange(4)[:, None]
    listed = {"R": rows, "C": rows ^ 1, "B": 0}
    inside = [layout.basis_index({"R": r, "C": r ^ 1, "B": 0}) for r in range(4)]
    amplitudes = np.zeros(layout.size, dtype=complex)
    amplitudes[inside[:3]] = [0.6, 0.8j, complex(0.0, -0.0)]
    amplitudes[1] = complex(-0.0, -0.0)  # a signed zero is no amplitude
    for state in (StateVector(layout, amplitudes), StateBuffer(layout, amplitudes.copy())):
        assert supported_on(state, listed)
    with_b = {**listed, "B": np.arange(2)[:, None, None]}
    for outside, value in ((1, 5e-324), (31, 1e-300j), (inside[3] + 1, -1.0)):
        spread = amplitudes.copy()
        spread[outside] = value
        assert not supported_on(StateVector(layout, spread), listed)
        # with B free, only the last of them lies on a listed state
        assert supported_on(StateVector(layout, spread), with_b) == (outside == inside[3] + 1)


# --- ancilla vectors -----------------------------------------------------

def test_row_add_ancilla_is_balanced_pair():
    vec = AncillaVector("row-add", k=3, l=1, num_row_qubits=2).amplitudes()
    expected = np.zeros(4, dtype=complex)
    expected[1] = expected[3] = 1 / math.sqrt(2)
    np.testing.assert_allclose(vec, expected)


def test_row_swap_ancilla_three_way():
    vec = AncillaVector("row-swap", k=3, l=1, num_row_qubits=2).amplitudes()
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    hot = {(1, 3), (3, 3), (1, 1)}
    for index in range(16):
        pair = (index >> 2, index & 3)
        if pair in hot:
            assert abs(vec[index] - 1 / math.sqrt(3)) < 1e-12
        else:
            assert vec[index] == 0


def test_ancilla_rejects_equal_rows_and_bad_kind():
    with pytest.raises(ValueError):
        AncillaVector("row-add", k=1, l=1, num_row_qubits=1)
    with pytest.raises(ValueError):
        AncillaVector("other", k=0, l=1, num_row_qubits=1)
    with pytest.raises(ValueError):
        AncillaVector("row-add", k=4, l=1, num_row_qubits=2)
