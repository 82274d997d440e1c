import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmatops import (
    ControlledOp,
    FlipQubit,
    GateCounts,
    HadamardLayer,
    Netlist,
    Projector,
    RegisterLayout,
    RegisterSwapGate,
    SparseBuffer,
    StateBuffer,
    StateVector,
    SwapRegisters,
    apply_gate,
    decompose_mcx,
    dense_mcx,
    dense_unitary_of,
    lower,
    prepare_product_state,
    tally_gates,
)
from qmatops import gates
from qmatops.gates import support_growth
from qmatops.algorithms import (
    row_add_circuit,
    row_swap_circuit,
    trace_circuit,
    transpose_circuit,
    transpose_square_circuit,
)
from qmatops.gates import NetworkGate
from qmatops.state import prepared_at
from qmatops.oracle import controlled_op_image, mcx_reference_action

LAYOUT = RegisterLayout((("R", 2), ("C", 2), ("B", 1)))


def random_state(layout, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(layout.size) + 1j * rng.standard_normal(layout.size)
    return StateVector(layout, raw / np.linalg.norm(raw))


def buffer_of(state):
    """A run buffer over a copy of a frozen state's amplitudes."""
    return StateBuffer(state.layout, state.amplitudes.copy())


def test_controlled_flip_moves_only_selected_amplitudes():
    state = random_state(LAYOUT, 1)
    op = ControlledOp(Projector(register_values=(("R", 2),)), FlipQubit("B", 0))
    result = apply_gate(buffer_of(state), op)
    indices = np.arange(LAYOUT.size)
    selected = np.unravel_index(indices, LAYOUT.shape)[0] == 2
    # untouched amplitudes are identical down to the bit
    np.testing.assert_array_equal(
        result.amplitudes[~selected], state.amplitudes[~selected]
    )
    flipped = indices[selected] ^ 1
    np.testing.assert_array_equal(result.amplitudes[flipped], state.amplitudes[indices[selected]])


def test_controlled_ops_match_dense_oracle():
    ops = [
        ControlledOp(Projector(register_values=(("R", 1),)), FlipQubit("B", 0)),
        ControlledOp(Projector(register_values=(("B", 1),)), SwapRegisters("R", "C")),
        ControlledOp(
            Projector(qubit_bits=(("R", 0, 0), ("C", 1, 1))), FlipQubit("B", 0)
        ),
    ]
    state = random_state(LAYOUT, 2)
    for op in ops:
        simulated = apply_gate(buffer_of(state), op).amplitudes
        dense = dense_unitary_of(op, LAYOUT) @ state.amplitudes
        np.testing.assert_array_equal(simulated, dense)


def test_uncontrolled_flip_is_global_x():
    state = random_state(LAYOUT, 3)
    op = ControlledOp(Projector(), FlipQubit("B", 0))
    result = apply_gate(buffer_of(state), op)
    np.testing.assert_array_equal(result.amplitudes, state.amplitudes[np.arange(32) ^ 1])


def test_controlled_op_rejects_target_overlap_and_width_mismatch():
    state = buffer_of(random_state(LAYOUT, 4))
    with pytest.raises(ValueError):
        apply_gate(
            state,
            ControlledOp(Projector(qubit_bits=(("B", 0, 1),)), FlipQubit("B", 0)),
        )
    with pytest.raises(ValueError):
        apply_gate(
            state, ControlledOp(Projector(), SwapRegisters("R", "B"))
        )
    with pytest.raises(ValueError):
        apply_gate(state, ControlledOp(Projector(), SwapRegisters("R", "R")))


UNRUNNABLE_GATES = [
    ControlledOp(Projector(register_values=(("C", 0),)), SwapRegisters("R", "B")),
    RegisterSwapGate("R", "B"),
    ControlledOp(Projector(), SwapRegisters("R", "R")),
    ControlledOp(Projector(register_values=(("R", 1),)), SwapRegisters("R", "C")),
    ControlledOp(Projector(qubit_bits=(("B", 0, 1),)), FlipQubit("B", 0)),
    ControlledOp(Projector(), FlipQubit("B", 3)),
    # a register the layout lacks is a ValueError everywhere, not a KeyError
    ControlledOp(Projector(), FlipQubit("Z", 0)),
    ControlledOp(Projector(register_values=(("B", 1),)), SwapRegisters("R", "Z")),
    ControlledOp(Projector(register_values=(("Z", 1),)), FlipQubit("B", 0)),
    ControlledOp(Projector(qubit_bits=(("Z", 0, 1),)), FlipQubit("B", 0)),
    HadamardLayer(("R", "Z")),
    HadamardLayer((("Z", 0),)),
]
UNRUNNABLE_IDS = [
    "cswap-unequal-widths",
    "regswap-unequal-widths",
    "swap-with-itself",
    "swap-of-a-control",
    "flip-of-its-control",
    "flip-out-of-range",
    "unknown-flip-target",
    "unknown-swap-register",
    "unknown-projector-register",
    "unknown-projector-qubit",
    "unknown-hadamard-register",
    "unknown-hadamard-qubit",
]


@pytest.mark.parametrize("gate", UNRUNNABLE_GATES, ids=UNRUNNABLE_IDS)
def test_tally_rejects_every_gate_apply_gate_rejects(gate):
    with pytest.raises(ValueError):
        apply_gate(buffer_of(random_state(LAYOUT, 8)), gate)
    with pytest.raises(ValueError):
        lower(gate, LAYOUT)
    with pytest.raises(ValueError):
        tally_gates([("step", gate)], LAYOUT)


@pytest.mark.parametrize("gate", UNRUNNABLE_GATES, ids=UNRUNNABLE_IDS)
def test_dense_oracle_rejects_every_gate_apply_gate_rejects(gate):
    with pytest.raises(ValueError):
        dense_unitary_of(gate, LAYOUT)


FROZEN_GATES = [
    ControlledOp(Projector(register_values=(("R", 1),)), FlipQubit("B", 0)),
    HadamardLayer(("R",)),
    RegisterSwapGate("R", "C"),
]
FROZEN_IDS = ["flip", "hadamard", "regswap"]


@pytest.mark.parametrize("gate", FROZEN_GATES, ids=FROZEN_IDS)
def test_apply_gate_refuses_a_frozen_state(gate):
    state = random_state(LAYOUT, 10)
    before = state.amplitudes.tobytes()
    with pytest.raises(TypeError, match="StateBuffer"):
        apply_gate(state, gate)
    assert state.amplitudes.tobytes() == before
    assert not state.amplitudes.flags.writeable


@pytest.mark.parametrize("gate", FROZEN_GATES, ids=FROZEN_IDS)
def test_apply_gate_refuses_a_frozen_sparse_state(gate):
    # the frozen arrays are read-only, so keeping them keeps the state
    state = random_support(LAYOUT, 10).freeze()
    indices, amplitudes = state.indices, state.amplitudes
    with pytest.raises(TypeError, match="frozen SparseBuffer"):
        apply_gate(state, gate)
    assert state.indices is indices and state.amplitudes is amplitudes


@pytest.mark.parametrize("gate", FROZEN_GATES, ids=FROZEN_IDS)
def test_apply_gate_refuses_a_frozen_state_buffer(gate):
    # freeze makes the buffer's own array read-only; the refusal comes
    # before any write, not as numpy's read-only error
    buffer = buffer_of(random_state(LAYOUT, 10))
    before = buffer.amplitudes.tobytes()
    buffer.freeze()
    with pytest.raises(TypeError, match="frozen StateBuffer"):
        apply_gate(buffer, gate)
    assert buffer.amplitudes.tobytes() == before


def test_register_swap_gate_is_a_swap_under_the_empty_projector():
    gate = RegisterSwapGate("R", "C")
    assert isinstance(gate, ControlledOp)
    assert (gate.projector, gate.action) == (Projector(), SwapRegisters("R", "C"))
    # the benchmark's per-layer split reports gates by class name
    assert type(gate).__name__ == "RegisterSwapGate"


def test_projector_rejects_double_conditioning():
    with pytest.raises(ValueError):
        Projector(register_values=(("R", 1),), qubit_bits=(("R", 0, 1),)).resolve(LAYOUT)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_controlled_ops_are_involutions(seed):
    state = random_state(LAYOUT, seed)
    for op in (
        ControlledOp(Projector(register_values=(("C", 3),)), FlipQubit("B", 0)),
        ControlledOp(Projector(register_values=(("B", 1),)), SwapRegisters("R", "C")),
    ):
        twice = apply_gate(apply_gate(buffer_of(state), op), op)
        np.testing.assert_array_equal(twice.amplitudes, state.amplitudes)


@st.composite
def random_circuits(draw):
    """A layout of at most 8 qubits and a random gate sequence over it."""
    widths = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda w: sum(w) <= 8)
    )
    registers = tuple((f"Q{i}", width) for i, width in enumerate(widths))
    qubits = [(name, q) for name, width in registers for q in range(width)]

    def projector(busy):
        """Conditions on whole registers and single qubits outside ``busy``."""
        free = [(n, w) for n, w in registers if not any((n, q) in busy for q in range(w))]
        chosen = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
        values = tuple((n, draw(st.integers(0, (1 << w) - 1))) for n, w in chosen)
        busy = busy | {(n, q) for n, w in chosen for q in range(w)}
        loose = [pair for pair in qubits if pair not in busy]
        picked = draw(st.lists(st.sampled_from(loose), unique=True)) if loose else []
        bits = tuple((n, q, draw(st.integers(0, 1))) for n, q in picked)
        return Projector(register_values=values, qubit_bits=bits)

    same_width = [
        (a, b) for a, wa in registers for b, wb in registers if a < b and wa == wb
    ]
    kinds = ["flip", "hadamard"] + (["cswap", "regswap"] if same_width else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "flip":
            target = draw(st.sampled_from(qubits))
            gates.append(ControlledOp(projector({target}), FlipQubit(*target)))
        elif kind == "hadamard":
            # a whole register or a single qubit, never covering a qubit twice
            options = [(n, {(n, q) for q in range(w)}) for n, w in registers]
            options += [(pair, {pair}) for pair in qubits]
            targets, covered = [], set()
            for target, positions in draw(st.lists(st.sampled_from(options), min_size=1)):
                if not positions & covered:
                    covered |= positions
                    targets.append(target)
            gates.append(HadamardLayer(tuple(targets)))
        else:
            a, b = draw(st.sampled_from(same_width))
            if kind == "regswap":
                gates.append(RegisterSwapGate(a, b))
            else:
                busy = {(n, q) for n, w in registers if n in (a, b) for q in range(w)}
                gates.append(ControlledOp(projector(busy), SwapRegisters(a, b)))
    return RegisterLayout(registers), gates


def accept_pattern(data, layout):
    """A random (mask, bits) pattern over the layout's basis indices."""
    mask = data.draw(st.integers(0, layout.size - 1))
    return mask, data.draw(st.integers(0, layout.size - 1)) & mask


def in_cubes(layout, cubes):
    """Which basis indices of the layout lie in one of the (mask, bits) cubes."""
    states = np.arange(layout.size)
    return np.logical_or.reduce([(states & mask) == bits for mask, bits in cubes])


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), data=st.data())
def test_pull_back_holds_every_state_that_reaches_the_accept_pattern(circuit, data):
    # outside the cubes, the gates applied densely leave exact zeros on the
    # accepted subspace: no product of their matrix entries links the two
    layout, gate_list = circuit
    accept = accept_pattern(data, layout)
    cubes = gates.pull_back(layout, tuple(gate_list), accept)
    # six gates at most double one cube six times, within READ_CUBES
    assert cubes is not None
    unitary = np.eye(layout.size, dtype=complex)
    for gate in gate_list:
        unitary = dense_unitary_of(gate, layout) @ unitary
    accepted, read = in_cubes(layout, [accept]), in_cubes(layout, cubes)
    assert np.all(unitary[np.ix_(accepted, ~read)] == 0)


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sparse_hadamard_computes_the_outputs_it_is_given_bitwise(circuit, data, seed):
    # each Hadamard layer computes only the outputs that the gates after it
    # can carry into the accept pattern; after every gate, the states the
    # rest can carry there hold the dense bits, +0.0 where the support lists
    # nothing, and after the last gate those are the accepted subspace
    layout, gate_list = circuit
    accept = accept_pattern(data, layout)
    sparse = random_support(layout, seed)
    dense = sparse.densify()
    for position, gate in enumerate(gate_list):
        live = gates.pull_back(layout, tuple(gate_list[position + 1 :]), accept)
        reads = live if isinstance(gate, HadamardLayer) else None
        # the index half a run's plan hands the gate
        sparse.planned = gates.sparse_step(layout, sparse.indices, gate, reads)
        bound = sparse.indices.size * support_growth(layout, gate, reads)
        apply_gate(sparse, gate)
        apply_gate(dense, gate)
        assert sparse.planned is None
        assert np.all(np.diff(sparse.indices) > 0) and sparse.indices.size <= bound
        read = in_cubes(layout, live)
        assert sparse.densify().amplitudes[read].tobytes() == dense.amplitudes[read].tobytes()
    assert live == (accept,)


def planted_tables(layout, seed):
    """A unit table over each register but, at random, a few left in |0>,
    with signed zeros and subnormals planted among their entries."""
    rng = np.random.default_rng(seed)
    planted = np.array([complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 0j, complex(5e-324, -5e-324)])
    parts = []
    for name, width in layout.registers:
        if rng.random() < 0.25:
            continue
        table = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
        table /= np.linalg.norm(table)
        picked = rng.random(table.size) < 0.4
        picked[rng.integers(table.size)] = False  # a nonzero entry, so the norm stays 1
        table[picked] = planted[rng.integers(planted.size, size=np.count_nonzero(picked))]
        table /= np.linalg.norm(table)
        parts.append(((name,), table))
    return parts


@settings(max_examples=80, deadline=None)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1), box=st.sampled_from([1, 4, 8, 1 << 12, 1 << 16]))
def test_light_cone_is_bitwise_the_dense_run(circuit, seed, box):
    # every position's amplitude from its light cone alone, the leaves in
    # blocks of ``box``, has the dense run's bytes, signed zeros included;
    # a light cone costs 2^(its Hadamard targets) leaves per position, so
    # the small blocks read a few positions
    layout, gate_list = circuit
    targets = sum(bin(gates.moved_bits(layout, gate)).count("1") for gate in gate_list if isinstance(gate, HadamardLayer))
    assume(targets <= 12)
    parts = planted_tables(layout, seed)
    dense = StateBuffer.adopt(prepare_product_state(layout, parts))
    for gate in gate_list:
        apply_gate(dense, gate)
    at = np.arange(layout.size)
    if box < 1 << 12:
        at = np.random.default_rng(seed).choice(at, min(at.size, 4), replace=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gates, "BOX", box)
        cone = gates.light_cone(layout, tuple(gate_list), at, prepared_at(layout, parts))
    assert cone.tobytes() == dense.amplitudes[at].tobytes()


def test_sparse_hadamard_keeps_the_half_its_cubes_fix():
    # |000> and |100> read along A: only A = 0 is read, so only their sum is
    # computed; |011> agrees with no cube off the target and is dropped
    layout = RegisterLayout((("A", 1), ("B", 2)))
    state = SparseBuffer(layout, np.array([0b000, 0b011, 0b100]), np.array([0.5, 1.0, 0.25], dtype=complex))
    mask, bits = layout.pattern({"A": 0, "B": 0})
    layer = HadamardLayer(("A",))
    state.planned = gates.sparse_step(layout, state.indices, layer, ((mask, bits),))
    assert support_growth(layout, layer, ((mask, bits),)) == 1
    apply_gate(state, layer)
    assert state.indices.tolist() == [0b000]
    assert state.amplitudes.tolist() == [(0.5 + 0.25) / math.sqrt(2)]
    assert state.planned is None
    # with no listed entry in reach, one read output is listed as +0.0
    state.planned = gates.sparse_step(layout, state.indices, layer, ((mask, bits | 0b001),))
    assert support_growth(layout, layer, ((mask, bits | 0b001),)) == 1
    apply_gate(state, layer)
    assert state.indices.tolist() == [0b001]
    assert state.amplitudes.tobytes() == np.zeros(1, dtype=complex).tobytes()


def test_pull_back_of_the_trace_circuit():
    # the remark flip after trace's Hadamard sum: B2 = 1 reads either an
    # accepted state itself or R = C = A = 0, B1 = 1 and B2 = 0, which the
    # flip sends there
    circuit = trace_circuit(2)
    layout = circuit.layout
    after_sum = tuple(gate for label, gate in circuit.gates() if label == "step5-remark-useful")
    cubes = gates.pull_back(layout, after_sum, layout.pattern(circuit.accept))
    assert cubes == (layout.pattern({"B2": 1}), layout.pattern({"R": 0, "C": 0, "A": 0, "B1": 1, "B2": 0}))
    # a later Hadamard layer frees its targets
    assert gates.pull_back(layout, (HadamardLayer(("B2",)),), layout.pattern(circuit.accept)) == ((0, 0),)


def test_support_growth_skips_a_cube_that_needs_a_one_where_every_state_holds_zero():
    # trace's Hadamard sum: the cube B2 = 1 leaves R, C and A free, but B2
    # starts in |0> and no gate before the sum moves it; the other cube
    # fixes all of them
    circuit = trace_circuit(2)
    layout = circuit.layout
    listed = [gate for _, gate in circuit.gates()]
    at = next(i for i, gate in enumerate(listed) if isinstance(gate, HadamardLayer))
    cubes = gates.pull_back(layout, tuple(listed[at + 1 :]), layout.pattern(circuit.accept))
    b1, b2 = layout.field_mask("B1"), layout.field_mask("B2")
    assert support_growth(layout, listed[at], cubes) == 1 << 6
    assert support_growth(layout, listed[at], cubes, zeros=b2) == 1
    # a zero bit that the layer targets is mixed, so it skips no cube
    assert support_growth(layout, HadamardLayer(("B1", "B2")), (layout.pattern({"B2": 1}),), zeros=b2) == 2
    assert gates.moved_bits(layout, listed[at]) == sum(layout.field_mask(name) for name in ("R", "C", "A"))
    assert gates.moved_bits(layout, listed[at - 1]) == b1
    assert gates.moved_bits(layout, RegisterSwapGate("R", "C")) == layout.field_mask("R") | layout.field_mask("C")


def test_pull_back_past_read_cubes_reads_every_state():
    # each unconditional flip of a fixed qubit doubles the cubes
    layout = RegisterLayout((("Q", 7),))
    flips = tuple(ControlledOp(Projector(), FlipQubit("Q", q)) for q in range(7))
    assert len(gates.pull_back(layout, flips[:6], (127, 0))) == gates.READ_CUBES
    assert gates.pull_back(layout, flips, (127, 0)) is None


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_gate_application_matches_dense_unitaries(circuit, seed):
    layout, gate_list = circuit
    state = buffer_of(random_state(layout, seed))
    for gate in gate_list:
        dense = dense_unitary_of(gate, layout) @ state.amplitudes
        apply_gate(state, gate)
        if isinstance(gate, HadamardLayer):
            np.testing.assert_allclose(state.amplitudes, dense, rtol=0, atol=1e-12)
        else:
            # permutations move amplitudes without arithmetic
            np.testing.assert_array_equal(state.amplitudes, dense)


def random_support(layout, seed, share=0.3):
    """A sparse state over about ``share`` of the basis states, with signed
    and exact zeros among its amplitudes."""
    rng = np.random.default_rng(seed)
    indices = np.union1d(np.flatnonzero(rng.random(layout.size) < share), [0]).astype(np.int64)
    amplitudes = rng.standard_normal(indices.size) + 1j * rng.standard_normal(indices.size)
    zeros = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    picked = rng.random(indices.size) < 0.25
    amplitudes[picked] = zeros[rng.integers(zeros.size, size=np.count_nonzero(picked))]
    return SparseBuffer(layout, indices, amplitudes)


def assert_sparse_matches_dense(sparse, dense, gates_in_order):
    """Each gate on the support and on the dense buffer of the same state:
    the support stays sorted and holds the dense result's bits, +0.0
    wherever it lists nothing."""
    for gate in gates_in_order:
        assert apply_gate(sparse, gate) is sparse
        apply_gate(dense, gate)
        assert np.all(np.diff(sparse.indices) > 0)
        assert sparse.densify().amplitudes.tobytes() == dense.amplitudes.tobytes()


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(), seed=st.integers(0, 2**32 - 1))
def test_sparse_gates_are_bitwise_the_dense_gates(circuit, seed):
    layout, gate_list = circuit
    sparse = random_support(layout, seed)
    assert_sparse_matches_dense(sparse, sparse.densify(), gate_list)


@pytest.mark.parametrize(
    "circuit",
    [row_add_circuit(2, 2, 1, 3), row_swap_circuit(2, 1, 0, 2), trace_circuit(2), transpose_circuit(2, 3)],
    ids=["row-add", "row-swap", "trace", "transpose"],
)
def test_routine_gates_on_a_support_are_bitwise_the_dense_gates(circuit):
    sparse = random_support(circuit.layout, 41, share=0.05)
    assert_sparse_matches_dense(sparse, sparse.densify(), [gate for _, gate in circuit.gates()])


@pytest.mark.parametrize("seed", range(4))
def test_sparse_hadamard_with_targets_from_low_bit_to_high(seed):
    # each target leaves its outputs as two sorted runs, which the next
    # target's pairing merges; from the lowest bit up every key moves
    layout = RegisterLayout((("A", 3), ("B", 4)))
    layer = HadamardLayer((*(("B", q) for q in reversed(range(4))), ("A", 2), ("A", 0)))
    assert gates._plan(layout, layer).targets == (1, 2, 4, 8, 16, 64)
    sparse = random_support(layout, seed, share=0.2)
    assert_sparse_matches_dense(sparse, sparse.densify(), [layer])
    # and with a read cube, which drops outputs between targets
    sparse, accept = random_support(layout, seed, share=0.2), layout.pattern({"A": 5})
    dense = sparse.densify()
    sparse.planned = gates.sparse_step(layout, sparse.indices, layer, gates.pull_back(layout, (), accept))
    apply_gate(sparse, layer)
    apply_gate(dense, layer)
    read = in_cubes(layout, [accept])
    assert sparse.densify().amplitudes[read].tobytes() == dense.amplitudes[read].tobytes()


def test_sparse_hadamard_keeps_every_computed_amplitude():
    layout = RegisterLayout((("A", 1), ("B", 2)))
    # along A, |000> and |100> cancel in their lower output; |001> is alone
    state = SparseBuffer(layout, np.array([0b000, 0b001, 0b100]), np.array([0.5, 1.0, 0.5], dtype=complex))
    apply_gate(state, HadamardLayer(("A",)))
    c = 1 / math.sqrt(2)
    assert state.indices.tolist() == [0b000, 0b001, 0b100, 0b101]
    assert state.amplitudes.tolist() == [(0.5 + 0.5) * c, (1.0 + 0.0) * c, 0.0, (1.0 - 0.0) * c]
    assert support_growth(layout, HadamardLayer(("A", "B"))) == 8
    assert support_growth(layout, ControlledOp(Projector(), FlipQubit("B", 0))) == 1


@pytest.mark.parametrize("gate", UNRUNNABLE_GATES, ids=UNRUNNABLE_IDS)
def test_sparse_apply_gate_refuses_what_the_dense_one_refuses(gate):
    state = random_support(LAYOUT, 42)
    indices, amplitudes = state.indices.tobytes(), state.amplitudes.tobytes()
    with pytest.raises(ValueError):
        apply_gate(state, gate)
    assert state.indices.tobytes() == indices and state.amplitudes.tobytes() == amplitudes


@pytest.mark.parametrize(
    "gate, scratch",
    [
        # two scratch arrays of BOX amplitudes
        (
            ControlledOp(Projector(register_values=(("B", 1),)), FlipQubit("X", 3)),
            2 * gates.BOX,
        ),
        (
            ControlledOp(Projector(qubit_bits=(("B", 0, 1),)), SwapRegisters("X", "Y")),
            2 * gates.BOX,
        ),
        (RegisterSwapGate("X", "Y"), 2 * gates.BOX),
        # three scratch arrays of BOX amplitudes
        (HadamardLayer(("X", "Y", "B")), 3 * gates.BOX),
    ],
    ids=["flip", "cswap", "regswap", "hadamard"],
)
def test_in_place_gate_allocates_at_most_one_temporary(gate, scratch):
    # one absolute bound at 15 and at 19 qubits (512 KiB and 8 MiB states):
    # the kernel's scratch plus 64 KiB of views, index tuples, the op's plan
    # and the interpreter's free lists, nothing that grows with the state;
    # and never more than 0.4x the state
    for width in (7, 9):
        layout = RegisterLayout((("X", width), ("Y", width), ("B", 1)))
        buffer = StateBuffer(layout, random_state(layout, 12).amplitudes.copy())
        bound = min(0.4 * buffer.amplitudes.nbytes, scratch * 16 + (64 << 10))
        # a cold call, which builds the op's plan, and a warm one
        gates._plan.cache_clear()
        for _ in range(2):
            tracemalloc.start()
            try:
                assert apply_gate(buffer, gate) is buffer
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, (width, peak)
        assert buffer.amplitudes.flags.writeable


def _every_controlled_op():
    """(layout, op) for every controlled op of every routine at several
    shapes, and swaps whose registers sit on either side of the controls."""
    circuits = [
        *(row_add_circuit(n, m, 0, (1 << n) - 1) for n, m in ((1, 1), (2, 1), (1, 3), (2, 3))),
        *(row_swap_circuit(n, m, 1, 0) for n, m in ((1, 1), (1, 3), (2, 1))),
        *(trace_circuit(n) for n in (1, 2, 3)),
        *(transpose_circuit(n, m) for n, m in ((1, 1), (1, 3), (3, 2), (2, 4))),
        *(transpose_square_circuit(s) for s in (1, 2, 4, 5)),
    ]
    pairs = [
        (circuit.layout, gate)
        for circuit in circuits
        for _, gate in circuit.gates()
        if isinstance(gate, ControlledOp)
    ]
    around = RegisterLayout((("P", 3), ("K", 2), ("Q", 3), ("Z", 1)))
    controls = (
        Projector(register_values=(("K", 2),)),
        Projector(qubit_bits=(("K", 1, 1), ("Z", 0, 0))),
    )
    pairs += [(around, ControlledOp(controls[0], SwapRegisters("Q", "P")))]
    pairs += [(around, ControlledOp(controls[1], SwapRegisters("P", "Q")))]
    pairs += [(around, RegisterSwapGate("Q", "P"))]
    return pairs


@pytest.mark.parametrize("box_qubits", [1, 2, 3])
def test_exchanges_in_small_pieces_are_bitwise_the_oracle(monkeypatch, box_qubits):
    monkeypatch.setattr(gates, "BOX", 1 << box_qubits)
    for number, (layout, op) in enumerate(_every_controlled_op()):
        raw = random_state(layout, number).amplitudes.copy()
        raw[::5] = 0
        raw[::7] *= -0.0
        image = controlled_op_image(op, layout)
        expected = np.empty_like(raw)
        expected[[image(source) for source in range(layout.size)]] = raw
        result = apply_gate(StateBuffer(layout, raw.copy()), op).amplitudes
        assert result.tobytes() == expected.tobytes(), (layout, op)
        if layout.total_qubits <= 8:
            np.testing.assert_array_equal(result, dense_unitary_of(op, layout) @ raw)


def reference_hadamard(amplitudes, positions):
    """One whole-state butterfly per qubit axis, in the given order."""
    work = np.array(amplitudes)
    for position in positions:
        pairs = work.reshape((1 << position, 2, -1))
        upper, lower = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
        pairs[:, 0, :] = (upper + lower) * (1 / math.sqrt(2))
        pairs[:, 1, :] = (upper - lower) * (1 / math.sqrt(2))
    return work


def _layer_positions(layout, layer):
    """A Hadamard layer's target qubits, as axes of the one-axis-per-qubit
    view, in the layer's order."""
    positions = []
    for target in layer.targets:
        if isinstance(target, str):
            positions += range(layout.offset(target), layout.offset(target) + layout.width(target))
        else:
            positions.append(layout.offset(target[0]) + target[1])
    return positions


def _routine_hadamard_cases():
    """Every routine's Hadamard layer at two widths, under boxes of 2^1
    and of 2^3 amplitudes: the columns of strides below MIN_ROW, and the
    rows of longer strides, are cut into several boxes or fill one.  An
    id's ``piece`` is the box's qubits; its ``block`` stays only so that
    the ids stay stable."""
    circuits = {
        "row-add": (row_add_circuit(1, 2, 0, 1), row_add_circuit(2, 3, 1, 3)),
        "row-swap": (row_swap_circuit(1, 2, 1, 0), row_swap_circuit(2, 2, 3, 0)),
        "trace": (trace_circuit(2), trace_circuit(3)),
    }
    cases = []
    for name, pair in circuits.items():
        for circuit in pair:
            layout = circuit.layout
            for _, gate in circuit.gates():
                if not isinstance(gate, HadamardLayer):
                    continue
                positions = _layer_positions(layout, gate)
                for block_qubits, box_qubits in ((3, 1), (4, 3)):
                    cases.append(
                        pytest.param(
                            box_qubits, layout.registers, gate.targets, positions,
                            id=f"{name}-{layout.total_qubits}q-block{block_qubits}-piece{box_qubits}",
                        )
                    )
    return cases


@pytest.mark.parametrize(
    "box_qubits, registers, targets, positions",
    [
        # B's qubits and C's last have strides below MIN_ROW and go column
        # by column, C's first two and R's qubit 2 in rows longer than a
        # box; the order is mixed
        pytest.param(
            2, (("R", 3), ("C", 3), ("B", 2)), ("B", ("R", 2), "C"), [6, 7, 2, 3, 4, 5],
            id="split-in-register",
        ),
        pytest.param(
            1, (("R", 3), ("C", 3), ("B", 2)), (("C", 2), ("R", 0), "B", ("R", 1)), [5, 0, 6, 7, 1],
            id="single-qubits",
        ),
        # the module's own box: columns, several rows to a box, and rows
        # cut into boxes
        pytest.param(
            None, (("R", 6), ("C", 6), ("A", 5)), ("A", ("R", 0), "C"),
            [12, 13, 14, 15, 16, 0, 6, 7, 8, 9, 10, 11],
            id="module-block",
        ),
        *_routine_hadamard_cases(),
    ],
)
def test_blocked_hadamard_is_bitwise_exact(monkeypatch, box_qubits, registers, targets, positions):
    if box_qubits is not None:
        monkeypatch.setattr(gates, "BOX", 1 << box_qubits)
    layout = RegisterLayout(registers)
    raw = random_state(layout, 14).amplitudes.copy()
    raw[::5] = 0
    raw[::7] *= -0.0
    expected = reference_hadamard(raw, positions).tobytes()
    layer = HadamardLayer(targets)
    assert apply_gate(StateBuffer(layout, raw.copy()), layer).amplitudes.tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(circuit=random_circuits(), box_qubits=st.sampled_from((1, 2, 3, 12)), seed=st.integers(0, 2**32 - 1))
def test_dense_gates_in_small_boxes_match_their_dense_unitaries(circuit, box_qubits, seed):
    # each gate of a random circuit, in boxes of 2^1-2^3 amplitudes or of
    # the module's size, against its oracle matrix, with zeros
    # and -0.0 planted: a controlled op exactly, and bitwise as its oracle
    # permutation; a Hadamard layer bitwise as one whole-state butterfly
    # per qubit, and to rounding as its matrix, since a matrix product
    # rounds c*u + c*l where a butterfly rounds (u + l) * c
    layout, gate_list = circuit
    raw = random_state(layout, seed).amplitudes.copy()
    raw[::5] = 0
    raw[::7] *= -0.0
    buffer = StateBuffer(layout, raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gates, "BOX", 1 << box_qubits)
        for gate in gate_list:
            before = buffer.amplitudes.copy()
            apply_gate(buffer, gate)
            product = dense_unitary_of(gate, layout) @ before
            if isinstance(gate, HadamardLayer):
                expected = reference_hadamard(before, _layer_positions(layout, gate))
                np.testing.assert_allclose(buffer.amplitudes, product, rtol=0, atol=1e-13)
            else:
                image = controlled_op_image(gate, layout)
                expected = np.empty_like(before)
                expected[[image(source) for source in range(layout.size)]] = before
                np.testing.assert_array_equal(buffer.amplitudes, product)
            assert buffer.amplitudes.tobytes() == expected.tobytes(), gate


def test_hadamard_layer_uniform_superposition():
    layout = RegisterLayout((("B1", 1), ("B2", 1)))
    ground = StateVector(layout, [1, 0, 0, 0])
    mixed = apply_gate(buffer_of(ground), HadamardLayer(("B1", "B2")))
    np.testing.assert_allclose(mixed.amplitudes, np.full(4, 0.5), atol=1e-15)


def test_hadamard_layer_matches_dense_and_preserves_norm():
    state = random_state(LAYOUT, 5)
    layer = HadamardLayer(("R", ("C", 1)))
    simulated = apply_gate(buffer_of(state), layer).freeze()
    dense = dense_unitary_of(layer, LAYOUT) @ state.amplitudes
    np.testing.assert_allclose(simulated.amplitudes, dense, atol=1e-14)
    assert abs(simulated.norm_squared - 1.0) < 1e-12


def test_hadamard_rejects_duplicate_targets():
    state = buffer_of(random_state(LAYOUT, 6))
    with pytest.raises(ValueError):
        apply_gate(state, HadamardLayer(("R", ("R", 0))))


def test_register_swap_is_exact_permutation():
    state = random_state(LAYOUT, 7)
    swapped = apply_gate(buffer_of(state), RegisterSwapGate("R", "C"))
    key = lambda z: (z.real, z.imag)
    assert sorted(swapped.amplitudes, key=key) == sorted(state.amplitudes, key=key)
    back = apply_gate(swapped, RegisterSwapGate("R", "C"))
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)


# --- multi-controlled X networks ------------------------------------------

def test_mcx_single_control_is_one_cnot():
    network = decompose_mcx(1)
    counts = network.counts()
    assert counts.toffoli == 0 and counts.cnot == 1 and counts.single_qubit == 0
    assert network.num_work_qubits == 0


def test_mcx_counts_follow_uniform_ladder():
    for controls in range(1, 13):
        counts = decompose_mcx(controls).counts()
        assert counts.toffoli == 2 * (controls - 1)
        assert counts.cnot == 1
        network = decompose_mcx(controls)
        assert network.num_work_qubits == max(0, controls - 1)


def test_mcx_toffoli_counts_are_exactly_linear():
    controls = list(range(2, 13))
    counts = [decompose_mcx(c).counts().toffoli for c in controls]
    slope = counts[1] - counts[0]
    assert slope == 2
    assert all(c2 - c1 == slope for c1, c2 in zip(counts, counts[1:]))


def test_mcx_dense_equivalence_small():
    for controls in range(1, 5):
        for polarity in ((1,) * controls, tuple((i + 1) % 2 for i in range(controls))):
            network = decompose_mcx(controls, polarity)
            dense = dense_unitary_of(network)
            block = 1 << (controls + 1)
            np.testing.assert_array_equal(dense[:block, :block], dense_mcx(controls, polarity))
            if dense.shape[0] > block:
                assert not np.any(dense[block:, :block])


def test_mcx_basis_equivalence_wide():
    for controls in (5, 9, 12):
        polarity = tuple((i % 3 != 0) * 1 for i in range(controls))
        network = decompose_mcx(controls, polarity)
        for data in range(1 << (controls + 1)):
            assert network.apply_to_basis(data) == mcx_reference_action(
                data, controls, polarity
            )


def test_mcx_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decompose_mcx(0)
    with pytest.raises(ValueError):
        decompose_mcx(2, (1,))
    with pytest.raises(ValueError):
        decompose_mcx(2, (1, 2))


def test_mcx_ladder_has_no_control_cap():
    counts = decompose_mcx(37).counts()
    assert (counts.toffoli, counts.cnot) == (72, 1)


# --- tallying -------------------------------------------------------------

def test_lower_counts_expand_through_mcx():
    op = ControlledOp(Projector(register_values=(("R", 0),)), FlipQubit("B", 0))
    counts = lower(op, LAYOUT).counts()
    # two controls, both on zero-valued bits: 2 toffoli, 1 cnot, 4 x
    assert counts == GateCounts(toffoli=2, cnot=1, single_qubit=4)


def test_lower_counts_controlled_swap_per_pair():
    op = ControlledOp(Projector(register_values=(("B", 1),)), SwapRegisters("R", "C"))
    counts = lower(op, LAYOUT).counts()
    # two qubit pairs, each 2 cnot + a 2-control flip (2 toffoli + 1 cnot)
    assert counts == GateCounts(toffoli=4, cnot=6)


def test_lower_counts_uncontrolled_and_single_qubit_classes():
    assert lower(RegisterSwapGate("R", "C"), LAYOUT).counts() == GateCounts(swap=2)
    assert lower(HadamardLayer(("R", "C", "B")), LAYOUT).counts() == GateCounts(single_qubit=5)
    assert lower(
        ControlledOp(Projector(), FlipQubit("B", 0)), LAYOUT
    ).counts() == GateCounts(single_qubit=1)


def test_lower_numbers_qubits_by_basis_bit():
    # qubit i is bit i of the basis index: B is bit 0, R's qubit 0 is bit 4
    flip = lower(ControlledOp(Projector(qubit_bits=(("R", 0, 1),)), FlipQubit("B", 0)), LAYOUT)
    assert flip == Netlist(5, (NetworkGate("cx", (4, 0)),), 0)
    swap = lower(RegisterSwapGate("R", "C"), LAYOUT)
    assert swap.gates == (NetworkGate("swap", (3, 1)), NetworkGate("swap", (4, 2)))
    layer = lower(HadamardLayer((("C", 1), "B")), LAYOUT)
    assert layer.gates == (NetworkGate("h", (1,)), NetworkGate("h", (0,)))


def test_lowered_controlled_swap_reuses_its_work_qubits():
    op = ControlledOp(Projector(register_values=(("B", 1),)), SwapRegisters("R", "C"))
    netlist = lower(op, LAYOUT)
    # each pair's flip has two controls (B and the pair's R qubit): one work qubit
    assert (netlist.num_qubits, netlist.num_work_qubits) == (5, 1)
    image = controlled_op_image(op, LAYOUT)
    for source in range(LAYOUT.size):
        assert netlist.apply_to_basis(source) == image(source)


def test_netlist_swaps_basis_bits_and_refuses_hadamards():
    netlist = Netlist(3, (NetworkGate("swap", (0, 2)), NetworkGate("x", (1,))))
    assert [netlist.apply_to_basis(s) for s in range(8)] == [2, 6, 0, 4, 3, 7, 1, 5]
    expected = np.zeros((8, 8), dtype=complex)
    expected[[2, 6, 0, 4, 3, 7, 1, 5], range(8)] = 1
    np.testing.assert_array_equal(dense_unitary_of(netlist), expected)
    layer = lower(HadamardLayer(("B",)), LAYOUT)
    with pytest.raises(ValueError):
        layer.apply_to_basis(0)
    with pytest.raises(ValueError):
        dense_unitary_of(layer)


@settings(max_examples=40, deadline=None)
@given(circuit=random_circuits())
def test_lowered_controlled_ops_match_the_oracle_on_every_basis_state(circuit):
    layout, gate_list = circuit
    for gate in gate_list:
        if isinstance(gate, HadamardLayer):
            continue
        netlist = lower(gate, layout)
        image = controlled_op_image(gate, layout)
        for source in range(layout.size):
            # the work qubits above the layout's come back to 0
            assert netlist.apply_to_basis(source) == image(source)


def test_tally_groups_by_label_and_totals_add_up():
    trace = [
        ("first", ControlledOp(Projector(register_values=(("R", 1),)), FlipQubit("B", 0))),
        ("first", HadamardLayer(("B",))),
        ("second", RegisterSwapGate("R", "C")),
    ]
    tally = tally_gates(trace, LAYOUT)
    assert set(tally.per_step) == {"first", "second"}
    total = tally.total
    summed = GateCounts()
    for counts in tally.per_step.values():
        summed = summed + counts
    assert total == summed
    assert tally.toffoli_equivalents == total.toffoli
    with pytest.raises(ValueError):
        tally_gates([], LAYOUT)


def test_apply_gate_dispatch_covers_all_kinds():
    state = random_state(LAYOUT, 9)
    for gate in (
        ControlledOp(Projector(register_values=(("B", 1),)), FlipQubit("R", 0)),
        HadamardLayer((("R", 0),)),
        RegisterSwapGate("R", "C"),
    ):
        result = apply_gate(buffer_of(state), gate).freeze()
        assert abs(result.norm_squared - 1.0) < 1e-12
    with pytest.raises(ValueError):
        apply_gate(
            buffer_of(state),
            ControlledOp(Projector(register_values=(("B", 1),)), FlipQubit("B", 1)),
        )
