"""The staged circuits: row addition, row swapping, trace, transpose.

Each routine is built as a matrix-free ``Circuit``; ``simulate`` loads a
matrix into it, applies the labeled gate stages, tallies the gates and
reads the result back out of the post-selected state, while the scaling
measurements tally the same circuits without simulating them.  State
labels phi_0, phi_1, ... mark the boundaries between stages, starting from
the prepared product state.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .gates import (
    ControlledOp,
    FlipQubit,
    Gate,
    GateTally,
    HadamardLayer,
    Projector,
    RegisterSwapGate,
    SwapRegisters,
    apply_gate,
    lower,
    moved_bits,
    pull_back,
    support_growth,
    tally_gates,
)
# a run calls post_select, prepare_product_state and decode_matrix by their
# names in this module, so a wrapper set on one of those names sees every call
from .state import (
    ZERO_PROBABILITY_FLOOR,
    AncillaVector,
    EncodedMatrix,
    PostSelection,
    RegisterLayout,
    SparseBuffer,
    StateBuffer,
    StateVector,
    decode_matrix,
    pinned_share,
    post_select,
    prepare_product_state,
    require_dense_width,
    supported_on,
)
from . import state as state_module  # for SPARSE_FLOOR and DENSE_SHARE as they are at a call

__all__ = [
    "StepState",
    "RunReport",
    "Circuit",
    "Simulation",
    "simulate",
    "row_add_circuit",
    "row_swap_circuit",
    "trace_circuit",
    "transpose_circuit",
    "transpose_square_circuit",
    "run_row_add",
    "run_row_swap",
    "run_trace",
    "run_transpose",
    "run_transpose_square",
]


@dataclass
class StepState:
    label: str
    norm_squared: float
    checksum: str
    state: StateVector


@dataclass
class RunReport:
    """Everything one circuit run produces.

    ``success_probability`` is the exact squared mass on the accepted
    measurement pattern; ``predicted_probability`` is the closed-form law
    for the same quantity.  ``output_matrix`` is the decoded matrix over
    the padded power-of-two shape (None for trace and for zero-probability
    outcomes); ``output_unpadded_shape`` says which block of it corresponds
    to the caller's original matrix.
    """

    algorithm: str
    success_probability: float
    predicted_probability: float
    gate_tally: GateTally
    frobenius_scale: float
    output_matrix: np.ndarray | None = None
    output_unpadded_shape: tuple[int, int] | None = None
    recovered_trace: complex | None = None
    normalization: float | None = None
    post_selection: PostSelection | None = None
    step_states: list[StepState] | None = None


# (stage label, [(tally label, gate), ...]); a stage may split its gates
# over several tally labels
Step = tuple[str, list[tuple[str, Gate]]]


@dataclass(frozen=True)
class Circuit:
    """One routine's circuit, independent of the matrix it runs on.

    The matrix is loaded into ``matrix_registers`` (row register, column
    register) and each ``ancillas`` table into its run of registers; every
    other register starts in |0>.  ``accept`` is the measurement pattern a
    run is post-selected on, or None when the circuit discards nothing.
    ``decode`` is the (row register, column register, pinned values) the
    output matrix is read from, or None when the output is not a matrix.
    """

    layout: RegisterLayout
    matrix_registers: tuple[str, str]
    ancillas: tuple[tuple[tuple[str, ...], AncillaVector], ...]
    steps: tuple[Step, ...]
    accept: dict[str, int] | None
    decode: tuple[str, str, dict[str, int]] | None

    def gates(self) -> list[tuple[str, Gate]]:
        """Every (tally label, gate) pair in application order."""
        return [pair for _, gates in self.steps for pair in gates]


def _plain_step(label: str, *gates: Gate) -> Step:
    return (label, [(label, gate) for gate in gates])


def _snapshot(label: str, state: StateVector) -> StepState:
    return StepState(label, state.norm_squared, state.checksum(), state)


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _plan_run(circuit: Circuit, record_steps: bool) -> tuple | None:
    """How ``simulate`` holds a run, from the circuit alone before anything
    is allocated: None if dense, else each gate's read cubes, None but for a
    Hadamard layer's (``gates.pull_back`` of the accept pattern after it).

    It refuses a circuit with neither an accept pattern nor a decode, a
    layout beyond the qubit cap, and a recorded run whose states (a
    snapshot per step, the final state and the renormalized one) would not
    fit in physical memory.  Recorded runs and layouts of at most
    ``state.SPARSE_FLOOR`` amplitudes are dense; any other run is sparse
    when its support stays within ``state.DENSE_SHARE`` of the layout: the
    matrix table's size times each ancilla table's listed entries and each
    Hadamard layer's ``gates.support_growth``, where a cube that needs a 1
    in a register that is still |0>, no gate having moved it, reads nothing.
    """
    layout = circuit.layout
    if circuit.accept is None and circuit.decode is None:
        raise ValueError("a circuit that discards nothing needs a decode pattern to report its share")
    require_dense_width(layout)  # so a recorded run past the cap gets the cap's error, as others do
    if record_steps:
        states = len(circuit.steps) + 1 + (circuit.accept is not None)
        state_bytes = layout.size * np.dtype(np.complex128).itemsize
        if states * state_bytes > (physical := _physical_memory()):
            raise ValueError(
                f"a recorded run of {layout.total_qubits} qubits keeps {states} states of {state_bytes} B, "
                f"{states * state_bytes} B in all, more than the {physical} B of physical memory"
            )
    if record_steps or layout.size <= state_module.SPARSE_FLOOR:
        return None
    support = 1 << sum(layout.width(name) for name in circuit.matrix_registers)
    support *= math.prod(len(ancilla.listed()) for _, ancilla in circuit.ancillas)
    loaded = [*circuit.matrix_registers, *(name for names, _ in circuit.ancillas for name in names)]
    zeros = layout.size - 1 - sum(layout.field_mask(name) for name in loaded)
    gates = tuple(gate for _, gate in circuit.gates())
    reads = [None] * len(gates)
    for position, gate in enumerate(gates):
        # only a Hadamard layer grows a support; a controlled op permutes it
        if isinstance(gate, HadamardLayer):
            if circuit.accept is not None:
                reads[position] = pull_back(layout, gates[position + 1 :], layout.pattern(circuit.accept))
            support *= support_growth(layout, gate, reads[position], zeros)
        zeros &= ~moved_bits(layout, gate)
    return tuple(reads) if support <= state_module.DENSE_SHARE * layout.size else None


# --- circuit builders ----------------------------------------------------------

def row_add_circuit(n: int, m: int, k: int, l: int) -> Circuit:
    """Add row k into row l of a 2^n x 2^m matrix."""
    return Circuit(
        layout=RegisterLayout(
            (("R1", n), ("C1", m), ("R2", n), ("B1", 1), ("B2", 1), ("B3", 1))
        ),
        matrix_registers=("R1", "C1"),
        ancillas=((("R2",), AncillaVector("row-add", k, l, n)),),
        steps=(
            _plain_step(
                "step2-mark-source-branch",
                ControlledOp(Projector(register_values=(("R2", k),)), FlipQubit("B1", 0)),
            ),
            _plain_step(
                "step3-mark-target-row",
                ControlledOp(
                    Projector(register_values=(("R1", k), ("B1", 0))), FlipQubit("B2", 0)
                ),
            ),
            _plain_step(
                "step4-cswap-rows",
                ControlledOp(Projector(register_values=(("B2", 1),)), SwapRegisters("R1", "R2")),
            ),
            _plain_step(
                "step5-mark-useful",
                ControlledOp(
                    Projector(register_values=(("B1", 0), ("B2", 0))), FlipQubit("B3", 0)
                ),
            ),
            _plain_step("step6-hadamard-mix", HadamardLayer(("B1", "B2"))),
        ),
        accept={"B1": 0, "B2": 0, "B3": 0},
        decode=("R1", "C1", {"R2": k, "B1": 0, "B2": 0, "B3": 0}),
    )


def row_swap_circuit(n: int, m: int, k: int, l: int) -> Circuit:
    """Exchange rows k and l of a 2^n x 2^m matrix."""
    ancilla = AncillaVector("row-swap", k, l, n)
    mark_distinct = ControlledOp(
        Projector(register_values=(("R2", l), ("C2", k))), FlipQubit("B1", 0)
    )
    tag_source = ControlledOp(
        Projector(register_values=(("R1", k), ("R2", l))), FlipQubit("B2", 0)
    )
    tag_target = ControlledOp(
        Projector(register_values=(("R1", l), ("C2", k))), FlipQubit("B2", 1)
    )
    swap_via_c2 = ControlledOp(
        Projector(qubit_bits=(("B2", 0, 1),)), SwapRegisters("R1", "C2")
    )
    swap_via_r2 = ControlledOp(
        Projector(qubit_bits=(("B2", 1, 1),)), SwapRegisters("R1", "R2")
    )
    # ancilla patterns (B1, B2) that hold a wanted branch after the swaps
    relabel = [
        ControlledOp(
            Projector(register_values=(("B1", b1), ("B2", b2))), FlipQubit("B3", 0)
        )
        for b1, b2 in ((0, 0b10), (0, 0b01), (1, 0b00))
    ]
    return Circuit(
        layout=RegisterLayout(
            (("R1", n), ("C1", m), ("R2", n), ("C2", n), ("B1", 1), ("B2", 2), ("B3", 1))
        ),
        matrix_registers=("R1", "C1"),
        ancillas=((("R2", "C2"), ancilla),),
        steps=(
            _plain_step("step2-mark-distinct-pair", mark_distinct),
            _plain_step("step3-mark-swap-rows", tag_source, tag_target),
            (
                "step4-cswap-rows",
                [("step4-cswap-via-c2", swap_via_c2), ("step4-cswap-via-r2", swap_via_r2)],
            ),
            _plain_step("step5-mark-useful", *relabel),
            _plain_step("step6-hadamard-mix", HadamardLayer(("B1", "B2"))),
        ),
        accept={"B1": 0, "B2": 0, "B3": 1},
        decode=("R1", "C1", {"R2": l, "C2": k, "B1": 0, "B2": 0, "B3": 1}),
    )


def trace_circuit(n: int) -> Circuit:
    """Move the trace of a 2^n x 2^n matrix into one amplitude."""
    marks = [
        ControlledOp(
            Projector(qubit_bits=(("R", j, bit), ("C", j, bit))), FlipQubit("A", j)
        )
        for j in range(n)
        for bit in (0, 1)
    ]
    full = (1 << n) - 1
    return Circuit(
        layout=RegisterLayout((("R", n), ("C", n), ("A", n), ("B1", 1), ("B2", 1))),
        matrix_registers=("R", "C"),
        ancillas=(),
        steps=(
            ("step2-mark-diagonal", [("step2-mark-diagonal", g) for g in marks]),
            _plain_step(
                "step3-mark-useful",
                ControlledOp(Projector(register_values=(("A", full),)), FlipQubit("B1", 0)),
            ),
            _plain_step("step4-hadamard-sum", HadamardLayer(("R", "C", "A"))),
            _plain_step(
                "step5-remark-useful",
                ControlledOp(
                    Projector(register_values=(("R", 0), ("C", 0), ("A", 0), ("B1", 1))),
                    FlipQubit("B2", 0),
                ),
            ),
        ),
        accept={"B2": 1},
        decode=None,
    )


def transpose_circuit(n: int, m: int) -> Circuit:
    """Transpose a 2^n x 2^m matrix by exchanging its column register with a
    destination register."""
    return Circuit(
        layout=RegisterLayout((("D", m), ("R", n), ("C", m))),
        matrix_registers=("R", "C"),
        ancillas=(),
        steps=(_plain_step("step2-swap-registers", RegisterSwapGate("D", "C")),),
        accept=None,
        decode=("D", "R", {"C": 0}),
    )


def transpose_square_circuit(side_qubits: int) -> Circuit:
    """Transpose a 2^s x 2^s matrix by exchanging its two registers."""
    return Circuit(
        layout=RegisterLayout((("R", side_qubits), ("C", side_qubits))),
        matrix_registers=("R", "C"),
        ancillas=(),
        steps=(_plain_step("step2-swap-registers", RegisterSwapGate("R", "C")),),
        accept=None,
        decode=("R", "C", {}),
    )


# --- simulation ----------------------------------------------------------------

@dataclass
class Simulation:
    """One simulated circuit run, before the routine's closed form is added.

    ``state`` is the final state before post-selection, sparse when the run
    was planned sparse; a sparse run's Hadamard layers compute only what the
    accept pattern reads, so its state is exact only on the accepted
    subspace.  ``output`` is the decoded matrix, or None when nothing was
    accepted or the circuit has no matrix output; ``amplitude`` is the
    amplitude ``simulate`` was asked to read, or None.
    """

    state: StateVector | SparseBuffer
    gate_tally: GateTally
    probability: float
    selection: PostSelection | None
    output: np.ndarray | None
    amplitude: complex | None
    records: list[StepState] | None

    def report(
        self, algorithm: str, predicted: float, matrix: EncodedMatrix, **extras
    ) -> RunReport:
        """The run's RunReport; ``extras`` set or override its other fields."""
        fields = dict(
            success_probability=self.probability,
            gate_tally=self.gate_tally,
            output_matrix=self.output,
            post_selection=self.selection,
            step_states=self.records,
        )
        fields.update(extras)
        return RunReport(
            algorithm=algorithm,
            predicted_probability=predicted,
            frobenius_scale=matrix.frobenius_scale,
            **fields,
        )


def simulate(
    circuit: Circuit,
    entries: np.ndarray,
    record_steps: bool = False,
    after_step: Callable[[str, StateBuffer | SparseBuffer], None] | None = None,
    read: Mapping[str, int] | None = None,
) -> Simulation:
    """Load ``entries`` into the circuit's matrix registers and run it.

    Prepares the product state, applies the steps, tallies the gates,
    post-selects on the accept pattern, decodes the output and, when
    ``read`` names a basis state, reads its final amplitude.  ``_plan_run``
    first refuses, or plans how to hold, the run from the circuit alone.  A
    sparse run holds its support, a ``SparseBuffer``, to the end; each
    Hadamard layer on it computes only the outputs its planned cubes read,
    the accept pattern pulled back through the gates after it.  So the
    final state is exact only on the accepted subspace, which is all that
    post-selection, decoding and a read amplitude look at.  When its
    decoded output or read amplitude has an exact-zero part whose sign the
    support may not carry, the run is done again densely, after the sparse
    one is released, so reports are bitwise the dense run's.  A dense run
    owns one ``StateBuffer``, the prepared array itself, that every gate
    changes in place.  ``after_step`` gets the run's buffer after each
    stage, pruned as above; it is valid only during the callback.  With
    ``record_steps`` the run is dense and each stage's input is copied into
    a frozen snapshot before the stage runs, and the final snapshot is the
    frozen buffer itself.

    A circuit that discards nothing reports ``pinned_share`` of its
    read-out subspace, an exact 1.0 for a pure permutation.
    """
    reads = _plan_run(circuit, record_steps)
    if reads is not None:
        run = _run(circuit, entries, False, after_step, read, reads)
        if run is not None:
            return run
    return _run(circuit, entries, record_steps, after_step, read, None)


def _run(
    circuit: Circuit,
    entries: np.ndarray,
    record_steps: bool,
    after_step: Callable[[str, StateBuffer | SparseBuffer], None] | None,
    read: Mapping[str, int] | None,
    reads: tuple | None,
) -> Simulation | None:
    """One run of ``simulate``, sparse given the plan's ``reads``, else dense;
    a sparse one gives None, and drops its state, when a zero part of its
    read-out may differ in sign from the dense run's."""
    layout = circuit.layout
    # a generator, so ancilla tables are only built after the preparation's
    # qubit-cap check has passed
    parts = itertools.chain(
        [(circuit.matrix_registers, entries.ravel())],
        ((names, ancilla.amplitudes()) for names, ancilla in circuit.ancillas),
    )
    buffer = prepare_product_state(layout, parts, sparse=reads is not None)
    if isinstance(buffer, StateVector):
        buffer = StateBuffer.adopt(buffer)
    unsure = buffer.unsure_zero_parts if isinstance(buffer, SparseBuffer) else (False, False)
    records = [] if record_steps else None
    planned = iter(reads or ())
    for position, (label, gates) in enumerate(circuit.steps):
        if records is not None:
            records.append(_snapshot(f"phi_{position}", StateVector(layout, buffer.amplitudes)))
        for _, gate in gates:
            if reads is not None:
                buffer.reads = next(planned)
            apply_gate(buffer, gate)
        if after_step is not None:
            after_step(label, buffer)
    state = buffer.freeze()
    if records is not None:
        records.append(_snapshot(f"phi_{len(circuit.steps)}", state))

    selection = selected_mass = None
    if circuit.accept is None:
        probability = pinned_share(state, circuit.decode[2])
    else:
        selection = post_select(state, circuit.accept)
        probability = selected_mass = selection.probability

    output = None
    if selection is None or probability > ZERO_PROBABILITY_FLOOR:
        if circuit.decode is not None:
            output = decode_matrix(state, *circuit.decode, selected_mass)
        if records is not None and selection is not None:
            records.append(_snapshot(f"phi_{len(circuit.steps) + 1}", selection.renormalized_state))
    amplitude = None if read is None else state.amplitude(read)
    if any(unsure):
        doubtful = [amplitude]
        if output is not None and not _keeps_zero_signs(circuit, state, divided=selected_mass is not None):
            doubtful.append(output)
        for value in (v for v in doubtful if v is not None):
            for doubt, part in zip(unsure, ("real", "imag")):
                if doubt and np.any(getattr(value, part) == 0.0):
                    return None
    tally = tally_gates(circuit.gates(), layout)
    return Simulation(state, tally, probability, selection, output, amplitude, records)


def _keeps_zero_signs(circuit: Circuit, state: SparseBuffer, divided: bool) -> bool:
    """Whether a run's decoded output has the dense run's zero signs, even
    where its support lost a signed zero.

    Without a Hadamard layer every listed amplitude is the dense one, so an
    output is when its block is listed whole.  A Hadamard target makes
    every amplitude ``(u +- l) * c``, a complex times ``(c, +0.0)``; such a
    product has no real part -0.0 beside an imaginary part whose sign bit is
    set, so no sum of two is ``(-0.0, -0.0)``, and after a second target no
    amplitude has an imaginary part -0.0 beside a real part whose sign bit
    is clear either.  numpy's complex division by ``(sqrt(p), +0.0)``, the
    ratio 0/sqrt(p) being +0.0, turns every zero part of such an amplitude
    into +0.0, on both paths.
    """
    targets = sum(
        len(lower(gate, circuit.layout).gates)
        for _, gate in circuit.gates()
        if isinstance(gate, HadamardLayer)
    )
    if targets == 0:
        return state.lists(circuit.decode[2])
    return targets >= 2 and divided


# --- the routines --------------------------------------------------------------

def run_row_add(matrix: EncodedMatrix, k: int, l: int, record_steps: bool = False) -> RunReport:
    """Add row k into row l of the encoded matrix.

    Succeeds with probability G^2/8 where G is the norm of the classical
    result over the normalized entries; the decoded output is the classical
    row-added matrix divided by G.
    """
    circuit = row_add_circuit(matrix.row_qubits, matrix.col_qubits, k, l)
    run = simulate(circuit, matrix.entries, record_steps)
    entries = matrix.entries
    g_squared = float(
        np.sum(np.abs(np.delete(entries, l, axis=0)) ** 2)
        + np.sum(np.abs(entries[k] + entries[l]) ** 2)
    )
    return run.report(
        "row-add",
        g_squared / 8.0,
        matrix,
        output_unpadded_shape=(matrix.original_rows, matrix.original_cols),
        normalization=math.sqrt(g_squared),
    )


def run_row_swap(matrix: EncodedMatrix, k: int, l: int, record_steps: bool = False) -> RunReport:
    """Exchange rows k and l of the encoded matrix.

    Succeeds with probability exactly 1/24 regardless of the entries, and
    the decoded output is the swapped matrix itself (unit proportionality).
    """
    circuit = row_swap_circuit(matrix.row_qubits, matrix.col_qubits, k, l)
    run = simulate(circuit, matrix.entries, record_steps)
    return run.report(
        "row-swap",
        1.0 / 24.0,
        matrix,
        output_unpadded_shape=(matrix.original_rows, matrix.original_cols),
    )


def run_trace(matrix: EncodedMatrix, record_steps: bool = False) -> RunReport:
    """Read the trace of a square encoded matrix out of one amplitude.

    Success probability is |sum of diagonal entries|^2 / 2^(3n); the complex
    trace itself is recovered from the accepted amplitude before measurement,
    so a traceless matrix reports probability 0 with recovered trace 0.
    """
    if matrix.original_rows != matrix.original_cols or matrix.rows != matrix.cols:
        raise ValueError("trace needs a square matrix")
    n = matrix.row_qubits
    dimension = matrix.rows
    circuit = trace_circuit(n)

    def check_marking(label: str, current: StateBuffer) -> None:
        if label != "step2-mark-diagonal":
            return
        row = np.arange(dimension)[:, None]
        col = row.T
        marked = {"R": row, "C": col, "A": ~(row ^ col) & (dimension - 1), "B1": 0, "B2": 0}
        if not supported_on(current, marked):
            raise RuntimeError("diagonal marking left the comparison register inconsistent")

    accepted = {"R": 0, "C": 0, "A": 0, "B1": 1, "B2": 1}
    run = simulate(circuit, matrix.entries, record_steps, check_marking, read=accepted)
    trace_of_entries = complex(np.trace(matrix.entries))
    predicted = abs(trace_of_entries) ** 2 / float(2 ** (3 * n))
    return run.report(
        "trace", predicted, matrix, recovered_trace=run.amplitude * math.sqrt(2.0 ** (3 * n))
    )


def run_transpose(matrix: EncodedMatrix, record_steps: bool = False) -> RunReport:
    """Transpose via one register exchange; succeeds with probability 1.

    The circuit is a pure permutation, so the amplitude mass outside the
    read-out subspace is exactly zero and the probability is reported as an
    exact 1.0 only after that is checked.
    """
    circuit = transpose_circuit(matrix.row_qubits, matrix.col_qubits)
    run = simulate(circuit, matrix.entries, record_steps)
    return run.report(
        "transpose",
        1.0,
        matrix,
        output_unpadded_shape=(matrix.original_cols, matrix.original_rows),
    )


def run_transpose_square(matrix: EncodedMatrix, record_steps: bool = False) -> RunReport:
    """Transpose by padding to a square and exchanging the two registers.

    Needs no dedicated destination register; the swap acts on log2(side)
    qubit pairs where side is the larger padded dimension.  The returned
    output matrix is cut back to the main variant's (cols x rows) shape.
    """
    side = max(matrix.rows, matrix.cols)
    circuit = transpose_square_circuit(side.bit_length() - 1)
    _plan_run(circuit, record_steps)  # before the padded square, as large as the state
    square = matrix.entries
    if matrix.rows != matrix.cols:
        square = np.zeros((side, side), dtype=np.complex128)
        square[: matrix.rows, : matrix.cols] = matrix.entries
    run = simulate(circuit, square, record_steps)
    return run.report(
        "transpose-square",
        1.0,
        matrix,
        output_matrix=run.output[: matrix.cols, : matrix.rows],
        output_unpadded_shape=(matrix.original_cols, matrix.original_rows),
    )
