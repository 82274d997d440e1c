"""The staged circuits: row addition, row swapping, trace, transpose.

Each routine is built as a matrix-free ``Circuit``; ``simulate`` loads a
matrix into it, applies the labeled gate stages, tallies the gates and
reads the result back out of the post-selected state, while the scaling
measurements tally the same circuits without simulating them.  State
labels phi_0, phi_1, ... mark the boundaries between stages, starting from
the prepared product state.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType
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
    light_cone,
    moved_bits,
    pull_back,
    sparse_step,
    support_growth,
    tally_gates,
)
# a run calls post_select, prepare_product_state and decode_matrix by their
# names in this module, so a wrapper set on one of those names sees every call
from .state import (
    ZERO_PROBABILITY_FLOOR,
    AncillaVector,
    EncodedMatrix,
    LightCone,
    PostSelection,
    RegisterLayout,
    Selections,
    SparseBuffer,
    StateBuffer,
    StateVector,
    decode_matrix,
    pinned_share,
    post_select,
    prepare_product_state,
    prepared_at,
    prepared_support,
    require_dense_width,
    row_index,
    supported_on,
)
from . import state as state_module  # for DENSE_SHARE as it is at a call

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


# (stage label, ((tally label, gate), ...)); a stage may split its gates
# over several tally labels
Step = tuple[str, tuple[tuple[str, Gate], ...]]


def _read_only(values: Mapping[str, int] | None) -> Mapping[str, int] | None:
    return None if values is None else MappingProxyType(dict(values))


@dataclass(frozen=True)
class Circuit:
    """One routine's circuit, independent of the matrix it runs on.

    The matrix is loaded into ``matrix_registers`` (row register, column
    register) and each ``ancillas`` table into its run of registers; every
    other register starts in |0>.  ``accept`` is the measurement pattern a
    run is post-selected on, or None when the circuit discards nothing.
    ``decode`` is the (row register, column register, pinned values) the
    output matrix is read from, or None when the output is not a matrix.
    ``read`` is the basis state whose final amplitude a run reads, or None.

    A builder hands back a circuit it holds when called again with the
    same arguments (its last ``SHAPES_HELD`` if keyed by shape alone, a row
    pair's builder its last one), so its steps and patterns are read-only,
    and what depends on the circuit alone is worked out once and kept with
    it: its tally, a sparse run's support bound and index plan, and a row
    pair's memo.

    ``canonical``, which the row-add and row-swap builders set, gives the
    same circuit for the rows (k, l) = (0, 1) of its one ancilla table,
    held per shape apart from the builder's last circuit.  Such a circuit
    holds row values in its matrix row register and in that table's
    registers, and tests them only against k or l, or swaps them whole, so
    a sparse run of any row pair replays the canonical circuit's index plan
    in relabeled rows (``_Rows``).
    """

    layout: RegisterLayout
    matrix_registers: tuple[str, str]
    ancillas: tuple[tuple[tuple[str, ...], AncillaVector], ...]
    steps: tuple[Step, ...]
    accept: Mapping[str, int] | None
    decode: tuple[str, str, Mapping[str, int]] | None
    read: Mapping[str, int] | None = None
    canonical: Callable[[], Circuit] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((label, tuple(gates)) for label, gates in self.steps))
        object.__setattr__(self, "accept", _read_only(self.accept))
        object.__setattr__(self, "read", _read_only(self.read))
        if self.decode is not None:
            row, col, pinned = self.decode
            object.__setattr__(self, "decode", (row, col, _read_only(pinned)))

    def gates(self) -> list[tuple[str, Gate]]:
        """Every (tally label, gate) pair in application order."""
        return [pair for _, gates in self.steps for pair in gates]

    @functools.cached_property
    def tally(self) -> GateTally:
        """The per-step primitive counts (``tally_gates``), read-only."""
        return tally_gates(self.gates(), self.layout)

    @functools.cached_property
    def _sparse_plan(self) -> tuple[int, IndexPlan]:
        """The most amplitudes a sparse run of the circuit lists at any
        stage, and the run's ``IndexPlan``, as yet without arrays.

        The bound is the matrix table's size times each ancilla table's
        listed entries and each Hadamard layer's ``gates.support_growth``
        over its read cubes (``gates.pull_back`` of the accept pattern
        after it), where a cube that needs a 1 in a register that is still
        |0>, no gate having moved it, reads nothing.
        """
        layout = self.layout
        support = 1 << sum(layout.width(name) for name in self.matrix_registers)
        support *= math.prod(len(ancilla.listed()) for _, ancilla in self.ancillas)
        loaded = [*self.matrix_registers, *(name for names, _ in self.ancillas for name in names)]
        zeros = layout.size - 1 - sum(layout.field_mask(name) for name in loaded)
        gates = tuple(gate for _, gate in self.gates())
        reads = [None] * len(gates)
        for position, gate in enumerate(gates):
            # only a Hadamard layer grows a support; a controlled op permutes it
            if isinstance(gate, HadamardLayer):
                if self.accept is not None:
                    reads[position] = pull_back(layout, gates[position + 1 :], layout.pattern(self.accept))
                support *= support_growth(layout, gate, reads[position], zeros)
            zeros &= ~moved_bits(layout, gate)
        parts = ((self.matrix_registers, None), *((names, ancilla.listed()) for names, ancilla in self.ancillas))
        lasts = set(itertools.accumulate(len(step) for _, step in self.steps))
        inner = frozenset(position for position in range(len(gates)) if position + 1 not in lasts)
        return support, IndexPlan(layout, parts, tuple(zip(gates, reads)), inner)

    @functools.cached_property
    def _rows(self) -> _Rows:
        """How a sparse run relabels the circuit into its ``canonical`` one,
        with the pair's own memo."""
        return _Rows(self)


class IndexPlan:
    """One memo of the index halves of a sparse run of a circuit, which
    depend on the circuit alone and never on the matrix, each keyed by what
    it is: ``"support"``, the prepared support (``state.prepared_support``);
    a gate's position, its half (``gates.sparse_step``, a Hadamard layer
    computing only the outputs its read cubes hold); and a read's
    ``(build, *args)``, the half of a read of the final support
    (``state._index_half``).  ``_plan_run`` hands out a circuit's plan
    before any half is worked out.  Every row pair of a row-add or row-swap
    shape shares the plan of its ``Circuit.canonical`` circuit, and keeps
    its reads, whose support is the pair's, in a plan of its own without
    gates (``_Rows.plan``).

    ``half`` applies one rule: the plan's first run keeps nothing, as a
    fresh row pair's memo runs once; its second keeps every half it
    works out, read-only, as later runs and their callers share them; every
    later run only looks them up, and gathers and combines amplitudes.  The
    half of a gate in ``inner``, one that a later gate of its stage
    follows, is kept without its support, as only a stage's last support
    is read outside the run.  ``halves`` is a read-only view of the memo.
    ``parts`` are the (registers, listed entries) that ``prepared_support``
    reads, and ``gates`` pairs each gate with its read cubes, None but for
    a Hadamard layer of a circuit that post-selects.
    """

    def __init__(self, layout: RegisterLayout, parts: tuple, gates: tuple, inner: frozenset = frozenset()):
        self.layout, self.parts, self.gates, self.inner = layout, parts, gates, inner
        self.runs = 0
        self._halves: dict = {}
        self.halves = MappingProxyType(self._halves)

    def half(self, key, work: Callable[[], object]):
        """The half under ``key``: the one kept, or else ``work()``, which
        is kept, read-only, when this is the plan's second run."""
        half = self._halves.get(key)
        if half is None:
            half = work()
            if self.runs == 2:
                kept = half._replace(indices=None) if key in self.inner else half
                _read_only_arrays(kept)
                self._halves[key] = kept
        return half


def _read_only_arrays(value) -> None:
    """Make every array in nested tuples read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only_arrays(item)


def _plain_step(label: str, *gates: Gate) -> Step:
    return (label, tuple((label, gate) for gate in gates))


def _snapshot(label: str, state: StateVector) -> StepState:
    return StepState(label, state.norm_squared, state.checksum(), state)


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class _Rows:
    """A permutation σ of row values that sends a row circuit's rows k and
    l to 0 and 1, for the registers that hold row values: the matrix row
    register and the ancilla table's registers.  ``inverse`` is σ^-1 as an
    array: k, l, then every other row in increasing order.

    σ commutes with every gate of the circuit, as each gate tests those
    registers only against k or l, or swaps them whole, and no Hadamard
    target is one of them.  So the canonical circuit, run on the tables
    with their rows gathered through σ (``tables``), combines each
    amplitude with the same partner by the same operations as the circuit
    on the true tables, at the relabeled index; ``back`` maps a support to
    the true indices.  ``plan`` is the pair's own memo, for what depends on
    the pair: the final support in true rows, under ``"back"``, and the
    halves of its reads, kept as ``IndexPlan.half`` keeps them, so that a
    repeated pair replays them too.
    """

    def __init__(self, circuit: Circuit):
        ((names, ancilla),) = circuit.ancillas
        k, l = ancilla.k, ancilla.l
        rows = np.arange(1 << ancilla.num_row_qubits)
        self.registers = (circuit.matrix_registers[0], *names)
        self.inverse = np.concatenate(([k, l], rows[(rows != k) & (rows != l)]))
        # the true ancilla table relabeled: the canonical one, bit for bit
        self.ancilla = (names, circuit.canonical().ancillas[0][1].amplitudes())
        self.ancilla[1].setflags(write=False)
        self.plan = IndexPlan(circuit.layout, (), ())

    def tables(self, parts: list) -> list:
        """The (registers, table) parts in relabeled rows, ``table'[σ(r)] =
        table[r]``: the matrix's rows gathered, then ``ancilla``."""
        (matrix, entries), _ = parts
        return [(matrix, entries.reshape(self.inverse.size, -1).take(self.inverse, axis=0).ravel()), self.ancilla]

    def back(self, buffer: SparseBuffer, memo: IndexPlan | None = None) -> SparseBuffer:
        """A buffer in relabeled rows as a new one in true rows: each row
        field of its indices through σ^-1, and the support sorted again,
        a half kept under ``"back"`` in ``memo`` if one is given."""

        def work():
            layout, indices = buffer.layout, buffer.indices
            for name in self.registers:
                shift = layout.field_shift(name)
                values = (indices >> shift) & (self.inverse.size - 1)
                indices = indices ^ ((values ^ self.inverse[values]) << shift)
            # a stable sort merges the few sorted runs the relabeling leaves
            order = np.argsort(indices, kind="stable")
            return indices[order], order

        indices, order = work() if memo is None else memo.half("back", work)
        return SparseBuffer(buffer.layout, indices, buffer.amplitudes[order])


def _plan_run(circuit: Circuit, record_steps: bool) -> tuple[IndexPlan, _Rows | None] | None:
    """How ``simulate`` holds a run, from the circuit alone before anything
    is allocated: None if dense, else the ``IndexPlan`` the run replays and,
    for a circuit with a ``canonical`` one, the ``_Rows`` that relabel it
    into that circuit, whose plan it replays.

    It refuses a circuit with neither an accept pattern nor a decode, a
    layout beyond the qubit cap, and a recorded run whose states (a
    snapshot per step, the final state and the renormalized one) would not
    fit in physical memory.  A recorded run is dense; any other run is
    sparse exactly when its support stays within ``state.DENSE_SHARE`` of
    the layout (``Circuit._sparse_plan``, the same for every row pair), at
    any width.  The bound is worked out once per circuit; the limits and
    physical memory are read on every call.
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
        return None
    bound, plan = (circuit if circuit.canonical is None else circuit.canonical())._sparse_plan
    if bound > state_module.DENSE_SHARE * layout.size:
        return None
    return plan, None if circuit.canonical is None else circuit._rows


# --- circuit builders ----------------------------------------------------------

# A builder keyed by shape alone holds its last this many circuits with their
# plans, so runs that cycle through a few shapes (small-batch: at most 6 per
# builder) replay them.  A plan keeps arrays from its second run on, at the
# qubit cap at most 640 MiB (row-add 2x2^21's canonical plan; transpose
# 2^20x8: 192 MiB; trace 256x256: 1.5 MiB), so eight of those hold 5 GiB
SHAPES_HELD = 8


@functools.lru_cache(maxsize=1)
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
        canonical=functools.partial(_canonical_row_add, n, m),
    )


# the row-add circuit for rows (0, 1), held per shape; it calls the
# undecorated builder, bound when the module loads
_canonical_row_add = functools.lru_cache(maxsize=SHAPES_HELD)(functools.partial(row_add_circuit.__wrapped__, k=0, l=1))


@functools.lru_cache(maxsize=1)
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
                (("step4-cswap-via-c2", swap_via_c2), ("step4-cswap-via-r2", swap_via_r2)),
            ),
            _plain_step("step5-mark-useful", *relabel),
            _plain_step("step6-hadamard-mix", HadamardLayer(("B1", "B2"))),
        ),
        accept={"B1": 0, "B2": 0, "B3": 1},
        decode=("R1", "C1", {"R2": l, "C2": k, "B1": 0, "B2": 0, "B3": 1}),
        canonical=functools.partial(_canonical_row_swap, n, m),
    )


# the row-swap circuit for rows (0, 1), likewise
_canonical_row_swap = functools.lru_cache(maxsize=SHAPES_HELD)(functools.partial(row_swap_circuit.__wrapped__, k=0, l=1))


@functools.lru_cache(maxsize=SHAPES_HELD)
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
            ("step2-mark-diagonal", tuple(("step2-mark-diagonal", g) for g in marks)),
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
        read={"R": 0, "C": 0, "A": 0, "B1": 1, "B2": 1},
    )


@functools.lru_cache(maxsize=SHAPES_HELD)
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


@functools.lru_cache(maxsize=SHAPES_HELD)
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
    subspace, zero signs aside (``SparseBuffer.cone``).  ``output`` is the
    decoded matrix, or None when nothing was accepted or the circuit has no
    matrix output; ``amplitude`` is the final amplitude of the circuit's
    ``read`` basis state, or None.
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
) -> Simulation:
    """Load ``entries`` into the circuit's matrix registers and run it.

    Prepares the product state, applies the steps, tallies the gates,
    post-selects on the accept pattern, decodes the output and, when the
    circuit names a basis state to ``read``, reads its final amplitude.
    ``_plan_run`` first refuses, or plans how to hold, the run from the
    circuit alone.  A sparse run holds its support, a ``SparseBuffer``, to
    the end.  The basis indices it lists depend on the circuit alone, so
    the index halves of its preparation, gates and reads go into one memo,
    the circuit's ``IndexPlan``, which its second run fills and later runs
    look up.  A row-add or row-swap run relabels its rows so that every
    row pair of a shape replays one plan, its ``Circuit.canonical``
    circuit's, and maps its support back to the true rows before any read
    or callback sees it.  Each Hadamard layer
    on the support computes only the outputs its planned cubes read, the
    accept pattern pulled back through the gates after it.  So the final
    state is exact only on the accepted subspace, which is all that
    post-selection, decoding and a read amplitude look at, and there up to
    the signs of zero parts; the final buffer carries the dense run's light
    cone (``SparseBuffer.cone``), from which those reads take every value
    with an exact-zero part, so reports are bitwise the dense run's.  A
    dense run owns one ``StateBuffer``, the prepared array itself, that
    every gate changes in place.
    ``after_step`` gets the run's buffer after each stage, pruned as above
    (a relabeled run's mapped back, in a new buffer); it is valid only
    during the callback.  With ``record_steps`` the run is
    dense and each stage's input is copied into a frozen snapshot before
    the stage runs, and the final snapshot is the frozen buffer itself.

    A circuit that discards nothing reports ``pinned_share`` of its
    read-out subspace, an exact 1.0 for a pure permutation.
    """
    return _run(circuit, entries, record_steps, after_step, _plan_run(circuit, record_steps))


def _run(
    circuit: Circuit,
    entries: np.ndarray,
    record_steps: bool,
    after_step: Callable[[str, StateBuffer | SparseBuffer], None] | None,
    planned: tuple[IndexPlan, _Rows | None] | None,
) -> Simulation:
    """One run of ``simulate``, sparse given an index plan.

    A sparse run takes its support and each gate's index half from
    ``IndexPlan.half``, under ``"support"`` and the gate's position, and
    applies the plan's gates.  A relabeled run (``_Rows``) loads its matrix
    with its rows gathered through σ and the canonical circuit's ancilla
    table, so that the plan's gates, the canonical circuit's, act on them,
    and maps its final buffer back to the true rows; a callback gets each
    stage's buffer mapped back.  Its reads
    then go to the pair's memo (``_Rows.plan``), any other run's to its
    plan.  On the memo's second run the final buffer gets a writable dict,
    in which its reads store the halves they work out for the memo to
    keep, and on its first run a ``Selections``, in which they share their
    selections; the memo then gives that state, as every later run's final
    buffer before its reads, a read-only view of its halves.  The final
    buffer also gets its ``LightCone`` from the true circuit's gates and
    tables: ``gates.light_cone`` over their product state
    (``state.prepared_at``).  The tally is the true circuit's.
    """
    layout = circuit.layout
    parts = [(circuit.matrix_registers, entries.ravel())]
    parts += [(names, ancilla.amplitudes()) for names, ancilla in circuit.ancillas]
    plan, rows = planned or (None, None)
    if plan is None:
        buffer = StateBuffer.adopt(prepare_product_state(layout, parts, sparse=False))
    else:
        plan.runs += 1
        support = plan.half("support", lambda: prepared_support(layout, plan.parts))
        buffer = prepare_product_state(layout, parts if rows is None else rows.tables(parts), sparse=support)
    records = [] if record_steps else None
    gate_position = 0
    for position, (label, gates) in enumerate(circuit.steps):
        if records is not None:
            records.append(_snapshot(f"phi_{position}", StateVector(layout, buffer.amplitudes)))
        for _, gate in gates:
            if plan is not None:
                gate, reads = plan.gates[gate_position]
                buffer.planned = plan.half(gate_position, lambda: sparse_step(layout, buffer.indices, gate, reads))
            apply_gate(buffer, gate)
            gate_position += 1
        if after_step is not None:
            after_step(label, buffer if rows is None else rows.back(buffer))
    if plan is not None:
        memo = plan
        if rows is not None:
            # what depends on the pair goes into its own memo
            memo = rows.plan
            memo.runs += 1
            buffer = rows.back(buffer, memo)
        # the read halves index the final support only
        buffer.readouts = Selections() if memo.runs == 1 else {} if memo.runs == 2 else memo.halves
        cone_gates = tuple(gate for _, gate in circuit.gates())
        buffer.cone = LightCone(functools.partial(_dense_at, layout, cone_gates, parts), tuple(table for _, table in parts))
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
    amplitude = None if circuit.read is None else state.amplitude(circuit.read)
    if plan is not None and memo.runs <= 2:
        # the second run's memo keeps the halves its reads worked out; the
        # state of either run then shares the memo's, which index the same support
        if memo.runs == 2:
            for key, half in state.readouts.items():
                memo.half(key, lambda half=half: half)
        state.readouts = memo.halves
    return Simulation(state, circuit.tally, probability, selection, output, amplitude, records)


def _dense_at(layout: RegisterLayout, gates: tuple[Gate, ...], parts: list, at: np.ndarray) -> np.ndarray:
    """The dense run's amplitudes at the basis indices ``at``: the light
    cone of ``gates`` over the product state of ``parts``, whose factors
    are laid out once per call."""
    return light_cone(layout, gates, at, prepared_at(layout, parts))


# --- the routines --------------------------------------------------------------

def run_row_add(matrix: EncodedMatrix, k: int, l: int, record_steps: bool = False) -> RunReport:
    """Add row k into row l of the encoded matrix.

    Succeeds with probability G^2/8 where G is the norm of the classical
    result over the normalized entries; the decoded output is the classical
    row-added matrix divided by G.
    """
    k, l = row_index("k", k), row_index("l", l)
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
    k, l = row_index("k", k), row_index("l", l)
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

    run = simulate(circuit, matrix.entries, record_steps, check_marking)
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
