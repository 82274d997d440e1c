"""Projector-controlled primitives, Hadamard layers, and their netlists.

Two gate kinds, a ``ControlledOp`` (a flip or register swap on a
projector's subspace) and a ``HadamardLayer``, each have one kernel, which
changes a run's ``StateBuffer`` array in place through scratch arrays of a
fixed size, never one the size of the state or of a subspace.  A controlled
op is a basis-state permutation, so it is exact: it exchanges pairs of
blocks of its subspace piece by piece, and amplitudes move without being
recombined.  A Hadamard layer runs its butterflies in place, cache block by
cache block, with the arithmetic of one whole-state butterfly per qubit in
the same order, so its result is bitwise the same as that.  ``lower`` turns a gate
into the X, CNOT, Toffoli, SWAP and H ``Netlist`` that the gate tally counts;
it checks a controlled op against the layout as the kernel does.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .state import RegisterLayout, StateBuffer

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A run of consecutive Hadamard butterflies whose amplitude pairs lie less
# than this many amplitudes apart (2^15 complex128, 512 KiB: a block that
# stays in a 1-4 MiB L2 cache) is applied block by block.
HADAMARD_BLOCK = 1 << 15
# Butterflies run in pieces of at most this many pairs, through three scratch
# arrays of that length (64 KiB each) instead of half-state temporaries.
HADAMARD_PIECE = 1 << 12
# numpy loops over rows shorter than this more slowly than over a strided
# column, so butterflies between closer amplitudes run column by column
# wherever a column fills a piece.
HADAMARD_MIN_ROW = 8
# A controlled op exchanges its amplitudes in pieces of at most this many
# pairs, through two scratch arrays of that length (64 KiB each) instead of
# a temporary the size of its subspace.
PERMUTE_PIECE = 1 << 12
# Piece plans of (layout, controlled op) pairs and primitive counts of
# (gate, layout) pairs kept for reuse.  Row-add and row-swap condition some
# ops on the rows k and l, so a process that runs them over many row pairs
# of a few shapes keeps a few hundred of each.
CACHE_SIZE = 1024

__all__ = [
    "Projector",
    "FlipQubit",
    "SwapRegisters",
    "ControlledOp",
    "HadamardLayer",
    "RegisterSwapGate",
    "apply_gate",
    "NetworkGate",
    "Netlist",
    "decompose_mcx",
    "lower",
    "GateCounts",
    "GateTally",
    "tally_gates",
]


@dataclass(frozen=True)
class Projector:
    """Basis-diagonal projector: fix whole registers to values and/or single
    qubits to bits.  Each qubit may be conditioned at most once."""

    register_values: tuple[tuple[str, int], ...] = ()
    qubit_bits: tuple[tuple[str, int, int], ...] = ()

    def resolve(self, layout: RegisterLayout) -> tuple[int, int]:
        """(mask, bits): a basis index s is selected iff s & mask == bits."""
        mask, bits = layout.pattern(dict(self.register_values))
        if len(dict(self.register_values)) != len(self.register_values):
            raise ValueError("register conditioned more than once")
        for name, qubit, bit in self.qubit_bits:
            position = _qubit_bit(layout, name, qubit)
            if bit not in (0, 1):
                raise ValueError(f"condition bit must be 0 or 1, got {bit}")
            if mask & position:
                raise ValueError(f"qubit {qubit} of {name!r} conditioned more than once")
            mask |= position
            if bit:
                bits |= position
        return mask, bits


@dataclass(frozen=True)
class FlipQubit:
    register: str
    qubit: int


@dataclass(frozen=True)
class SwapRegisters:
    reg_a: str
    reg_b: str


Action = Union[FlipQubit, SwapRegisters]


@dataclass(frozen=True)
class ControlledOp:
    """Apply ``action`` on the projector's subspace, identity elsewhere."""

    projector: Projector
    action: Action


@dataclass(frozen=True)
class HadamardLayer:
    """One Hadamard per target; targets are register names (all qubits) or
    (register, qubit) pairs."""

    targets: tuple[Union[str, tuple[str, int]], ...]


class RegisterSwapGate(ControlledOp):
    """Unconditional swap of two equal-width registers: a register swap
    controlled by the empty projector, under a name of its own."""

    def __init__(self, reg_a: str, reg_b: str):
        super().__init__(Projector(), SwapRegisters(reg_a, reg_b))


Gate = Union[ControlledOp, HadamardLayer]


def _qubit_axis(layout: RegisterLayout, register: str, qubit: int) -> int:
    """Axis of one qubit in the qubit view; axis 0 is the most significant bit."""
    if not 0 <= qubit < layout.width(register):
        raise ValueError(f"qubit {qubit} out of range for register {register!r}")
    return layout.offset(register) + qubit


def _qubit_bit(layout: RegisterLayout, register: str, qubit: int) -> int:
    return 1 << (layout.total_qubits - 1 - _qubit_axis(layout, register, qubit))


def _resolve_controlled(layout: RegisterLayout, op: ControlledOp) -> tuple[int, int]:
    """The projector's (mask, bits) once ``op`` is checked against the
    layout: the projector resolves, a flip's qubit is in range, a swap's
    registers are distinct and of equal width, and no target qubit is one
    the projector conditions on."""
    mask, bits = op.projector.resolve(layout)
    action = op.action
    if isinstance(action, FlipQubit):
        if _qubit_bit(layout, action.register, action.qubit) & mask:
            raise ValueError("flip target overlaps the projector's qubits")
    elif isinstance(action, SwapRegisters):
        for name in (action.reg_a, action.reg_b):
            if layout.field_mask(name) & mask:
                raise ValueError("swap target overlaps the projector's qubits")
        widths = layout.width(action.reg_a), layout.width(action.reg_b)
        if widths[0] != widths[1]:
            raise ValueError(f"cannot swap {action.reg_a!r} and {action.reg_b!r}: widths {widths}")
        if action.reg_a == action.reg_b:
            raise ValueError("cannot swap a register with itself")
    else:
        raise TypeError(f"unknown action {action!r}")
    return mask, bits


@functools.lru_cache(maxsize=CACHE_SIZE)
def _exchange_plan(
    layout: RegisterLayout, op: ControlledOp
) -> tuple[tuple[int, ...], tuple, tuple[int, ...], tuple[int, ...], int, int]:
    """A checked controlled op as exchanges between pairs of equal-sized
    views, in a plan of fixed size.  Returns the shape to view the state in,
    one axis per run of qubits that are all conditioned, all free or all in
    one moved register; each axis's entry in both sides' indices, a
    conditioned run's bits or the whole axis; the axis order that aligns
    one side of a pair with the other; the moved axes, a flip's target or a
    swap's registers; how many rows a=i of a swap's subspace one of its
    pairs covers, as many as fit in a piece and at least one; and the most
    amplitudes a piece holds, PERMUTE_PIECE or, if smaller, the subspace.
    """
    mask, bits = _resolve_controlled(layout, op)
    total, action = layout.total_qubits, op.action
    labels = ["c" if (mask >> (total - 1 - q)) & 1 else "f" for q in range(total)]
    if isinstance(action, FlipQubit):
        labels[_qubit_axis(layout, action.register, action.qubit)] = "t"
    else:
        for label, name in zip("ab", sorted((action.reg_a, action.reg_b), key=layout.offset)):
            offset, width = layout.offset(name), layout.width(name)
            labels[offset : offset + width] = label * width
    shape, base, axis_of = [], [], {}
    shift = total
    for label, run in itertools.groupby(labels):
        width = len(list(run))
        shift -= width
        axis_of[label] = len(base)  # read for the moved runs t, a and b
        shape.append(1 << width)
        base.append((bits >> shift) & ((1 << width) - 1) if label == "c" else slice(None))
    kept = [axis for axis, entry in enumerate(base) if isinstance(entry, slice)]
    axes = list(range(len(kept)))
    subspace = math.prod(shape[axis] for axis in kept)
    if isinstance(action, FlipQubit):
        moved, rows = (axis_of["t"],), 1
    else:
        moved = a, b = axis_of["a"], axis_of["b"]
        axes[kept.index(a)], axes[kept.index(b)] = kept.index(b), kept.index(a)
        rows = max(1, PERMUTE_PIECE // (subspace // shape[a]))
    piece = min(PERMUTE_PIECE, subspace)
    return tuple(shape), tuple(base), tuple(axes), moved, rows, piece


def _exchanged_sides(shape: tuple[int, ...], moved: tuple[int, ...], rows: int):
    """(x, y) pairs of the moved axes' slices that an op exchanges.

    A flip exchanges the two halves of its subspace, its target at 0 and at
    1.  A swap of registers a and b exchanges, for each block of ``rows``
    rows from row i, the strip a in the block, b > i with the strip a > i,
    b in the block, the first one transposed; one row per block gives the
    strips a=i, b>i and a>i, b=i.  The two strips of a longer block share
    the square a, b > i in the block and write it with the same values,
    since the plan fits such a block in one piece, read whole before it is
    written.  Every other axis is kept, so both sides share one axis order.
    """
    if len(moved) == 1:
        (t,) = moved
        yield {t: slice(0, 1)}, {t: slice(1, 2)}
        return
    a, b = moved
    for i in range(0, shape[a] - 1, rows):
        block, rest = slice(i, i + rows), slice(i + 1, None)
        yield {a: block, b: rest}, {a: rest, b: block}


def _cut(shape: tuple[int, ...], piece: int):
    """Index tuples of boxes of at most ``piece`` points that tile an array
    of ``shape``: the trailing axes whole, one axis in chunks and single
    steps along the axes before it."""
    cut, inner = len(shape), 1
    while cut and inner * shape[cut - 1] <= piece:
        cut -= 1
        inner *= shape[cut]
    whole = (slice(None),) * (len(shape) - cut)
    if not cut:
        yield whole
        return
    step = piece // inner
    for outer in itertools.product(*map(range, shape[: cut - 1])):
        steps = tuple([slice(k, k + 1) for k in outer])
        for start in range(0, shape[cut - 1], step):
            yield (*steps, slice(start, start + step), *whole)


def _apply_controlled(layout: RegisterLayout, op: ControlledOp, amplitudes: np.ndarray) -> None:
    """Exact permutation kernel of a projector-controlled flip or swap, in
    place: piece by piece, both sides of each exchanged pair are copied
    into scratch, each in its own memory order, and written over each other.

    Index tuples in these loops are built from lists: CPython builds a
    tuple from a generator by shrinking a larger one and keeps each freed
    one on a free list of its size, so the loop would keep one per strip
    (up to 2000 of a size) after it ends.
    """
    shape, base, axes, moved, rows, piece = _exchange_plan(layout, op)
    view = amplitudes.reshape(shape)
    scratch = np.empty((2, piece), dtype=np.complex128)
    for sides in _exchanged_sides(shape, moved, rows):
        x_side, y_side = (
            view[tuple([side.get(axis, entry) for axis, entry in enumerate(base)])]
            for side in sides
        )
        for cut in _cut(x_side.shape, piece):
            x, y = x_side[cut], y_side[tuple([cut[axis] for axis in axes])]
            held_x = scratch[0, : x.size].reshape(x.shape)
            held_y = scratch[1, : y.size].reshape(y.shape)
            np.copyto(held_x, x)
            np.copyto(held_y, y)
            np.copyto(x, held_y.transpose(axes))
            np.copyto(y, held_x.transpose(axes))


def _hadamard_positions(layout: RegisterLayout, targets) -> list[int]:
    positions: list[int] = []
    for target in targets:
        if isinstance(target, str):
            offset = layout.offset(target)
            positions.extend(range(offset, offset + layout.width(target)))
        else:
            positions.append(_qubit_axis(layout, *target))
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate Hadamard target")
    return positions


def _butterfly_halves(amplitudes: np.ndarray, stride: int, piece: int):
    """(upper, lower) views of the butterflies between amplitudes ``stride``
    apart, in pieces of at most ``piece`` pairs: blocks of whole rows,
    single row segments, or, when rows are shorter than HADAMARD_MIN_ROW and
    each column fills a piece, single strided columns."""
    pairs = amplitudes.reshape(-1, 2, stride)
    columns = stride < HADAMARD_MIN_ROW and pairs.shape[0] >= piece
    width = 1 if columns else min(piece, stride)
    height = piece // width
    for row in range(0, pairs.shape[0], height):
        for col in range(0, stride, width):
            rows, cols = slice(row, row + height), slice(col, col + width)
            yield pairs[rows, 0, cols], pairs[rows, 1, cols]


def _butterfly(upper: np.ndarray, lower: np.ndarray, scratch: np.ndarray) -> None:
    """(u, l) -> ((u + l) * c, (u - l) * c) in place, c = 1/sqrt(2): the
    operations of a whole-state butterfly, so every bit is the same."""
    shape, size = upper.shape, upper.size
    if 1 in shape:
        # one row or column: numpy sees that the halves are disjoint, so the
        # difference goes straight into the lower half
        upper, lower = upper.reshape(-1), lower.reshape(-1)
        total = scratch[0, :size]
        np.add(upper, lower, out=total)
        np.subtract(upper, lower, out=lower)
        np.multiply(lower, _INV_SQRT2, out=lower)
        np.multiply(total, _INV_SQRT2, out=upper)
        return
    # numpy loops over a 2-D view through buffers it allocates, so the piece
    # is copied into contiguous scratch, computed there and copied back
    up, low, result = scratch[0, :size], scratch[1, :size], scratch[2, :size]
    np.copyto(up.reshape(shape), upper)
    np.copyto(low.reshape(shape), lower)
    np.add(up, low, out=result)
    np.multiply(result, _INV_SQRT2, out=result)
    np.copyto(upper, result.reshape(shape))
    np.subtract(up, low, out=result)
    np.multiply(result, _INV_SQRT2, out=result)
    np.copyto(lower, result.reshape(shape))


def _apply_hadamard_layer(
    layout: RegisterLayout, layer: HadamardLayer, amplitudes: np.ndarray
) -> None:
    """In-place butterflies, one per target in the layer's order; blocking
    only regroups butterflies that touch disjoint amplitudes, so the result
    is bitwise that of one whole-state butterfly per target."""
    # distance between the two amplitudes of each butterfly, in order
    strides = [
        1 << (layout.total_qubits - 1 - position)
        for position in _hadamard_positions(layout, layer.targets)
    ]
    piece = min(HADAMARD_PIECE, amplitudes.size // 2)
    scratch = np.empty((3, piece), dtype=np.complex128)
    for inside, run in itertools.groupby(strides, key=lambda s: s < HADAMARD_BLOCK):
        run = list(run)
        # a run of butterflies inside blocks finishes each block before it
        # moves on, while the block is in cache
        starts = range(0, amplitudes.size, HADAMARD_BLOCK) if inside else (0,)
        for start in starts:
            block = amplitudes[start : start + HADAMARD_BLOCK] if inside else amplitudes
            for stride in run:
                for upper, lower in _butterfly_halves(block, stride, piece):
                    _butterfly(upper, lower, scratch)


def apply_gate(state: StateBuffer, gate: Gate) -> StateBuffer:
    """Apply one gate to a run's ``StateBuffer`` in place and return it.

    The buffer keeps its array: a kernel writes into it and allocates only
    a fixed-size scratch (two arrays of PERMUTE_PIECE amplitudes for a
    controlled op, three of HADAMARD_PIECE for a Hadamard layer).  A
    controlled op only moves amplitudes, so its result is exact; a
    Hadamard layer's result is bitwise that of whole-state butterflies.  The
    gate is checked before any amplitude is written, and anything but a
    ``StateBuffer`` (a frozen ``StateVector`` included) is refused with a
    ``TypeError``; to apply a gate to a snapshot, wrap a copy of its
    amplitudes in a ``StateBuffer``.
    """
    if not isinstance(state, StateBuffer):
        raise TypeError(
            f"apply_gate changes a StateBuffer in place, not a {type(state).__name__}"
        )
    if isinstance(gate, ControlledOp):
        kernel = _apply_controlled
    elif isinstance(gate, HadamardLayer):
        kernel = _apply_hadamard_layer
    else:
        raise TypeError(f"unknown gate {gate!r}")
    kernel(state.layout, gate, state.amplitudes)
    return state


# --- Toffoli netlists ----------------------------------------------------

class NetworkGate(NamedTuple):
    """One primitive of a netlist.  ``qubits`` lists controls first, target
    last; a SWAP trades its two qubits' values."""

    kind: str  # "x" | "cx" | "ccx" | "swap" | "h"
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Netlist:
    """X, CNOT, Toffoli, SWAP and H primitives.  Qubit i is bit i of a basis
    integer; the ``num_work_qubits`` work qubits, numbered from
    ``num_qubits``, enter and leave in |0>."""

    num_qubits: int
    gates: tuple[NetworkGate, ...]
    num_work_qubits: int = 0

    def counts(self) -> GateCounts:
        kinds = Counter(gate.kind for gate in self.gates)
        return GateCounts(
            toffoli=kinds["ccx"],
            cnot=kinds["cx"],
            single_qubit=kinds["x"] + kinds["h"],
            swap=kinds["swap"],
        )

    def apply_to_basis(self, bits: int) -> int:
        """The basis integer that the permutation gates send ``bits`` to."""
        for kind, qubits in self.gates:
            if kind == "swap":
                a, b = qubits
                if ((bits >> a) ^ (bits >> b)) & 1:
                    bits ^= (1 << a) | (1 << b)
            elif kind == "h":
                raise ValueError("a Hadamard does not map a basis state to a basis state")
            else:
                *controls, target = qubits
                if all((bits >> c) & 1 for c in controls):
                    bits ^= 1 << target
        return bits


def _mcx_gates(controls: list[tuple[int, int]], target: int, first_work: int) -> list[NetworkGate]:
    """A flip of ``target`` where every (qubit, polarity) control matches.

    No control is one X.  Otherwise a ladder of c-1 Toffolis carries the
    AND of the c controls up through c-1 work qubits from ``first_work``, a
    CNOT from the last carry drives the target and the ladder is uncomputed:
    2(c-1) Toffolis and one CNOT, exactly linear in c, which is what the
    per-step scaling checks rely on.  Zero-polarity controls are conjugated
    by X.
    """
    if not controls:
        return [NetworkGate("x", (target,))]
    inverted = [NetworkGate("x", (qubit,)) for qubit, bit in controls if not bit]
    ladder, carry = [], controls[0][0]
    for work, (qubit, _) in enumerate(controls[1:], start=first_work):
        ladder.append(NetworkGate("ccx", (carry, qubit, work)))
        carry = work
    return [*inverted, *ladder, NetworkGate("cx", (carry, target)), *reversed(ladder), *inverted]


def decompose_mcx(num_controls: int, control_polarity=None) -> Netlist:
    """A multi-controlled X as a netlist: controls 0..c-1, target c and the
    ladder's work qubits from c+1 (Barenco et al., quant-ph/9503016)."""
    if num_controls < 1:
        raise ValueError(f"num_controls must be >= 1, got {num_controls}")
    if control_polarity is None:
        control_polarity = (1,) * num_controls
    polarity = tuple(int(b) for b in control_polarity)
    if len(polarity) != num_controls or any(b not in (0, 1) for b in polarity):
        raise ValueError("control_polarity must give one bit per control")
    gates = _mcx_gates(list(enumerate(polarity)), num_controls, num_controls + 1)
    return Netlist(num_controls + 1, tuple(gates), max(0, num_controls - 1))


def lower(gate: Gate, layout: RegisterLayout) -> Netlist:
    """The gate as a netlist on the layout's qubits, qubit i being bit i of
    the basis index, with work qubits numbered from ``layout.total_qubits``.

    A flip under c controls is the ``_mcx_gates`` ladder.  A register swap
    under c controls is, per qubit pair (a, b), CNOT(b->a), a flip of b under
    the c controls and a, then CNOT(b->a); with no control it is one SWAP
    per pair.  A Hadamard layer is one H per target.  The gate is checked as
    ``apply_gate`` checks it, so a gate that cannot run is not lowered.
    """
    top = layout.total_qubits - 1
    if isinstance(gate, HadamardLayer):
        positions = _hadamard_positions(layout, gate.targets)
        return Netlist(layout.total_qubits, tuple(NetworkGate("h", (top - p,)) for p in positions))
    if not isinstance(gate, ControlledOp):
        raise TypeError(f"unknown gate {gate!r}")

    mask, bits = _resolve_controlled(layout, gate)
    controls = [(q, (bits >> q) & 1) for q in range(layout.total_qubits) if (mask >> q) & 1]
    action = gate.action
    if isinstance(action, FlipQubit):
        target = top - _qubit_axis(layout, action.register, action.qubit)
        gates = _mcx_gates(controls, target, layout.total_qubits)
        work = len(controls) - 1
    else:
        shift_a, shift_b = layout.field_shift(action.reg_a), layout.field_shift(action.reg_b)
        gates = []
        for i in range(layout.width(action.reg_a)):
            a, b = shift_a + i, shift_b + i
            if not controls:
                gates.append(NetworkGate("swap", (a, b)))
                continue
            cnot = NetworkGate("cx", (b, a))
            gates += [cnot, *_mcx_gates([*controls, (a, 1)], b, layout.total_qubits), cnot]
        # each pair's flip has one control more, so every pair reuses c work qubits
        work = len(controls)
    return Netlist(layout.total_qubits, tuple(gates), max(0, work))


# --- gate accounting ---------------------------------------------------------

@dataclass(frozen=True)
class GateCounts:
    """Primitive-gate totals.  The headline cost metric is the Toffoli count;
    CNOT and single-qubit gates are tracked but priced at zero."""

    toffoli: int = 0
    cnot: int = 0
    single_qubit: int = 0
    swap: int = 0

    def __add__(self, other: "GateCounts") -> "GateCounts":
        return GateCounts(
            toffoli=self.toffoli + other.toffoli,
            cnot=self.cnot + other.cnot,
            single_qubit=self.single_qubit + other.single_qubit,
            swap=self.swap + other.swap,
        )

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))



@dataclass
class GateTally:
    """Per-step and total primitive counts for one algorithm run."""

    per_step: dict[str, GateCounts]

    @property
    def total(self) -> GateCounts:
        return sum(self.per_step.values(), GateCounts())

    @property
    def toffoli_equivalents(self) -> int:
        return self.total.toffoli

    def to_dict(self) -> dict:
        return {
            "per_step": {label: counts.as_dict() for label, counts in self.per_step.items()},
            "total": self.total.as_dict(),
            "toffoli_equivalents": self.toffoli_equivalents,
        }


@functools.lru_cache(maxsize=CACHE_SIZE)
def _lowered_counts(gate: Gate, layout: RegisterLayout) -> GateCounts:
    return lower(gate, layout).counts()


def tally_gates(trace: Sequence[tuple[str, Gate]], layout: RegisterLayout) -> GateTally:
    """Per-label totals of the primitives that ``lower`` gives each gate; a
    gate's counts are lowered once per (gate, layout) and then reused."""
    if not trace:
        raise ValueError("empty gate trace")
    per_step: dict[str, GateCounts] = {}
    for label, gate in trace:
        per_step[label] = per_step.get(label, GateCounts()) + _lowered_counts(gate, layout)
    return GateTally(per_step)
