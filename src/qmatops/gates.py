"""Projector-controlled primitives, Hadamard layers, and gate accounting.

Two gate kinds, a ``ControlledOp`` (a flip or register swap on a
projector's subspace) and a ``HadamardLayer``, each have one kernel, which
changes a run's ``StateBuffer`` in place.  A controlled op is a basis-state
permutation, so it is exact: amplitudes move, they are never recombined.  A
Hadamard layer runs its butterflies in place, cache block by cache block,
with the arithmetic of one whole-state butterfly per qubit in the same
order, so its result is bitwise the same as that.  The kernel and
``op_counts`` check a controlled op against the layout the same way.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .state import RegisterLayout, StateBuffer, qubit_index, qubit_view

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

__all__ = [
    "Projector",
    "FlipQubit",
    "SwapRegisters",
    "ControlledOp",
    "HadamardLayer",
    "RegisterSwapGate",
    "apply_gate",
    "NetworkGate",
    "McxNetwork",
    "decompose_mcx",
    "GateCounts",
    "GateTally",
    "tally_gates",
    "op_counts",
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


def _apply_controlled(
    layout: RegisterLayout, op: ControlledOp, amplitudes: np.ndarray
) -> np.ndarray:
    """Exact permutation kernel of a projector-controlled flip or swap: the
    projector's subspace of ``amplitudes`` is assigned in place from a
    permuted view, reversed along the target axis for a flip (its two
    halves trade places) and with the two registers' axes exchanged for a
    swap.  Returns the array that holds the result."""
    mask, bits = _resolve_controlled(layout, op)
    action = op.action
    view = qubit_view(amplitudes, layout)
    if isinstance(action, FlipQubit):
        axis = _qubit_axis(layout, action.register, action.qubit)
        permuted = view[(slice(None),) * axis + (slice(None, None, -1),)]
    else:
        axes = list(range(layout.total_qubits))
        a, b = layout.offset(action.reg_a), layout.offset(action.reg_b)
        width = layout.width(action.reg_a)
        axes[a : a + width], axes[b : b + width] = axes[b : b + width], axes[a : a + width]
        permuted = view.transpose(axes)

    if mask == 0:
        # every amplitude moves, so one pass writes a permuted copy that
        # replaces the buffer, instead of a temporary and a copy back
        return np.ascontiguousarray(permuted).reshape(-1)
    selected = qubit_index(layout, (mask, bits))
    # numpy reads a source that overlaps its destination through a
    # temporary, so this holds one copy of the selected subspace
    view[selected] = permuted[selected]
    return amplitudes


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
) -> np.ndarray:
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
    return amplitudes


def apply_gate(state: StateBuffer, gate: Gate) -> StateBuffer:
    """Apply one gate to a run's ``StateBuffer`` in place and return it.

    A controlled op only moves amplitudes, so its result is exact; a
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
    state.amplitudes = kernel(state.layout, gate, state.amplitudes)
    return state


# --- multi-controlled X expansion -------------------------------------------

@dataclass(frozen=True)
class NetworkGate:
    """One primitive in an expansion network.  ``qubits`` lists controls
    first, target last; qubit i is bit i of a basis integer."""

    kind: str  # "x" | "cx" | "ccx"
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class McxNetwork:
    """Toffoli network computing an X on the target conditioned on all
    controls matching their polarity bits.

    Qubit numbering: controls 0..c-1, target c, work qubits c+1 onward.
    Work qubits enter and leave in |0>.
    """

    num_controls: int
    control_polarity: tuple[int, ...]
    gates: tuple[NetworkGate, ...]
    num_work_qubits: int

    @property
    def num_qubits(self) -> int:
        return self.num_controls + 1 + self.num_work_qubits

    def counts(self) -> "GateCounts":
        toffoli = sum(1 for g in self.gates if g.kind == "ccx")
        cnot = sum(1 for g in self.gates if g.kind == "cx")
        single = sum(1 for g in self.gates if g.kind == "x")
        return GateCounts(toffoli=toffoli, cnot=cnot, single_qubit=single)

    def apply_to_basis(self, bits: int) -> int:
        for gate in self.gates:
            *controls, target = gate.qubits
            if all((bits >> c) & 1 for c in controls):
                bits ^= 1 << target
        return bits


def decompose_mcx(num_controls: int, control_polarity=None) -> McxNetwork:
    """Expand a multi-controlled X into Toffoli/CNOT/X primitives.

    A single ladder construction covers every control count uniformly:
    c controls compute their AND into c-1 clean work qubits with c-1
    Toffolis, a CNOT drives the target, and the ladder is uncomputed.
    Totals: 2(c-1) Toffolis and one CNOT, exactly linear in c, which is
    what the per-step scaling checks rely on.  Zero-polarity controls are
    conjugated by X.
    """
    if num_controls < 1:
        raise ValueError(f"num_controls must be >= 1, got {num_controls}")
    if control_polarity is None:
        control_polarity = (1,) * num_controls
    polarity = tuple(int(b) for b in control_polarity)
    if len(polarity) != num_controls or any(b not in (0, 1) for b in polarity):
        raise ValueError("control_polarity must give one bit per control")

    gates: list[NetworkGate] = []
    inverted = [i for i, b in enumerate(polarity) if b == 0]
    gates.extend(NetworkGate("x", (i,)) for i in inverted)

    target = num_controls
    if num_controls == 1:
        num_work = 0
        gates.append(NetworkGate("cx", (0, target)))
    else:
        num_work = num_controls - 1
        first_work = num_controls + 1
        ladder = [NetworkGate("ccx", (0, 1, first_work))]
        for i in range(2, num_controls):
            ladder.append(NetworkGate("ccx", (i, first_work + i - 2, first_work + i - 1)))
        gates.extend(ladder)
        gates.append(NetworkGate("cx", (first_work + num_controls - 2, target)))
        gates.extend(reversed(ladder))

    gates.extend(NetworkGate("x", (i,)) for i in inverted)
    return McxNetwork(num_controls, polarity, tuple(gates), num_work)


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
        return {
            "toffoli": self.toffoli,
            "cnot": self.cnot,
            "single_qubit": self.single_qubit,
            "swap": self.swap,
        }


def _mask_polarities(mask: int, bits: int) -> tuple[int, ...]:
    polarity = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
        polarity.append(1 if bits & low else 0)
        remaining ^= low
    return tuple(polarity)


def op_counts(gate: Gate, layout: RegisterLayout) -> GateCounts:
    """Primitive counts for one gate, expanding controls through
    ``decompose_mcx`` and controlled swaps through the standard
    CNOT-conjugated Toffoli per qubit pair.  The gate is checked as
    ``apply_gate`` checks it, so a gate that cannot run is not counted."""
    if isinstance(gate, HadamardLayer):
        return GateCounts(single_qubit=len(_hadamard_positions(layout, gate.targets)))
    if not isinstance(gate, ControlledOp):
        raise TypeError(f"unknown gate {gate!r}")

    mask, bits = _resolve_controlled(layout, gate)
    num_controls = mask.bit_count()
    polarity = _mask_polarities(mask, bits)
    action = gate.action

    if isinstance(action, FlipQubit):
        if num_controls == 0:
            return GateCounts(single_qubit=1)
        return decompose_mcx(num_controls, polarity).counts()

    pairs = layout.width(action.reg_a)
    if num_controls == 0:
        return GateCounts(swap=pairs)
    # each controlled qubit-pair swap is CNOT, (c+1)-control flip, CNOT
    per_pair = decompose_mcx(num_controls + 1, polarity + (1,)).counts()
    per_pair = per_pair + GateCounts(cnot=2)
    total = GateCounts()
    for _ in range(pairs):
        total = total + per_pair
    return total


@dataclass
class GateTally:
    """Per-step and total primitive counts for one algorithm run."""

    per_step: dict[str, GateCounts]

    @property
    def total(self) -> GateCounts:
        result = GateCounts()
        for counts in self.per_step.values():
            result = result + counts
        return result

    @property
    def toffoli_equivalents(self) -> int:
        return self.total.toffoli

    def to_dict(self) -> dict:
        return {
            "per_step": {label: counts.as_dict() for label, counts in self.per_step.items()},
            "total": self.total.as_dict(),
            "toffoli_equivalents": self.toffoli_equivalents,
        }


def tally_gates(trace: Sequence[tuple[str, Gate]], layout: RegisterLayout) -> GateTally:
    """Aggregate ``op_counts`` over a labeled gate trace."""
    if not trace:
        raise ValueError("empty gate trace")
    per_step: dict[str, GateCounts] = {}
    for label, gate in trace:
        per_step[label] = per_step.get(label, GateCounts()) + op_counts(gate, layout)
    return GateTally(per_step)
