"""Projector-controlled primitives, Hadamard layers, and gate accounting.

Every gate here except the Hadamard layer is a basis-state permutation, so
application is exact: amplitudes move, they are never recombined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .state import RegisterLayout, StateVector, qubit_index, qubit_view

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

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


@dataclass(frozen=True)
class RegisterSwapGate:
    """Unconditional swap of two equal-width registers."""

    reg_a: str
    reg_b: str


Gate = Union[ControlledOp, HadamardLayer, RegisterSwapGate]


def _qubit_axis(layout: RegisterLayout, register: str, qubit: int) -> int:
    """Axis of one qubit in the qubit view; axis 0 is the most significant bit."""
    if not 0 <= qubit < layout.width(register):
        raise ValueError(f"qubit {qubit} out of range for register {register!r}")
    return layout.offset(register) + qubit


def _qubit_bit(layout: RegisterLayout, register: str, qubit: int) -> int:
    return 1 << (layout.total_qubits - 1 - _qubit_axis(layout, register, qubit))


def _swapped_axes(layout: RegisterLayout, reg_a: str, reg_b: str) -> list[int]:
    """Qubit axes in layout order with the axes of two registers exchanged."""
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError(
            f"cannot swap registers of different widths: "
            f"{reg_a!r} ({layout.width(reg_a)}) vs {reg_b!r} ({layout.width(reg_b)})"
        )
    if reg_a == reg_b:
        raise ValueError("cannot swap a register with itself")
    axes = list(range(layout.total_qubits))
    a, b, width = layout.offset(reg_a), layout.offset(reg_b), layout.width(reg_a)
    axes[a : a + width], axes[b : b + width] = axes[b : b + width], axes[a : a + width]
    return axes


def _apply_controlled(state: StateVector, op: ControlledOp) -> StateVector:
    """Exact permutation application of a projector-controlled flip or swap:
    a flip exchanges the two halves of the projector's subspace along the
    target axis, a swap assigns the subspace from an axis-transposed view."""
    layout = state.layout
    mask, bits = op.projector.resolve(layout)
    action = op.action
    source = qubit_view(state.amplitudes, layout)
    if isinstance(action, FlipQubit):
        flip = _qubit_bit(layout, action.register, action.qubit)
        if flip & mask:
            raise ValueError("flip target overlaps the projector's qubits")
        low = qubit_index(layout, (mask | flip, bits))
        high = qubit_index(layout, (mask | flip, bits | flip))
        moves = ((low, high), (high, low))
    elif isinstance(action, SwapRegisters):
        for name in (action.reg_a, action.reg_b):
            if layout.field_mask(name) & mask:
                raise ValueError("swap target overlaps the projector's qubits")
        source = source.transpose(_swapped_axes(layout, action.reg_a, action.reg_b))
        selected = qubit_index(layout, (mask, bits))
        moves = ((selected, selected),)
    else:
        raise TypeError(f"unknown action {action!r}")

    # with no condition the moves write every amplitude, so nothing is copied first
    out = np.empty_like(state.amplitudes) if mask == 0 else state.amplitudes.copy()
    target = qubit_view(out, layout)
    for into, read in moves:
        target[into] = source[read]
    out.setflags(write=False)
    return StateVector(layout, out)


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


def _apply_hadamard_layer(state: StateVector, layer: HadamardLayer) -> StateVector:
    layout = state.layout
    positions = _hadamard_positions(layout, layer.targets)
    work = state.amplitudes.copy()
    for position in positions:
        view = work.reshape((1 << position, 2, -1))
        upper = view[:, 0, :]
        lower = view[:, 1, :]
        total = (upper + lower) * _INV_SQRT2
        difference = (upper - lower) * _INV_SQRT2
        view[:, 0, :] = total
        view[:, 1, :] = difference
    work.setflags(write=False)
    return StateVector(layout, work)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate to a copy of ``state``.  Every gate but a Hadamard
    layer only copies amplitudes, so its result is exact."""
    if isinstance(gate, RegisterSwapGate):
        gate = ControlledOp(Projector(), SwapRegisters(gate.reg_a, gate.reg_b))
    if isinstance(gate, ControlledOp):
        return _apply_controlled(state, gate)
    if isinstance(gate, HadamardLayer):
        return _apply_hadamard_layer(state, gate)
    raise TypeError(f"unknown gate {gate!r}")


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
    CNOT-conjugated Toffoli per qubit pair."""
    if isinstance(gate, HadamardLayer):
        return GateCounts(single_qubit=len(_hadamard_positions(layout, gate.targets)))
    if isinstance(gate, RegisterSwapGate):
        if layout.width(gate.reg_a) != layout.width(gate.reg_b):
            raise ValueError("register widths differ")
        return GateCounts(swap=layout.width(gate.reg_a))
    if not isinstance(gate, ControlledOp):
        raise TypeError(f"unknown gate {gate!r}")

    mask, bits = gate.projector.resolve(layout)
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
