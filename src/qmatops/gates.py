"""Projector-controlled primitives, Hadamard layers, and their netlists.

Each gate is checked against a layout once, by ``_plan``, which resolves it
to basis-index bits: the projector's (mask, bits), a flip's target bit, a
swap's two fields or a Hadamard layer's target bits.  The dense kernels, the
sparse kernels, ``pull_back``, ``light_cone`` and ``lower`` all read that one
cached plan.

Both gate kinds, a ``ControlledOp`` (a flip or register swap on a
projector's subspace) and a ``HadamardLayer``, act on pairs of amplitudes.
On a run's ``StateBuffer``, ``apply_gate`` reads the pairs off the plan as
equal-shaped views (``_sides``) and changes the array in place box by box
(``_boxes``) through scratch arrays of a fixed size, never one the size of
the state or of a subspace.  A controlled op exchanges its pairs, a
basis-state permutation, so it is exact; a Hadamard layer combines each
target's pairs in turn with the arithmetic of one whole-state butterfly
per qubit, so its result is bitwise the same.  A run's ``SparseBuffer``
goes through sparse kernels instead, each in two halves.  The index half
(``sparse_step``) reads only the support's indices: how a controlled op
permutes and re-sorts them, and how a Hadamard layer pairs them, target
by target, computing only the outputs in the (mask, bits) cubes that
``pull_back`` gives, the basis states from which the gates after the
layer can reach the run's accept pattern.  A circuit's index plan keeps
them, so a repeated circuit, or a row pair of a shape that has run, works
them out once, and hands each gate its own; the amplitude half
(``_sparse_amplitudes``) gathers the amplitudes and combines each with
its partner, +0.0 where none is listed, by the dense butterfly's
operations.  So the one sign a support may get wrong is a
zero's, where a +0.0 stands in for the dense run's signed zero;
``light_cone`` gives the dense run's amplitudes at any basis indices from
the states that reach them alone, for a sparse run's reads of exact zeros.
``lower`` turns a gate into the X, CNOT, Toffoli, SWAP and H ``Netlist``
that the gate tally counts.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .state import RegisterLayout, SparseBuffer, StateBuffer, _run_starts

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A dense gate combines its amplitude pairs in boxes of at most this many
# pairs, through two scratch arrays of that length (an exchange) or three (a
# butterfly), 64 KiB each, instead of temporaries the size of a subspace.
BOX = 1 << 12
# numpy loops over rows shorter than this more slowly than over a strided
# column, so a Hadamard target of a smaller stride goes column by column.
MIN_ROW = 8
# A read set (``pull_back``) of more (mask, bits) cubes than this is given
# up for every output; the routines' read sets hold one or two.
READ_CUBES = 64
# Plans of (layout, gate) pairs and primitive counts of (gate, layout)
# pairs kept for reuse.  Row-add and row-swap condition some ops on the
# rows k and l, so a process that runs them over many row pairs of a few
# shapes keeps a few hundred of each, a few hundred bytes apiece.
CACHE_SIZE = 1024

__all__ = [
    "Projector",
    "FlipQubit",
    "SwapRegisters",
    "ControlledOp",
    "HadamardLayer",
    "RegisterSwapGate",
    "apply_gate",
    "SparseStep",
    "sparse_step",
    "support_growth",
    "moved_bits",
    "pull_back",
    "light_cone",
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


def _qubit_bit(layout: RegisterLayout, register: str, qubit: int) -> int:
    """The basis-index bit of one qubit; qubit 0 is its register's most
    significant."""
    if not 0 <= qubit < layout.width(register):
        raise ValueError(f"qubit {qubit} out of range for register {register!r}")
    return 1 << (layout.total_qubits - 1 - layout.offset(register) - qubit)


@dataclass(frozen=True)
class _Plan:
    """A gate checked against a layout of ``qubits`` qubits and resolved to
    basis-index bits.

    A basis index s is selected iff s & mask == bits; a Hadamard layer
    selects every one.  ``targets`` holds a flip's target bit, or a Hadamard
    layer's target bits in the layer's order; ``fields`` a swap's two field
    shifts and field mask, else ().  ``butterfly`` is whether the gate's
    amplitude pairs are combined by a butterfly (a Hadamard layer) rather
    than exchanged.
    """

    mask: int
    bits: int
    targets: tuple[int, ...]
    fields: tuple[int, ...]
    butterfly: bool
    qubits: int

    @functools.cached_property
    def grid(self) -> tuple:
        """Where a controlled op's subspace lies in a dense state: the shape
        to view it in, one axis per run of qubits all conditioned, all free
        or all in one moved register; the subspace's index, a conditioned
        run's bits or the whole axis; and the subspace's moved axes, a
        flip's target or a swap's registers a and b, a the more significant.
        Only a dense gate reads it, so it is built on the first one's call
        and kept with the plan."""
        if self.fields:
            shift_a, shift_b, field = self.fields
            moved_bits = [(field << max(shift_a, shift_b), "a"), (field << min(shift_a, shift_b), "b")]
        else:
            moved_bits = [(self.targets[0], "t")]
        # each qubit's label, most significant first: conditioned (c), moved
        # (t, a or b) or free (f)
        labelled = [(self.mask, "c"), *moved_bits]
        labels = [next((label for m, label in labelled if (m >> q) & 1), "f") for q in reversed(range(self.qubits))]
        shape, base, axis_of = [], [], {}
        shift = self.qubits
        for label, run in itertools.groupby(labels):
            width = len(list(run))
            shift -= width
            axis_of[label] = len(base)  # read for the moved runs t, a and b
            shape.append(1 << width)
            base.append((self.bits >> shift) & ((1 << width) - 1) if label == "c" else slice(None))
        kept = [axis for axis, entry in enumerate(base) if isinstance(entry, slice)]
        moved = tuple(kept.index(axis_of[label]) for label in ("t", "a", "b") if label in axis_of)
        return tuple(shape), tuple(base), moved


@functools.lru_cache(maxsize=CACHE_SIZE)
def _plan(layout: RegisterLayout, gate: Gate) -> _Plan:
    """The gate's plan, once it is checked: its registers and qubits exist,
    no Hadamard target repeats, the projector resolves, a swap's registers
    are distinct and of equal width, and no moved qubit is one the
    projector conditions on."""
    total = layout.total_qubits
    if isinstance(gate, HadamardLayer):
        targets: list[int] = []
        for target in gate.targets:
            if isinstance(target, str):
                targets.extend(_qubit_bit(layout, target, q) for q in range(layout.width(target)))
            else:
                targets.append(_qubit_bit(layout, *target))
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate Hadamard target")
        return _Plan(0, 0, tuple(targets), (), True, total)
    if not isinstance(gate, ControlledOp):
        raise TypeError(f"unknown gate {gate!r}")
    mask, bits = gate.projector.resolve(layout)
    action = gate.action
    if isinstance(action, FlipQubit):
        target = _qubit_bit(layout, action.register, action.qubit)
        if target & mask:
            raise ValueError("flip target overlaps the projector's qubits")
        return _Plan(mask, bits, (target,), (), False, total)
    if not isinstance(action, SwapRegisters):
        raise TypeError(f"unknown action {action!r}")
    for name in (action.reg_a, action.reg_b):
        if layout.field_mask(name) & mask:
            raise ValueError("swap target overlaps the projector's qubits")
    widths = layout.width(action.reg_a), layout.width(action.reg_b)
    if widths[0] != widths[1]:
        raise ValueError(f"cannot swap {action.reg_a!r} and {action.reg_b!r}: widths {widths}")
    if action.reg_a == action.reg_b:
        raise ValueError("cannot swap a register with itself")
    shifts = layout.field_shift(action.reg_a), layout.field_shift(action.reg_b)
    return _Plan(mask, bits, (), (*shifts, (1 << widths[0]) - 1), False, total)


def _sides(amplitudes: np.ndarray, plan: _Plan):
    """The pairs of equal-shaped views (x, y) of a dense state whose
    elements a gate combines, x[i] with y[i]: a Hadamard target of stride s
    pairs the halves of the state viewed as (rest, 2, s), transposed below a
    stride of MIN_ROW so that their boxes are columns; a flip pairs the
    halves of its subspace, its target at 0 and at 1; and a swap of
    registers a and b pairs, for each row i, the strip a=i, b>i with the
    strip a>i, b=i in the first one's axis order, or, if its subspace fits
    in a box, the subspace with itself with a and b exchanged: one box that
    the exchange reads whole before its two writes, which agree.

    Index tuples are built from lists: CPython builds a tuple from a
    generator by shrinking a larger one and keeps each freed one on a free
    list of its size, so the loop would keep one per strip (up to 2000 of a
    size) after it ends.
    """
    if plan.butterfly:
        for stride in plan.targets:
            halves = amplitudes.reshape(-1, 2, stride)
            yield (halves[:, 0].T, halves[:, 1].T) if stride < MIN_ROW else (halves[:, 0], halves[:, 1])
        return
    shape, base, moved = plan.grid
    subspace = amplitudes.reshape(shape)[base]
    x, y = [slice(None)] * subspace.ndim, [slice(None)] * subspace.ndim
    if len(moved) == 1:
        x[moved[0]], y[moved[0]] = slice(0, 1), slice(1, 2)
        yield subspace[tuple(x)], subspace[tuple(y)]
        return
    a, b = moved
    exchanged = subspace.swapaxes(a, b)
    if subspace.size <= BOX:
        yield subspace, exchanged
        return
    for i in range(subspace.shape[a] - 1):
        x[a], x[b] = i, slice(i + 1, None)
        yield subspace[tuple(x)], exchanged[tuple(x)]


def _boxes(x: np.ndarray, y: np.ndarray):
    """The two sides cut into aligned boxes of at most BOX amplitudes: their
    trailing axes whole, one axis in chunks and single steps along the axes
    before it.  The steps change fastest, so a transposed Hadamard side
    takes every column of a chunk of rows while they are in cache."""
    shape, inner, cut = x.shape, 1, x.ndim
    while cut > 1 and inner * shape[cut - 1] <= BOX:
        cut -= 1
        inner *= shape[cut]
    step = BOX // inner
    chunks = [slice(start, start + step) for start in range(0, shape[cut - 1], step)]
    for chunk, *lead in itertools.product(chunks, *map(range, shape[: cut - 1])):
        box = (*lead, chunk)
        yield x[box], y[box]


def apply_gate(state: StateBuffer | SparseBuffer, gate: Gate) -> StateBuffer | SparseBuffer:
    """Apply one gate to a run's state in place and return it.

    A ``StateBuffer`` keeps its array: a controlled op exchanges each pair
    of boxes of the plan's sides (``_sides``, ``_boxes``), and a Hadamard
    target maps it to ((u + l) * c, (u - l) * c), c = 1/sqrt(2), the
    operations of a whole-state butterfly, so every bit is the same.  The
    only allocation is a scratch of two arrays of at most BOX amplitudes
    for an exchange, three for a butterfly.  A ``SparseBuffer`` gets the
    support of the gate's index half (``sparse_step``), the one a run's
    plan handed it or else one worked out on the spot, and the amplitudes
    that the same arithmetic gives on it (``_apply_sparse``).  The gate is
    checked before any amplitude is written, and anything else (a
    ``StateVector``, or a buffer that ``freeze`` has made read-only) is
    refused with a ``TypeError``; to apply a gate to a snapshot, wrap a
    copy of its arrays in a new buffer.
    """
    refused = "apply_gate changes a StateBuffer or a SparseBuffer in place, not a"
    if not isinstance(state, (StateBuffer, SparseBuffer)):
        raise TypeError(f"{refused} {type(state).__name__}")
    if not state.amplitudes.flags.writeable:
        raise TypeError(f"{refused} frozen {type(state).__name__}")
    plan = _plan(state.layout, gate)
    if isinstance(state, SparseBuffer):
        _apply_sparse(state, gate)
        return state
    butterfly = plan.butterfly
    scratch = np.empty((2 + butterfly, min(BOX, state.amplitudes.size)), dtype=np.complex128)
    for x, y in _sides(state.amplitudes, plan):
        for upper, lower in _boxes(x, y):
            if plan.fields and max(upper.shape) > upper.shape[-1]:
                # a swap box is copied along its longest axis, so that numpy's
                # inner loop is not a short trailing one
                longest = upper.shape.index(max(upper.shape))
                upper, lower = upper.swapaxes(longest, -1), lower.swapaxes(longest, -1)
            shape, size = upper.shape, upper.size
            # numpy sees that two rows or columns are disjoint, so a butterfly
            # writes between them with no buffer of its own; it loops over a
            # view of several axes through buffers it allocates, so any other
            # box is copied into contiguous scratch and back
            row = butterfly and size in shape
            if row:
                u, l = upper.reshape(-1), lower.reshape(-1)
            else:
                u, l = scratch[-2, :size], scratch[-1, :size]
                np.copyto(u.reshape(shape), upper)
                np.copyto(l.reshape(shape), lower)
            if butterfly:
                held = scratch[0, :size]
                np.add(u, l, out=held)
                np.subtract(u, l, out=l)
                np.multiply(l, _INV_SQRT2, out=l)
                np.multiply(held, _INV_SQRT2, out=u)
            else:
                u, l = l, u  # the copies go back exchanged
            if not row:
                np.copyto(upper, u.reshape(shape))
                np.copyto(lower, l.reshape(shape))
    return state


# --- support-sparse kernels ----------------------------------------------------

def support_growth(layout: RegisterLayout, gate: Gate, reads=None, zeros: int = 0) -> int:
    """The most times a gate can multiply the size of a support, from the
    circuit alone.  A controlled op permutes basis states, so 1.  A Hadamard
    layer gives 2 per target; with ``reads``, the cubes its sparse kernel
    computes (``pull_back``), the sum over them of 2 per target the cube
    leaves free, if that is less.  A cube that fixes to 1, off the targets,
    one of the ``zeros`` bits, which every state the layer meets holds at
    0, agrees with no listed entry, so the kernel computes none of it.
    """
    plan = _plan(layout, gate)
    if not plan.butterfly:
        return 1
    growth = 1 << len(plan.targets)
    if reads is None:
        return growth
    free = sum(plan.targets)
    reached = sum(1 << bin(free & ~mask).count("1") for mask, bits in reads if not bits & zeros & ~free)
    # with none in reach, the kernel lists one +0.0
    return min(growth, reached) or 1


def moved_bits(layout: RegisterLayout, gate: Gate) -> int:
    """The bits a gate may change: a flip's or Hadamard layer's targets, a swap's fields."""
    plan = _plan(layout, gate)
    shift_a, shift_b, field = plan.fields or (0, 0, 0)
    return sum(plan.targets) | field << shift_a | field << shift_b


class SparseStep(NamedTuple):
    """The index half of one gate on a support, worked out from its indices
    alone (``sparse_step``): ``indices``, the sorted support after the gate;
    for a Hadamard layer, ``targets``, one (take, put, pairs) per target, in
    the layer's order: the earlier outputs that the target pairs, where each
    goes among its ``2 * pairs`` outputs, and how many pairs it forms; and
    ``order``, which of the last outputs each listed amplitude is, or None
    when a controlled op leaves the amplitudes in their order.  ``zero``
    says that no listed amplitude reaches the outputs the layer computes,
    so the one listed output holds the +0.0 that every unlisted one holds.
    """

    indices: np.ndarray
    targets: tuple[tuple[np.ndarray, np.ndarray, int], ...]
    order: np.ndarray | None
    zero: bool = False


def sparse_step(layout: RegisterLayout, indices: np.ndarray, gate: Gate, reads=None) -> SparseStep:
    """The index half of ``gate`` on a support with these sorted ``indices``.

    A flip XORs its target bit into the selected indices, and a swap
    exchanges two bit fields of them; the support is then sorted again,
    unless it still is.  A Hadamard layer computes only the outputs that
    the ``reads`` cubes hold (``pull_back``), or every output when they
    are None.  An entry that agrees with no cube off the target bits feeds
    no read output, so such entries go first.  Then each target in the
    layer's order pairs the entries that differ only in its bit, +0.0
    standing for an absent partner.  The pairs are found by a stable sort
    of the entries' keys, their indices with the bit cleared: a sorted
    support's keys, or the previous target's outputs, form a few sorted
    runs, and numpy's stable sort of int64 values, a timsort, merges runs.
    Of the two outputs of a pair it keeps those that agree with a cube off
    the targets still to come: the later targets mix an output only with
    outputs that agree with it off them, and both inputs of a kept output
    are kept outputs of the target before.  So every kept output has the
    dense result's bits, and stays listed, zeros included.  When no entry
    is kept, one read output is listed as the +0.0 that every unlisted one
    holds, so the support is never empty.  A run hands each gate the index
    half its circuit's plan keeps (``algorithms.IndexPlan``); ``apply_gate``
    works one out on the spot for a buffer that carries none.
    """
    plan = _plan(layout, gate)
    if not plan.butterfly:
        indices = _moved(plan, indices)
        # a flip of a low bit often keeps the support sorted; a swap moves
        # whole fields across it
        if not plan.fields and (indices[1:] > indices[:-1]).all():
            return SparseStep(indices, (), None)
        order = np.argsort(indices, kind="stable")
        return SparseStep(indices[order], (), order)

    def kept(indices, free):
        """Which entries agree with a cube off the ``free`` bits; None for all."""
        if reads is None:
            return None
        (mask, bits), *others = reads
        hit = (indices & (mask & ~free)) == bits & ~free
        for mask, bits in others:
            hit |= (indices & (mask & ~free)) == bits & ~free
        return np.flatnonzero(hit)

    later = sum(plan.targets)
    at = kept(indices, later)
    targets = []
    for bit in plan.targets:
        later &= ~bit
        if at is not None:
            indices = indices[at]
        keys = indices & ~bit
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = _run_starts(keys)
        slot = np.cumsum(new)
        slot -= 1
        keys = keys[new]
        # the entry's side of its pair (its bit) picks the half of the outputs
        put = ((indices[order] >> (bit.bit_length() - 1)) & 1) * keys.size
        put += slot
        targets.append((order if at is None else at[order], put, keys.size))
        indices = np.concatenate((keys, keys | bit))
        at = kept(indices, later)
    if at is not None:
        indices = indices[at]
    if not indices.size:
        return SparseStep(np.array([reads[0][1]], dtype=np.int64), tuple(targets), None, True)
    order = np.argsort(indices, kind="stable")
    return SparseStep(indices[order], tuple(targets), order if at is None else at[order])


def _sparse_amplitudes(amplitudes: np.ndarray, step: SparseStep) -> np.ndarray:
    """The amplitude half of a gate on a support: each Hadamard target's
    pairs, +0.0 for an absent partner, combined with the dense butterfly's
    operations, and the outputs gathered in the support's order."""
    for take, put, pairs in step.targets:
        halves = np.zeros(2 * pairs, dtype=np.complex128)
        halves[put] = amplitudes[take]
        upper, lower = halves.reshape(2, pairs)
        total = np.add(upper, lower)
        np.subtract(upper, lower, out=lower)
        np.multiply(lower, _INV_SQRT2, out=lower)
        np.multiply(total, _INV_SQRT2, out=upper)
        amplitudes = halves
    if step.zero:
        return np.zeros(1, dtype=np.complex128)
    return amplitudes if step.order is None else amplitudes[step.order]


def _apply_sparse(state: SparseBuffer, gate: Gate) -> None:
    """A gate on a support: the index half the run's plan handed the buffer
    (``state.planned``, which the gate uses up), or one worked out on the
    spot that computes every output, then the amplitude half."""
    step, state.planned = state.planned, None
    if step is None:
        step = sparse_step(state.layout, state.indices, gate)
    state.indices, state.amplitudes = step.indices, _sparse_amplitudes(state.amplitudes, step)


def _moved(plan: _Plan, indices: np.ndarray) -> np.ndarray:
    """Where a controlled op sends basis indices: the selected ones with the
    flip's target bit or the swap's two fields exchanged.  The op is its own
    inverse, so these are also the indices it sends to them."""
    hit = (indices & plan.mask) == plan.bits
    if plan.fields:
        return indices ^ _swapped_bits(indices, plan.fields) * hit
    return indices ^ hit * plan.targets[0]


def light_cone(
    layout: RegisterLayout, gates: Sequence[Gate], at: np.ndarray, prepared: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """The amplitudes at the basis indices ``at`` after ``gates`` are
    applied densely to the state whose amplitudes ``prepared`` gives at any
    basis indices: the dense run's bits, signed zeros included, from the
    basis states that can reach ``at`` alone.

    Each index is pulled back from the last gate to the first.  A controlled
    op is its own inverse, so it sends the index to the one it comes from.
    A Hadamard layer frees its targets' bits: its output at x is made of
    the leaves that agree with x off them, which the gates before the layer
    give, combined target by target in the layer's order (``_mixed``).  The
    leaves go in blocks of at most BOX, the first targets' bits changing
    fastest, so that each block is reduced through those targets before
    the next is evaluated.  Each gate's plan is looked up once per call.
    """
    return _cone(tuple(_plan(layout, gate) for gate in gates), np.asarray(at, dtype=np.int64), prepared)


def _cone(plans: tuple[_Plan, ...], at: np.ndarray, prepared: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``light_cone`` over the gates' plans."""
    for position in reversed(range(len(plans))):
        plan = plans[position]
        if not plan.butterfly:
            at = _moved(plan, at)
            continue
        # the first ``low`` targets within a block, the others across blocks
        low = min(len(plan.targets), BOX.bit_length() - 1)
        inner, outer = _spread(plan.targets[:low]), _spread(plan.targets[low:])
        starts = ((at & ~sum(plan.targets))[:, None] | outer).ravel()
        signs = np.repeat(at, outer.size)
        step = BOX >> low
        sums = np.empty(starts.size, dtype=np.complex128)
        for start in range(0, starts.size, step):
            leaves = (starts[start : start + step, None] | inner).ravel()
            values = _cone(plans[:position], leaves, prepared).reshape(-1, inner.size)
            sums[start : start + step] = _mixed(values, signs[start : start + step], plan.targets[:low])
        return _mixed(sums.reshape(at.size, outer.size), at, plan.targets[low:])
    return prepared(at)


def _spread(targets: tuple[int, ...]) -> np.ndarray:
    """Each combination of the target bits, target j's bit set where bit j
    of the combination's position is."""
    combinations = np.zeros(1, dtype=np.int64)
    for bit in targets:
        combinations = np.concatenate((combinations, combinations | bit))
    return combinations


def _mixed(values: np.ndarray, at: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Each row of ``values``, the inputs of a Hadamard layer's ``targets``
    at every combination of their bits (``_spread``), reduced to the output
    at the row's index in ``at``: target by target, by the dense butterfly's
    ``(u + l) * c`` where the index holds its bit at 0, ``(u - l) * c`` at 1."""
    for bit in targets:
        upper, lower = values[:, 0::2], values[:, 1::2]
        mixed = np.add(upper, lower)
        np.subtract(upper, lower, out=mixed, where=((at & bit) != 0)[:, None])
        values = np.multiply(mixed, _INV_SQRT2, out=mixed)
    return values[:, 0]


def _swapped_bits(values, fields: tuple[int, ...]):
    """What to XOR into basis indices, or a cube's mask or bits, to exchange
    a swap's two fields of them."""
    shift_a, shift_b, field = fields
    differ = ((values >> shift_a) ^ (values >> shift_b)) & field
    return (differ << shift_a) | (differ << shift_b)


def pull_back(
    layout: RegisterLayout, gates: tuple[Gate, ...], accept: tuple[int, int]
) -> tuple[tuple[int, int], ...] | None:
    """The basis states from which ``gates``, applied in order, can reach
    one that matches the (mask, bits) pattern ``accept``, as a tuple of
    (mask, bits) cubes, or None, every basis state, past READ_CUBES cubes.

    The cubes are pulled back from the last gate to the first, each read
    off the gate's plan.  A controlled op is its own inverse, so it sends
    into a cube Q the states of Q outside its projector P and the image of
    Q and P's intersection under its action; each cube Q stays, and that
    image joins it.  A Hadamard layer mixes only states that agree off its
    targets, so it frees their bits.  A cube inside another is dropped.
    """
    cubes = [accept]
    for gate in reversed(gates):
        plan = _plan(layout, gate)
        if plan.butterfly:
            free = sum(plan.targets)
            cubes = [(mask & ~free, bits & ~free) for mask, bits in cubes]
        else:
            meets = [
                (mask | plan.mask, bits | plan.bits)
                for mask, bits in cubes
                if not mask & plan.mask & (bits ^ plan.bits)
            ]
            if plan.fields:
                moved = [(m ^ _swapped_bits(m, plan.fields), b ^ _swapped_bits(b, plan.fields)) for m, b in meets]
            else:
                moved = [(mask, bits ^ (mask & plan.targets[0])) for mask, bits in meets]
            cubes += moved
        cubes = list(dict.fromkeys(cubes))
        cubes = [inner for inner in cubes if not any(_contains(outer, inner) for outer in cubes if outer != inner)]
        if len(cubes) > READ_CUBES:
            return None
    return tuple(cubes)


def _contains(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    """Whether every basis state of the cube ``inner`` lies in ``outer``."""
    return not outer[0] & ~inner[0] and inner[1] & outer[0] == outer[1]


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
    per pair.  A Hadamard layer is one H per target.  The gate is read from
    the plan that ``apply_gate`` runs, so a gate that cannot run is not
    lowered.
    """
    num_qubits = layout.total_qubits
    plan = _plan(layout, gate)
    if plan.butterfly:
        return Netlist(num_qubits, tuple(NetworkGate("h", (bit.bit_length() - 1,)) for bit in plan.targets))
    controls = [(q, (plan.bits >> q) & 1) for q in range(num_qubits) if (plan.mask >> q) & 1]
    if not plan.fields:
        gates = _mcx_gates(controls, plan.targets[0].bit_length() - 1, num_qubits)
        work = len(controls) - 1
    else:
        shift_a, shift_b, field = plan.fields
        gates = []
        for i in range(field.bit_length()):
            a, b = shift_a + i, shift_b + i
            if not controls:
                gates.append(NetworkGate("swap", (a, b)))
                continue
            cnot = NetworkGate("cx", (b, a))
            gates += [cnot, *_mcx_gates([*controls, (a, 1)], b, num_qubits), cnot]
        # each pair's flip has one control more, so every pair reuses c work qubits
        work = len(controls)
    return Netlist(num_qubits, tuple(gates), max(0, work))


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


@dataclass(frozen=True)
class GateTally:
    """Per-step and total primitive counts for one algorithm run.  A run
    shares its circuit's tally, so ``per_step`` is a read-only mapping."""

    per_step: Mapping[str, GateCounts]

    def __post_init__(self):
        object.__setattr__(self, "per_step", MappingProxyType(dict(self.per_step)))

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
