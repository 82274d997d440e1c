"""State-vector core: register layouts, matrix amplitude encoding, the two
state representations and every read of a state's amplitudes.

A state is dense, one complex128 amplitude per basis index (``StateVector``
frozen, ``StateBuffer`` writable), or support-sparse (``SparseBuffer``):
sorted int64 basis indices and their amplitudes, every other index holding
+0.0.  Preparation and every readout give a sparse state the bits that the
dense arithmetic gives the same amplitudes; a run's final sparse state reads
an exact-zero part off the dense run's light cone.

Basis convention: registers are packed into the basis index
most-significant-first in declaration order, and qubit 0 of a register is
its most significant bit, so the basis label |i> of a register is simply
the binary expansion of i.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# widest layout that may be simulated; layouts themselves are unbounded, so
# gate tallies reach any width.  qubit_view gives every qubit its own array
# dimension, so this must stay within numpy's dimension limit (32 on numpy 1.x)
MAX_QUBITS = 26

PART_NORM_TOL = 1e-9
DECODE_MASS_TOL = 1e-9
ZERO_PROBABILITY_FLOOR = 1e-300
# amplitudes scanned per step while looking for the first occupied ones
OCCUPIED_SCAN_CHUNK = 1 << 16
# squared_mass sums blocks of this many amplitudes through one float buffer
# (2^13 float64, 64 KiB); a power of two of at least 2^7, numpy's smallest
# pairwise block
MASS_BLOCK = 1 << 13

# numpy sums a float64 array pairwise: it halves it down to blocks of at most
# PAIRWISE_BLOCK values and sums a block of LANES or more in LANES
# accumulators, value p going to accumulator p % LANES; fewer it adds one by
# one.  A sparse squared mass lays out a subspace of at most LAID_OUT values
# (2^16 float64, 512 KiB) whole and sums it with np.sum; a larger one it sums
# from its listed entries in the same lanes and tree (_sparse_mass).  The
# lanes need 8 values or more, and up to about 2^16 the layout is also the
# faster.  On the first post-selection of unrecorded runs (2-core Xeon,
# numpy 2.4, warm, best of 7) the lane sum took 79 against 19 us at 2^12
# (row-swap 8x8, 64 entries) and 123 against 41 us at 2^15 (row-add 32x32,
# 1024 entries); the two cross near 2^16-2^17 (trace 32x32, one entry of
# 2^16: 38 against 50 us; row-swap 16x32, 512 of 2^17: 98 against 67 us),
# and from 2^18 the lanes win (row-add 64x64: 211 against 298 us; trace
# 64x64: 41 against 431 us)
PAIRWISE_BLOCK = 1 << 7
LANES = 8
LAID_OUT = 1 << 16

# prepare_product_state writes the product block by block of its leading
# factor, each block about this many amplitudes (2^15 complex128, 512 KiB),
# so the partial products of a block stay in L2 cache; decode_matrix
# evaluates a light cone at as many entries at a time
PREPARE_BLOCK = 1 << 15

# A run is sparse only when its circuit bounds its support within this share
# of its layout's amplitudes at every stage (algorithms._plan_run); any other
# is dense from preparation on, so no run holds a support and a dense copy
DENSE_SHARE = 1 / 8

# A layout of at most this many amplitudes (64 KiB) runs dense from the start:
# there a whole dense run takes 0.05-0.4 ms, and a sparse one, paying numpy's
# per-call cost on every kernel, is at best a sixth faster and at the smallest
# shapes slower
SPARSE_FLOOR = 1 << 12

# range of the largest matrix component in which encode_matrix takes the
# Frobenius norm directly: inside it the squared entries of any matrix that
# fits in memory neither overflow nor lose precision to underflow
NORM_SAFE_RANGE = (2.0**-480, 2.0**480)

__all__ = [
    "MAX_QUBITS",
    "RegisterLayout",
    "StateVector",
    "StateBuffer",
    "SparseBuffer",
    "LightCone",
    "EncodedMatrix",
    "AncillaVector",
    "PostSelection",
    "require_dense_width",
    "encode_matrix",
    "prepare_product_state",
    "prepared_support",
    "prepared_at",
    "decode_matrix",
    "post_select",
    "squared_mass",
    "pinned_share",
    "occupied_states",
    "supported_on",
    "qubit_view",
    "qubit_index",
]


def _frozen(arr) -> np.ndarray:
    """Return ``arr`` as a read-only, C-contiguous complex128 array."""
    out = np.asarray(arr, dtype=np.complex128)
    if out is arr and not out.flags.writeable and out.flags.c_contiguous:
        return out
    out = np.ascontiguousarray(out)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, named qubit registers making up one basis index.

    ``registers`` is a tuple of (name, width) pairs.  The first register
    owns the most significant bits of the index.
    """

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(name), int(width)) for name, width in self.registers)
        object.__setattr__(self, "registers", regs)
        if not regs:
            raise ValueError("layout needs at least one register")
        names = [name for name, _ in regs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        for name, width in regs:
            if width < 1:
                raise ValueError(f"register {name!r} must have width >= 1, got {width}")

    @cached_property
    def _fields(self) -> dict[str, tuple[int, int, int]]:
        """Each register's (offset, width, shift): its qubit 0's position,
        its width and the number of index bits below it."""
        fields: dict[str, tuple[int, int, int]] = {}
        offset = 0
        for name, width in self.registers:
            fields[name] = (offset, width, self.total_qubits - offset - width)
            offset += width
        return fields

    @cached_property
    def total_qubits(self) -> int:
        return sum(width for _, width in self.registers)

    @property
    def size(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    @property
    def shape(self) -> tuple[int, ...]:
        """Dimension of each register; ``np.unravel_index`` over it splits a
        basis index into register values."""
        return tuple(1 << width for _, width in self.registers)

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def _field(self, name: str) -> tuple[int, int, int]:
        try:
            return self._fields[name]
        except KeyError:
            raise ValueError(f"unknown register {name!r}") from None

    def width(self, name: str) -> int:
        return self._field(name)[1]

    def offset(self, name: str) -> int:
        """Global position of the register's qubit 0 (position 0 is the MSB)."""
        return self._field(name)[0]

    def field_shift(self, name: str) -> int:
        """Number of index bits below the register's field."""
        return self._field(name)[2]

    def field_mask(self, name: str) -> int:
        _, width, shift = self._field(name)
        return ((1 << width) - 1) << shift

    def pattern(self, values: Mapping[str, int]) -> tuple[int, int]:
        """Resolve a register->value mapping to a (mask, bits) index pattern."""
        mask = 0
        bits = 0
        for name, value in values.items():
            _, width, shift = self._field(name)
            value = int(value)
            if not 0 <= value < (1 << width):
                raise ValueError(
                    f"value {value} out of range for register {name!r} ({width} qubits)"
                )
            mask |= ((1 << width) - 1) << shift
            bits |= value << shift
        return mask, bits

    def basis_index(self, values: Mapping[str, int]) -> int:
        """Index of the basis state assigning a value to every register."""
        mask, bits = self.pattern(values)
        if mask != self.size - 1:
            missing = [name for name in self.names if name not in values]
            raise ValueError(f"assignment incomplete, missing {missing}")
        return bits


def qubit_view(amplitudes: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """``amplitudes`` as a ``(2,) * N`` array with one axis per qubit in
    layout order, axis 0 being the most significant bit; a view, not a copy."""
    return amplitudes.reshape((2,) * layout.total_qubits)


def qubit_index(layout: RegisterLayout, values: Mapping[str, int]) -> tuple:
    """Index tuple over ``qubit_view`` selecting the basis states whose
    registers hold ``values``.  It fixes each conditioned qubit's axis to its
    bit; the closing Ellipsis keeps the result a view even when every axis
    is fixed."""
    mask, bits = layout.pattern(values)
    index: list = [slice(None)] * layout.total_qubits
    while mask:
        low = mask & -mask
        index[layout.total_qubits - low.bit_length()] = 1 if bits & low else 0
        mask ^= low
    return (*index, Ellipsis)


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitude vector over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.amplitudes)
        if arr.ndim != 1 or arr.size != self.layout.size:
            raise ValueError(
                f"expected {self.layout.size} amplitudes for "
                f"{self.layout.total_qubits} qubits, got shape {arr.shape}"
            )
        object.__setattr__(self, "amplitudes", arr)

    @property
    def norm_squared(self) -> float:
        return squared_mass(self.amplitudes)

    def amplitude(self, values: Mapping[str, int]) -> complex:
        """Amplitude of one fully specified basis state."""
        return complex(self.amplitudes[self.layout.basis_index(values)])

    def checksum(self) -> str:
        # the frozen array is C-contiguous, so it is hashed in place
        return hashlib.sha256(self.amplitudes).hexdigest()[:16]


@dataclass(eq=False)
class StateBuffer:
    """The one writable amplitude array a circuit run owns; ``apply_gate``
    changes that array in place and never replaces it.

    ``StateVector(buffer.layout, buffer.amplitudes)`` copies it into a frozen
    snapshot; ``freeze`` turns the array itself into one, without a copy.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = self.amplitudes
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.complex128
            and arr.shape == (self.layout.size,)
            and arr.flags.c_contiguous
            and arr.flags.writeable
        ):
            raise ValueError(
                f"a state buffer needs a writable, contiguous complex128 array of "
                f"{self.layout.size} amplitudes"
            )

    @classmethod
    def adopt(cls, state: StateVector) -> "StateBuffer":
        """A buffer over ``state``'s own array, made writable again.  Only
        for a state that nothing else holds, such as one just prepared."""
        state.amplitudes.setflags(write=True)
        return cls(state.layout, state.amplitudes)

    def freeze(self) -> StateVector:
        """The buffer as a frozen state; it must not be written afterwards."""
        self.amplitudes.setflags(write=False)
        return StateVector(self.layout, self.amplitudes)


@dataclass(eq=False)
class SparseBuffer:
    """A run's state as its support: ``indices``, sorted distinct int64 basis
    indices, and ``amplitudes``, their complex128 values; every other basis
    index holds +0.0, where a dense run may hold signed zeros, which a
    Hadamard layer may add into a listed zero.  So a run's final buffer
    carries its ``cone`` (``LightCone``), from which ``amplitude`` and
    ``decode_matrix`` take every value with an exact-zero part whose sign
    the support may have lost.  An amplitude that a gate computed stays
    listed even when it is zero.  Both arrays are checked when the buffer
    is made.

    A run's plan (``algorithms.IndexPlan``) hands the buffer the index
    halves that depend on its indices alone: ``planned``, the next gate's
    (``gates.sparse_step``), which the gate uses up, leaving None, and
    ``readouts``, those of the reads of its final support, keyed by what
    they read (``_index_half``).  Without them a gate or a read works its
    index half out on the spot, and a Hadamard layer computes every output.
    A replayed plan keeps only each stage's last support, so between two
    gates of one stage ``indices`` may be None; only the stage's gates see
    the buffer then.
    A read stores a half it worked out only in a writable dict, which the
    second run of a circuit's plan, or of a row pair's memo, gives its
    final buffer (its first run a ``Selections``); ``readouts`` is
    otherwise read-only, and empty during a run.
    ``apply_gate`` replaces both arrays with the gate's result; ``freeze``
    makes them read-only, and the frozen buffer is the run's final state,
    which ``apply_gate`` refuses.
    """

    layout: RegisterLayout
    indices: np.ndarray
    amplitudes: np.ndarray
    planned: object = field(default=None, repr=False)
    readouts: Mapping[tuple, object] = field(default_factory=lambda: MappingProxyType({}), repr=False)
    cone: LightCone | None = field(default=None, repr=False)

    def __post_init__(self):
        indices, amplitudes = self.indices, self.amplitudes
        if not (
            isinstance(indices, np.ndarray)
            and isinstance(amplitudes, np.ndarray)
            and indices.dtype == np.int64
            and amplitudes.dtype == np.complex128
            and indices.ndim == amplitudes.ndim == 1
            and indices.size == amplitudes.size
            and indices.size > 0
            and 0 <= indices[0]
            and indices[-1] < self.layout.size
            and (indices[1:] > indices[:-1]).all()
        ):
            raise ValueError(
                f"a sparse buffer needs one or more strictly increasing int64 indices in "
                f"[0, {self.layout.size}) and a complex128 array of as many amplitudes, both 1-D"
            )

    @property
    def norm_squared(self) -> float:
        return _sparse_mass(self.amplitudes, _index_half(self, _summed, 0, 0))

    def amplitude(self, values: Mapping[str, int]) -> complex:
        """Amplitude of one fully specified basis state; the ``cone``'s, if
        the buffer carries one, when it has a part that may have lost its
        sign."""
        index = self.layout.basis_index(values)
        at = _index_half(self, _position, index)
        value = 0j if at < 0 else complex(self.amplitudes[at])
        if self.cone is not None and self.cone.unsure(np.array([value])).size:
            value = complex(self.cone.values(np.array([index]))[0])
        return value

    def densify(self) -> StateBuffer:
        """The state as a dense buffer: the support in place, +0.0 elsewhere."""
        amplitudes = np.zeros(self.layout.size, dtype=np.complex128)
        amplitudes[self.indices] = self.amplitudes
        return StateBuffer(self.layout, amplitudes)

    def freeze(self) -> "SparseBuffer":
        """The buffer itself, read-only; it must not be written afterwards."""
        self.indices.setflags(write=False)
        self.amplitudes.setflags(write=False)
        return self


class LightCone(NamedTuple):
    """A sparse run's way to the dense run's signed zeros: ``values(at)``,
    the dense run's amplitudes at the basis indices ``at``
    (``gates.light_cone``), and ``tables``, the tables the run prepared its
    product from, whose sign bits tell which exact-zero parts are sure.

    Both paths make every amplitude from the tables' entries by products of
    two complex numbers, sums and differences of two, products by
    (c, +0.0) with c > 0, moves and a division by a positive real; a sparse
    run adds +0.0 in place of an amplitude it does not list.  So when every
    imaginary part of the tables is +0.0 and at most one table has a real
    part whose sign bit is set, every imaginary part stays +0.0 on both
    paths: a product's is the sum of two zeros, one of them +0.0, and so
    is +0.0, as are (+0.0) + (+0.0) and (+0.0) - (+0.0).  When besides no
    real part has its sign bit set, no zero real part does either, since
    only a -0.0 operand or a negative factor makes a -0.0.  Only the
    other exact-zero parts can differ, and ``unsure`` marks them.
    """

    values: Callable[[np.ndarray], np.ndarray]
    tables: tuple[np.ndarray, ...]

    def unsure(self, values: np.ndarray) -> np.ndarray:
        """The positions in ``values``, a contiguous complex128 array of
        amplitudes that a sparse read found, of those with an exact-zero
        part whose sign the dense run may have set otherwise."""
        zero = values.view(np.float64).reshape(-1, 2) == 0.0
        if not zero.any():
            return np.empty(0, dtype=np.int64)
        # the tables' sign bits, read as integers
        signed = sum(bool(table.real.view(np.int64).min() < 0) for table in self.tables)
        if signed > 1 or any(table.imag.view(np.uint64).any() for table in self.tables):
            return np.flatnonzero(np.logical_or(zero[:, 0], zero[:, 1]))
        return np.flatnonzero(zero[:, 0]) if signed else np.empty(0, dtype=np.int64)


def _pow2_at_least(x: int) -> int:
    # register widths are >= 1, so dimensions never drop below 2
    return 1 << max(1, (x - 1).bit_length())


def _exact_log2(x: int) -> int:
    n = x.bit_length() - 1
    if x <= 0 or (1 << n) != x:
        raise ValueError(f"{x} is not a power of two")
    return n


@dataclass(frozen=True)
class EncodedMatrix:
    """A matrix zero-padded to power-of-two shape and scaled to unit
    Frobenius norm, ready for amplitude encoding.

    ``frobenius_scale`` is the factor divided out; multiplying it back in
    (after stripping padding) recovers the original matrix.
    """

    entries: np.ndarray
    original_rows: int
    original_cols: int
    frobenius_scale: float

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        _exact_log2(arr.shape[0])
        _exact_log2(arr.shape[1])
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("encoded dimensions start at 2 (one qubit per axis)")
        if not (0 < self.original_rows <= arr.shape[0]):
            raise ValueError("original_rows inconsistent with entries")
        if not (0 < self.original_cols <= arr.shape[1]):
            raise ValueError("original_cols inconsistent with entries")
        norm = float(np.linalg.norm(arr))
        # a NaN entry makes the norm NaN, which no tolerance check refuses
        if not math.isfinite(norm) and not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        if np.any(arr[self.original_rows:, :] != 0) or np.any(arr[:, self.original_cols:] != 0):
            raise ValueError("padding region must be exactly zero")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"entries must have unit Frobenius norm, got {norm!r}")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def row_qubits(self) -> int:
        return _exact_log2(self.rows)

    @property
    def col_qubits(self) -> int:
        return _exact_log2(self.cols)

    def restored(self) -> np.ndarray:
        """Original matrix: padding stripped, Frobenius scale multiplied back."""
        return self.entries[: self.original_rows, : self.original_cols] * self.frobenius_scale


def encode_matrix(matrix) -> EncodedMatrix:
    """Normalize and zero-pad an arbitrary nonzero matrix for encoding."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    largest = float(max(np.max(np.abs(arr.real)), np.max(np.abs(arr.imag))))
    if largest == 0.0:
        raise ValueError("all-zero matrix cannot be normalized for encoding")
    if NORM_SAFE_RANGE[0] <= largest <= NORM_SAFE_RANGE[1]:
        scale = norm = float(np.linalg.norm(arr))
    else:
        # prescale by the power of two nearest the largest component, as
        # LAPACK's dnrm2 does, so the squares summed inside the norm neither
        # overflow nor underflow; a power of two scales every entry exactly
        exponent = math.frexp(largest)[1]
        scaled = np.ldexp(np.ascontiguousarray(arr).view(np.float64), -exponent)
        scaled = scaled.view(np.complex128)
        norm = float(np.linalg.norm(scaled))
        try:
            scale = math.ldexp(norm, exponent)
        except OverflowError:
            raise ValueError("matrix Frobenius norm overflows float64") from None
        arr = scaled
    rows = _pow2_at_least(arr.shape[0])
    cols = _pow2_at_least(arr.shape[1])
    padded = np.zeros((rows, cols), dtype=np.complex128)
    # divide straight into the padded block, and hand over the frozen result
    # uncopied, so the matrix's padded size is allocated once
    np.divide(arr, norm, out=padded[: arr.shape[0], : arr.shape[1]])
    padded.setflags(write=False)
    return EncodedMatrix(
        entries=padded,
        original_rows=arr.shape[0],
        original_cols=arr.shape[1],
        frobenius_scale=scale,
    )


def row_index(name: str, value) -> int:
    """A row index as a plain int: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"row index {name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AncillaVector:
    """Auxiliary superposition loaded next to the encoded matrix.

    kind "row-add": (|k> + |l>)/sqrt(2) on one row-sized register.
    kind "row-swap": (|l>|k> + |k>|k> + |l>|l>)/sqrt(3) on two row-sized
    registers read most-significant-first.
    """

    kind: str
    k: int
    l: int
    num_row_qubits: int

    def __post_init__(self):
        if self.kind not in ("row-add", "row-swap"):
            raise ValueError(f"unknown ancilla kind {self.kind!r}")
        if self.num_row_qubits < 1:
            raise ValueError("num_row_qubits must be >= 1")
        n = 1 << self.num_row_qubits
        for name in ("k", "l"):
            value = row_index(name, getattr(self, name))
            if not 0 <= value < n:
                raise ValueError(f"row index {value} out of range for {n} rows")
            object.__setattr__(self, name, value)
        if self.k == self.l:
            raise ValueError("row indices k and l must be distinct")

    def listed(self) -> tuple[int, ...]:
        """The indices of the table's nonzero entries, which share one
        weight, in increasing order."""
        n = self.num_row_qubits
        if self.kind == "row-add":
            return tuple(sorted((self.k, self.l)))
        return tuple(sorted(((self.l << n) | self.k, (self.k << n) | self.k, (self.l << n) | self.l)))

    def amplitudes(self) -> np.ndarray:
        listed = self.listed()
        width = self.num_row_qubits * (2 if self.kind == "row-swap" else 1)
        vec = np.zeros(1 << width, dtype=np.complex128)
        vec[list(listed)] = 1.0 / math.sqrt(len(listed))
        return vec


def require_dense_width(layout: RegisterLayout) -> None:
    """Refuse a layout wider than MAX_QUBITS, before anything is allocated."""
    if layout.total_qubits > MAX_QUBITS:
        raise ValueError(
            f"{layout.total_qubits} qubits exceeds the dense-array cap of {MAX_QUBITS}"
        )


def prepare_product_state(
    layout: RegisterLayout,
    parts: Iterable[tuple[Sequence[str], np.ndarray]],
    sparse: bool | np.ndarray = False,
) -> StateVector | SparseBuffer:
    """Tensor together amplitude tables over consecutive register groups.

    Each part covers one run of consecutive registers (in layout order) and
    must carry a unit-norm table of matching dimension.  Registers not
    covered by any part start in |0>.  Layouts wider than MAX_QUBITS are
    rejected before ``parts`` is read or any amplitude is allocated.

    The product is written straight into the returned state's one array,
    block by block of the leading factor; besides it and the |0> tables, it
    allocates only the partial products of one block (at most
    PREPARE_BLOCK amplitudes).  Each
    amplitude is the left-to-right chain of complex multiplies of
    ``reduce(np.kron, factors)``, so its bytes are the same.

    With ``sparse`` the product is a ``SparseBuffer`` over the first part's
    whole table, zeros and their signs included, and the nonzero entries of
    every other table, however many (a run's circuit decides whether it is
    sparse, ``algorithms._plan_run``); each listed amplitude has the dense
    product's bytes.  ``sparse`` may also be those basis indices, as a
    run's plan works them out from the circuit alone
    (``prepared_support``), so that only the amplitudes are computed.
    """
    require_dense_width(layout)
    names = list(layout.names)
    spans: list[tuple[int, int, np.ndarray]] = []
    covered: set[int] = set()
    for part_names, table in parts:
        part_names = [str(n) for n in part_names]
        if not part_names:
            raise ValueError("empty register group in product part")
        for name in part_names:
            if name not in layout:
                raise ValueError(f"unknown register {name!r}")
        start = names.index(part_names[0])
        if names[start : start + len(part_names)] != part_names:
            raise ValueError(
                f"part registers {part_names} are not consecutive in layout order"
            )
        span = range(start, start + len(part_names))
        if covered & set(span):
            raise ValueError(f"register group {part_names} overlaps another part")
        covered.update(span)
        width = sum(layout.width(n) for n in part_names)
        arr = np.asarray(table, dtype=np.complex128).ravel()
        if arr.size != (1 << width):
            raise ValueError(
                f"part over {part_names} needs {1 << width} amplitudes, got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("part amplitudes must be finite")
        norm = math.sqrt(_mass(arr))
        if abs(norm - 1.0) > PART_NORM_TOL:
            raise ValueError(f"part over {part_names} has norm {norm!r}, expected 1")
        spans.append((start, len(part_names), arr))

    whole = spans[0][2] if spans else None
    factors = list(_in_layout_order(layout, spans, _ground_table))
    if sparse is not False:
        # a sparse product lists the first table whole (None) and the others'
        # nonzero entries
        listed = [None if f is whole else np.flatnonzero(f) for f in factors]
        if not isinstance(sparse, np.ndarray):
            sparse = _support_indices([(f.size, entries) for f, entries in zip(factors, listed)])
        return SparseBuffer(layout, sparse, _support_amplitudes(factors, listed))
    leading, rest = factors[0], factors[1:]
    tail = math.prod(factor.size for factor in rest)
    rows = max(1, PREPARE_BLOCK // tail)
    amplitudes = np.empty(layout.size, dtype=np.complex128)
    for row in range(0, leading.size, rows):
        partial = leading[row : row + rows]
        block = amplitudes[row * tail : (row + rows) * tail]
        if not rest:
            # a lone factor may be the caller's own table, so the state copies it
            block[:] = partial
        for position, factor in enumerate(rest, start=1):
            size = partial.size * factor.size
            out = block if position == len(rest) else np.empty(size, dtype=np.complex128)
            _multiply_outer(partial, factor, out)
            partial = out
    amplitudes.setflags(write=False)
    return StateVector(layout, amplitudes)


def _ground_table(width: int) -> np.ndarray:
    """The table of a register of ``width`` qubits in |0>."""
    table = np.zeros(1 << width, dtype=np.complex128)
    table[0] = 1.0
    return table


def _in_layout_order(layout: RegisterLayout, spans, ground):
    """A product's factors in layout order: each span's (start, count, item)
    item at its first register, and ``ground(width)`` for every register no
    span covers."""
    span_at = {start: (count, item) for start, count, item in spans}
    position = 0
    while position < len(layout.registers):
        count, item = span_at.get(position) or (1, ground(layout.registers[position][1]))
        yield item
        position += count


_GROUND_ENTRY = np.zeros(1, dtype=np.int64)


def prepared_support(layout: RegisterLayout, parts: Iterable[tuple[Sequence[str], Sequence[int] | None]]) -> np.ndarray:
    """The sorted basis indices that ``prepare_product_state`` lists for a
    sparse product, from each part's registers and the indices of its
    table's nonzero entries in increasing order (None for the first part,
    which is listed whole), without any table: the support a run's plan
    hands preparation."""
    names = list(layout.names)
    spans = []
    for part_names, entries in parts:
        width = sum(layout.width(name) for name in part_names)
        entries = None if entries is None else np.asarray(entries, dtype=np.int64)
        spans.append((names.index(part_names[0]), len(part_names), (1 << width, entries)))
    return _support_indices(list(_in_layout_order(layout, spans, lambda width: (1 << width, _GROUND_ENTRY))))


def prepared_at(
    layout: RegisterLayout, parts: Sequence[tuple[Sequence[str], np.ndarray]]
) -> Callable[[np.ndarray], np.ndarray]:
    """The amplitudes at any basis indices of the product state that
    ``prepare_product_state`` makes of ``parts``, which it has checked:
    each the dense product's left-to-right chain of multiplies of its
    factors' entries, in layout order, so its bytes are the same.  The
    factors and their shifts are laid out once, here, for every call of
    the returned function."""
    names = list(layout.names)
    spans = [(names.index(part_names[0]), len(part_names), np.asarray(table).ravel()) for part_names, table in parts]
    shift, factors = layout.total_qubits, []
    for factor in _in_layout_order(layout, spans, _ground_table):
        shift -= factor.size.bit_length() - 1
        factors.append((shift, factor))

    def evaluate(at: np.ndarray) -> np.ndarray:
        amplitudes = None
        for shift, factor in factors:
            entries = factor[(at >> shift) & (factor.size - 1)]
            # not in place: numpy rounds an in-place complex multiply of one
            # entry otherwise than the dense product's
            amplitudes = entries if amplitudes is None else np.multiply(amplitudes, entries)
        return amplitudes

    return evaluate


def _support_indices(factors: list[tuple[int, np.ndarray | None]]) -> np.ndarray:
    """The index half of a sparse product: the basis indices over each
    (size, listed entries) factor in layout order, None listing every
    entry, so they come out sorted.  The factors of one listed entry, as
    every |0> register, are a shift and an OR, the shifts of a run of them
    taken together."""
    size, entries = factors[0]
    indices = np.arange(size, dtype=np.int64) if entries is None else entries
    shift = bits = 0
    for size, entries in factors[1:]:
        width = size.bit_length() - 1
        if entries is not None and entries.size == 1:
            shift, bits = shift + width, (bits << width) | int(entries[0])
            continue
        if shift:
            indices, shift, bits = (indices << shift) | bits, 0, 0
        if entries is None:
            entries = np.arange(size, dtype=np.int64)
        indices = ((indices[:, None] << width) | entries).ravel()
    return (indices << shift) | bits if shift else indices


def _support_amplitudes(factors: list[np.ndarray], listed: list[np.ndarray | None]) -> np.ndarray:
    """The amplitude half of a sparse product over each factor's listed
    entries (None: all of them), in the order of its indices: each
    amplitude is the dense product's chain of multiplies."""
    first, entries = factors[0], listed[0]
    amplitudes = first.copy() if entries is None else first[entries]
    for factor, entries in zip(factors[1:], listed[1:]):
        if entries is not None and entries.size == 1:
            # one listed entry, as of every |0> register: a scalar multiply
            amplitudes = np.multiply(amplitudes, factor[entries[0]])
            continue
        partial = amplitudes
        listed_values = factor if entries is None else factor[entries]
        amplitudes = np.empty(partial.size * listed_values.size, dtype=np.complex128)
        _multiply_outer(partial, listed_values, amplitudes)
    return amplitudes


def _multiply_outer(partial: np.ndarray, factor: np.ndarray, out: np.ndarray) -> None:
    """``out[i * factor.size + j] = partial[i] * factor[j]``, the operands in
    ``np.kron``'s order (numpy's complex multiply is not commutative bit for
    bit).  numpy's inner loop runs along the longer of the two axes: a
    2-wide inner loop over a ground qubit would cost a call per pair."""
    grid = out.reshape(partial.size, factor.size)
    if factor.size >= partial.size:
        np.multiply(partial[:, None], factor, out=grid)
    else:
        for column, value in enumerate(factor):
            np.multiply(partial, value, out=grid[:, column])


def decode_matrix(
    state: StateVector | SparseBuffer,
    row_register: str,
    col_register: str,
    fixed: Mapping[str, int],
    selected_mass: float | None = None,
) -> np.ndarray:
    """Read a matrix back out of a state, pinning every other register.

    ``selected_mass`` is the squared mass of the subspace the state was
    post-selected on (``PostSelection.probability``), and the pinned block
    is divided by its square root, bitwise as the renormalized state holds
    it.  Without it the block is copied out as it is, with no
    renormalization.  Either way the pinned block is the only complex array
    allocated the size of the returned matrix; a sparse state's block holds
    its pinned entries and +0.0 elsewhere.  The entries a sparse state
    takes from its cone (``LightCone.unsure``) take besides an int64 array
    of their positions, and the cone's arrays for PREPARE_BLOCK of them at
    a time.

    Rejects the read when more than DECODE_MASS_TOL of the squared
    amplitude mass lies outside the pinned subspace: outside it but inside
    the selected subspace, or anywhere in the state without a selection.
    """
    layout = state.layout
    if row_register == col_register:
        raise ValueError("row and column registers must differ")
    wanted = {row_register, col_register} | set(fixed)
    if row_register in fixed or col_register in fixed:
        raise ValueError("row/column registers cannot also be pinned")
    if wanted != set(layout.names):
        extra = sorted(wanted - set(layout.names))
        missing = sorted(set(layout.names) - wanted)
        raise ValueError(
            f"decode must mention every register exactly once "
            f"(unknown: {extra}, unpinned: {missing})"
        )
    if selected_mass is not None and not selected_mass > 0.0:
        raise ValueError(f"selected_mass must be positive, got {selected_mass!r}")
    n = layout.width(row_register)
    m = layout.width(col_register)
    if isinstance(state, SparseBuffer):
        # the pinned entries, renormalized in their own copy, then placed;
        # a block they fill whole needs no zeros first
        mask, bits = layout.pattern(fixed)
        take, put = _index_half(state, _decoded, row_register, col_register, mask, bits)
        pinned = state.amplitudes[take]
        if selected_mass is not None:
            pinned = _renormalize(pinned, selected_mass)
        out = (np.empty if isinstance(put, slice) else np.zeros)((1 << n, 1 << m), dtype=np.complex128)
        flat = out.reshape(-1)
        flat[put] = pinned
        if state.cone is not None:
            # every entry with a zero part that may have lost its sign, from
            # the cone, PREPARE_BLOCK entries at a time
            zero = state.cone.unsure(flat)
            row_shift, col_shift = layout.field_shift(row_register), layout.field_shift(col_register)
            for start in range(0, zero.size, PREPARE_BLOCK):
                block = zero[start : start + PREPARE_BLOCK]
                exact = state.cone.values(((block >> m) << row_shift) | ((block & ((1 << m) - 1)) << col_shift) | bits)
                flat[block] = exact if selected_mass is None else _renormalize(exact, selected_mass)
    else:
        pinned = qubit_view(state.amplitudes, layout)[qubit_index(layout, fixed)]
        if layout.offset(col_register) < layout.offset(row_register):
            # the pinned view keeps layout order; move the column axes last
            pinned = np.moveaxis(pinned, range(m), range(n, n + m))
        out = np.empty((1 << n, 1 << m), dtype=np.complex128)
        if selected_mass is None:
            np.copyto(out.reshape(pinned.shape), pinned)
        else:
            _renormalize(pinned, selected_mass, out.reshape(pinned.shape))
    total = _mass(state.amplitudes) if selected_mass is None else 1.0
    outside = total - _mass(out)
    if outside > DECODE_MASS_TOL:
        raise ValueError(
            f"{outside!r} of the amplitude mass lies outside the pinned "
            "subspace; refusing to decode"
        )
    return out


def _renormalize(kept: np.ndarray, mass: float, out: np.ndarray | None = None) -> np.ndarray:
    # the one division, so a decoded block and the renormalized state agree bitwise
    return np.divide(kept, math.sqrt(mass), out=out)


@dataclass
class PostSelection:
    """Outcome of projecting ``state`` onto a register pattern.

    ``probability`` is the squared mass of the selected subspace.
    ``renormalized_state`` is a read-only full-size state holding that
    subspace divided by sqrt(probability) and zeros elsewhere; it is built
    on first access, since a run decodes its output from ``state`` directly.
    It is None when the projected mass is zero; that is a legitimate
    zero-probability outcome, not an error.
    """

    pattern: dict[str, int]
    probability: float
    state: StateVector | SparseBuffer = field(repr=False)

    @cached_property
    def renormalized_state(self) -> StateVector | None:
        if self.probability <= ZERO_PROBABILITY_FLOOR:
            return None
        layout = self.state.layout
        amplitudes = np.zeros(layout.size, dtype=np.complex128)
        if isinstance(self.state, SparseBuffer):
            take = _index_half(self.state, _selection, *layout.pattern(self.pattern))
            amplitudes[self.state.indices[take]] = _renormalize(self.state.amplitudes[take], self.probability)
        else:
            selected = qubit_index(layout, self.pattern)
            kept = qubit_view(self.state.amplitudes, layout)[selected]
            _renormalize(kept, self.probability, qubit_view(amplitudes, layout)[selected])
        amplitudes.setflags(write=False)
        return StateVector(layout, amplitudes)


def post_select(state: StateVector | SparseBuffer, pattern: Mapping[str, int]) -> PostSelection:
    """Project ``state`` onto ``pattern``; nothing the size of the state is
    allocated."""
    if isinstance(state, SparseBuffer):
        summed = _index_half(state, _summed, *state.layout.pattern(pattern))
        return PostSelection(dict(pattern), _sparse_mass(state.amplitudes, summed), state)
    kept = qubit_view(state.amplitudes, state.layout)[qubit_index(state.layout, pattern)]
    return PostSelection(dict(pattern), squared_mass(kept), state)


def pinned_share(state: StateVector | SparseBuffer, fixed: Mapping[str, int]) -> float:
    """Share of the squared mass inside the subspace ``fixed`` pins; an exact
    1.0 when no amplitude outside it is nonzero, as after a pure permutation."""
    if isinstance(state, SparseBuffer):
        mask, bits = state.layout.pattern(fixed)
        take = _index_half(state, _selection, mask, bits)
        # pinning every listed entry leaves nothing nonzero outside
        if _count(state, take) == state.indices.size or np.count_nonzero(
            state.amplitudes[take]
        ) == np.count_nonzero(state.amplitudes):
            return 1.0
        return _sparse_mass(state.amplitudes, _index_half(state, _summed, mask, bits)) / state.norm_squared
    inside = qubit_view(state.amplitudes, state.layout)[qubit_index(state.layout, fixed)]
    if np.count_nonzero(inside) == np.count_nonzero(state.amplitudes):
        return 1.0
    return squared_mass(inside) / state.norm_squared


def squared_mass(amplitudes: np.ndarray) -> float:
    """Sum of squared magnitudes of a state or a pinned view of one, as every
    report gives it: bitwise ``np.sum(np.abs(amplitudes) ** 2)``.

    numpy sums 2^k values pairwise, halving them down to blocks of at most
    128.  A state or a selected subspace holds 2^k amplitudes, so each block
    of MASS_BLOCK (the whole array if smaller) is summed through one float
    buffer of that size and the block sums are added in the same halving
    tree.
    """
    qubits = amplitudes.size.bit_length() - 1
    view = amplitudes.reshape((2,) * qubits)
    lead = max(0, qubits - (MASS_BLOCK.bit_length() - 1))
    weights = np.empty(min(amplitudes.size, MASS_BLOCK))
    held = weights.reshape(view.shape[lead:])
    sums = []
    for index in itertools.product((0, 1), repeat=lead):
        np.abs(view[index], out=held)
        sums.append(float(np.sum(np.square(weights, out=weights))))
    while len(sums) > 1:
        sums = [left + right for left, right in zip(sums[::2], sums[1::2])]
    return sums[0]


class _Sum(NamedTuple):
    """The index half of ``_sparse_mass`` over one subspace: ``take``, its
    listed entries in the order the sum reads them; ``lanes``, the first
    entry of each lane, or None when the subspace is laid out whole;
    ``deeper``, for each k from 1, the lanes that hold more than k entries
    and their k-th entries; ``levels``, for each tree level that is summed
    from the listed nodes, the nodes that take their right neighbour's sum
    (``left``) and the nodes that stay (``stay``); and
    ``laid``, the length of the zero array the weights (or the last level's
    node sums) are laid out in, at the positions ``at``, 0 when a single
    node is left."""

    take: np.ndarray | slice
    lanes: np.ndarray | None
    deeper: tuple[tuple[np.ndarray, np.ndarray], ...]
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    laid: int
    at: np.ndarray | None


def _summed(state: SparseBuffer, mask: int, bits: int) -> _Sum:
    """How ``_sparse_mass`` sums the subspace that fixes the ``mask`` bits to
    ``bits`` from a support's indices alone.

    A subspace of up to LAID_OUT amplitudes is laid out whole, zeros
    included, and summed by one np.sum, as the dense sum sums it.  A larger
    one is summed from the listed entries alone, in the dense sum's order:
    each entry goes to its lane, the accumulator ``p & (LANES - 1)`` of its
    PAIRWISE_BLOCK, and each lane is folded left in position order.  The
    lanes are then added in a perfect binary tree over their keys, block
    and lane bits together, built over the listed nodes only: a node
    without a sibling stands for a sum with an exact 0.0, which leaves a
    non-negative weight as it is.  Levels where no two nodes meet are
    skipped together, and once the nodes fill half of a level the levels
    above it are laid out whole, so the cost follows the listed entries,
    not the subspace.
    """
    layout = state.layout
    take = _index_half(state, _selection, mask, bits)
    subspace = layout.size >> bin(mask).count("1")
    positions = _compress(state.indices[take], (layout.size - 1) & ~mask)
    if subspace <= LAID_OUT or not positions.size:
        return _Sum(take, None, (), (), subspace, positions)
    block = PAIRWISE_BLOCK.bit_length() - 1
    lanes = ((positions >> block) * LANES) | (positions & (LANES - 1))
    # the support is sorted, so a stable sort keeps each lane in position order
    order = np.argsort(lanes, kind="stable")
    lanes = lanes[order]
    first = np.flatnonzero(_run_starts(lanes))
    nodes = lanes[first]
    held = np.diff(first, append=lanes.size)
    deeper = []
    for k in range(1, int(held.max())):
        # the k-th entry of every lane that holds more than k
        lane = np.flatnonzero(held > k)
        deeper.append((lane, first[lane] + k))
    levels = []
    top = max(1, subspace // PAIRWISE_BLOCK) * LANES  # the nodes of the current level
    while nodes.size > 1 and top > 2 * nodes.size:
        # up to the first level where two neighbouring nodes meet; no more
        # than two can, one from each half of their parent
        shift = int(np.min(nodes[1:] ^ nodes[:-1])).bit_length()
        nodes, top = nodes >> shift, top >> shift
        starts = _run_starts(nodes)
        left = np.flatnonzero(~starts[1:])
        stay = np.flatnonzero(starts)
        levels.append((left, stay))
        nodes = nodes[stay]
    take = order if isinstance(take, slice) else take[order]
    # the nodes fill at least half of the ``top`` nodes of their level, so
    # the rest of the tree is laid out whole, zeros included
    laid, at = (0, None) if nodes.size == 1 else (top, nodes)
    return _Sum(take, first, tuple(deeper), tuple(levels), laid, at)


def _sparse_mass(amplitudes: np.ndarray, summed: _Sum) -> float:
    """``squared_mass`` of a subspace of a support, bitwise: the amplitude
    half of the sum that ``_summed`` lays out."""
    weights = np.abs(amplitudes[summed.take])
    if not weights.size:
        return 0.0
    np.square(weights, out=weights)
    if summed.lanes is None:
        laid = np.zeros(summed.laid)
        laid[summed.at] = weights
        return float(np.sum(laid))
    sums = weights[summed.lanes]
    for lane, entries in summed.deeper:
        sums[lane] += weights[entries]
    for left, stay in summed.levels:
        sums[left] += sums[left + 1]
        sums = sums[stay]
    if not summed.laid:
        return float(sums[0])
    laid = np.zeros(summed.laid)
    laid[summed.at] = sums
    while laid.size > 1:
        laid = laid[0::2] + laid[1::2]
    return float(laid[0])


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Which entries of a sorted array differ from the one before them, the
    first entry always."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _index_half(state: SparseBuffer, build, *args):
    """``build(state, *args)``, the index half of a read of a support, which
    reads only its layout, its indices and other halves, under the key
    ``(build, *args)`` in the buffer's ``readouts``: the half found there,
    or else one worked out on the spot, which is stored there when
    ``readouts`` is a writable dict."""
    key = (build, *args)
    half = state.readouts.get(key)
    if half is None:
        half = build(state, *args)
        if isinstance(state.readouts, dict):
            state.readouts[key] = half
    return half


class Selections(dict):
    """A writable ``readouts`` that stores only ``_selection`` halves, the
    ones that several reads of one final support share: a circuit's first
    run's, whose plan keeps no half."""

    def __setitem__(self, key, half):
        if key[0] is _selection:
            super().__setitem__(key, half)


def _selection(state: SparseBuffer, mask: int, bits: int) -> np.ndarray | slice:
    """The positions of the listed entries whose ``mask`` bits are ``bits``,
    in increasing order; slice(None) when that is every one."""
    at = np.flatnonzero((state.indices & mask) == bits)
    return slice(None) if at.size == state.indices.size else at


def _count(state: SparseBuffer, take: np.ndarray | slice) -> int:
    """How many listed entries a ``_selection`` holds."""
    return state.indices.size if isinstance(take, slice) else take.size


def _decoded(state: SparseBuffer, row: str, col: str, mask: int, bits: int):
    """The listed entries that a decode pinning the ``mask`` bits to ``bits``
    reads (their ``_selection``), and where each goes in the flat (row,
    column) block; slice(None) when they fill it in order."""
    layout = state.layout
    take = _index_half(state, _selection, mask, bits)
    at = state.indices[take]
    put = (_field_values(layout, row, at) << layout.width(col)) | _field_values(layout, col, at)
    if put.size == 1 << (layout.width(row) + layout.width(col)) and (put[1:] > put[:-1]).all():
        put = slice(None)
    return take, put


def _position(state: SparseBuffer, index: int) -> int:
    """Where a support lists the basis index ``index``, or -1."""
    indices = state.indices
    at = int(np.searchsorted(indices, index))
    return at if at < indices.size and indices[at] == index else -1


def _compress(indices: np.ndarray, keep: int) -> np.ndarray:
    """The ``keep`` bits of each index packed together in order: the index's
    position in the subspace that fixes every other bit."""
    out = np.zeros_like(indices)
    packed = 0
    while keep:
        low = (keep & -keep).bit_length() - 1
        width = ((keep >> low) ^ ((keep >> low) + 1)).bit_length() - 1
        out |= ((indices >> low) & ((1 << width) - 1)) << packed
        packed += width
        keep &= ~(((1 << width) - 1) << low)
    return out


def _field_values(layout: RegisterLayout, name: str, indices: np.ndarray) -> np.ndarray:
    """Each index's value of one register."""
    return (indices >> layout.field_shift(name)) & ((1 << layout.width(name)) - 1)


def occupied_states(
    state: StateVector | StateBuffer | SparseBuffer, cap: int | None = None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each register's values and the amplitude of the occupied basis states,
    in index order; only the first ``cap`` of them if given.  Of a sparse
    state, those are its support's nonzero entries."""
    at = _first_occupied(state.amplitudes, cap)
    indices = state.indices[at] if isinstance(state, SparseBuffer) else at
    values = np.unravel_index(indices, state.layout.shape)
    return dict(zip(state.layout.names, values)), state.amplitudes[at]


def supported_on(
    state: StateVector | StateBuffer | SparseBuffer, values: Mapping[str, np.ndarray | int]
) -> bool:
    """Whether every nonzero amplitude of ``state`` lies on a basis state that
    ``values`` lists: each register's values as arrays (or ints) that
    broadcast together and name each basis state once.  Counts nonzero
    float parts on those states and overall, so it allocates only the
    listed amplitudes (of a sparse state, those its support holds)."""
    layout = state.layout
    index = sum(values[name] << layout.field_shift(name) for name in layout.names)
    if isinstance(state, SparseBuffer):
        index = np.ravel(index)
        at = np.minimum(np.searchsorted(state.indices, index), state.indices.size - 1)
        listed = state.amplitudes[at[state.indices[at] == index]]
    else:
        listed = state.amplitudes[index]
    return np.count_nonzero(listed.view(np.float64)) == np.count_nonzero(state.amplitudes.view(np.float64))


def _first_occupied(amplitudes: np.ndarray, cap: int | None) -> np.ndarray:
    """Indices of the first ``cap`` nonzero amplitudes (all without a cap),
    in index order; the scan goes chunk by chunk and stops once it has them."""
    found = []
    wanted = amplitudes.size if cap is None else cap
    for start in range(0, amplitudes.size, OCCUPIED_SCAN_CHUNK):
        # a comparison first: numpy finds nonzero complex values more slowly
        # than true booleans; -0.0 and NaN count as they do for it
        hits = np.flatnonzero(amplitudes[start : start + OCCUPIED_SCAN_CHUNK] != 0)[:wanted]
        found.append(hits + start)
        wanted -= hits.size
        if wanted == 0:
            break
    return np.concatenate(found)


def _mass(amplitudes: np.ndarray) -> float:
    """Sum of squared magnitudes of a contiguous array: one dot product of
    its real and imaginary parts, so no temporary.  For tolerance checks
    only, since its rounding is not ``norm_squared``'s."""
    parts = amplitudes.reshape(-1).view(np.float64)
    return float(np.dot(parts, parts))
