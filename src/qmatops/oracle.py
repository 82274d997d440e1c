"""Classical reference results, computed the slow and obvious way.

Ground truth for the verification suite.  Everything here uses plain index
loops and divmod arithmetic so that no logic is shared with the simulator:
a bug cannot hide on both sides of a comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import ControlledOp, FlipQubit, HadamardLayer, Netlist, SwapRegisters
from .state import RegisterLayout

DENSE_QUBIT_CAP = 12

__all__ = [
    "OracleResult",
    "oracle_row_add",
    "oracle_row_swap",
    "oracle_trace",
    "oracle_transpose",
    "controlled_op_image",
    "dense_unitary_of",
    "dense_mcx",
    "mcx_reference_action",
]


@dataclass
class OracleResult:
    matrix: list | None = None
    scalar: complex | None = None
    normalization_G: float | None = None
    predicted_probability: float = 0.0


def _to_rows(matrix) -> list[list[complex]]:
    rows = [[complex(value) for value in row] for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be 2-D and nonempty")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
    return rows


def _check_pair(k: int, l: int, num_rows: int) -> None:
    for value in (k, l):
        if not 0 <= value < num_rows:
            raise ValueError(f"row index {value} out of range for {num_rows} rows")
    if k == l:
        raise ValueError("row indices k and l must be distinct")


def oracle_row_add(matrix, k: int, l: int) -> OracleResult:
    """Row l += row k, with the normalization constant and success law."""
    a = _to_rows(matrix)
    _check_pair(k, l, len(a))
    out = [list(row) for row in a]
    for j in range(len(a[0])):
        out[l][j] = a[l][j] + a[k][j]
    g_squared = 0.0
    for i in range(len(a)):
        if i == l:
            continue
        for j in range(len(a[0])):
            g_squared += abs(a[i][j]) ** 2
    for j in range(len(a[0])):
        g_squared += abs(a[k][j] + a[l][j]) ** 2
    return OracleResult(
        matrix=out,
        normalization_G=math.sqrt(g_squared),
        predicted_probability=g_squared / 8.0,
    )


def oracle_row_swap(matrix, k: int, l: int) -> OracleResult:
    a = _to_rows(matrix)
    _check_pair(k, l, len(a))
    out = [list(row) for row in a]
    out[k], out[l] = list(a[l]), list(a[k])
    return OracleResult(matrix=out, predicted_probability=1.0 / 24.0)


def oracle_trace(matrix) -> OracleResult:
    a = _to_rows(matrix)
    if len(a) != len(a[0]):
        raise ValueError("trace needs a square matrix")
    n = len(a).bit_length() - 1
    if (1 << n) != len(a):
        raise ValueError("dimension must be a power of two")
    total = 0j
    for i in range(len(a)):
        total += a[i][i]
    return OracleResult(
        scalar=total,
        predicted_probability=abs(total) ** 2 / float(2 ** (3 * n)),
    )


def oracle_transpose(matrix) -> OracleResult:
    a = _to_rows(matrix)
    out = [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
    return OracleResult(matrix=out, predicted_probability=1.0)


# --- dense gate matrices -----------------------------------------------------

def _naive_fields(layout: RegisterLayout) -> dict[str, tuple[int, int]]:
    # recompute offsets from the declaration alone
    fields = {}
    used = 0
    for name, width in layout.registers:
        fields[name] = (used, width)
        used += width
    return fields


def _field(fields: dict[str, tuple[int, int]], name: str) -> tuple[int, int]:
    try:
        return fields[name]
    except KeyError:
        raise ValueError(f"unknown register {name!r}") from None


def _qubit_position(fields: dict[str, tuple[int, int]], name: str, qubit: int) -> int:
    offset, width = _field(fields, name)
    if not 0 <= qubit < width:
        raise ValueError(f"qubit {qubit} out of range for register {name!r}")
    return offset + qubit


def _field_value(index: int, offset: int, width: int, total: int) -> int:
    below = total - offset - width
    return (index // (2 ** below)) % (2 ** width)


def _replace_field(index: int, offset: int, width: int, total: int, value: int) -> int:
    below = total - offset - width
    old = _field_value(index, offset, width, total)
    return index - old * (2 ** below) + value * (2 ** below)


def controlled_op_image(op: ControlledOp, layout: RegisterLayout):
    """The map source -> image of a controlled op on basis indices, once the
    op is checked: its registers exist, its condition values fit, a swap's
    registers are distinct and of equal width, and no qubit is conditioned
    twice or both conditioned and moved."""
    total = sum(width for _, width in layout.registers)
    fields = _naive_fields(layout)
    projector, action = op.projector, op.action
    conditions = [(*_field(fields, name), value) for name, value in projector.register_values]
    conditions += [(_qubit_position(fields, n, q), 1, bit) for n, q, bit in projector.qubit_bits]
    if isinstance(action, FlipQubit):
        moved = [(_qubit_position(fields, action.register, action.qubit), 1)]
    elif isinstance(action, SwapRegisters):
        moved = [_field(fields, action.reg_a), _field(fields, action.reg_b)]
        if moved[0][1] != moved[1][1] or moved[0][0] == moved[1][0]:
            raise ValueError("a swap needs two distinct registers of equal width")
    else:
        raise TypeError(f"unknown action {action!r}")
    for offset, width, value in conditions:
        if not 0 <= value < 2 ** width:
            raise ValueError(f"condition value {value} out of range for {width} qubits")
    qubits = [q for offset, width, *_ in conditions + moved for q in range(offset, offset + width)]
    if len(set(qubits)) != len(qubits):
        raise ValueError("a qubit is conditioned twice, or both conditioned and moved")

    def image(source: int) -> int:
        if any(_field_value(source, o, w, total) != v for o, w, v in conditions):
            return source
        values = [_field_value(source, offset, width, total) for offset, width in moved]
        # a swap trades its two fields' values, a flip inverts its one bit
        values = values[::-1] if len(values) == 2 else [1 - values[0]]
        for (offset, width), value in zip(moved, values):
            source = _replace_field(source, offset, width, total, value)
        return source

    return image


def _permutation_matrix(image, width: int) -> np.ndarray:
    unitary = np.zeros((2 ** width, 2 ** width), dtype=np.complex128)
    for source in range(2 ** width):
        unitary[image(source), source] = 1.0
    return unitary


def dense_unitary_of(op, layout: RegisterLayout | None = None) -> np.ndarray:
    """Brute-force dense matrix of a gate or of a permutation netlist.

    Capped at 12 qubits, a netlist's work qubits included; intended for
    cross-checking the simulator and the netlists, so it never reuses the
    simulator's index code.
    """
    if isinstance(op, Netlist):
        width = op.num_qubits + op.num_work_qubits
        if width > DENSE_QUBIT_CAP:
            raise ValueError(f"netlist too wide for dense construction: {width} qubits")
        if any(gate.kind not in ("x", "cx", "ccx", "swap") for gate in op.gates):
            raise ValueError("only X, CNOT, Toffoli and SWAP netlists are permutations")

        def image(index: int) -> int:
            for kind, qubits in op.gates:
                # a SWAP is three CNOTs
                steps = (qubits, qubits[::-1], qubits) if kind == "swap" else (qubits,)
                for *controls, target in steps:
                    if all((index // (2 ** c)) % 2 == 1 for c in controls):
                        index += (1 - 2 * ((index // (2 ** target)) % 2)) * 2 ** target
            return index

        return _permutation_matrix(image, width)

    if layout is None:
        raise ValueError("layout required for register-level gates")
    total = sum(width for _, width in layout.registers)
    if total > DENSE_QUBIT_CAP:
        raise ValueError(f"layout too wide for dense construction: {total} qubits")

    if isinstance(op, HadamardLayer):
        fields = _naive_fields(layout)
        targeted = set()
        for target in op.targets:
            if isinstance(target, str):
                offset, width = _field(fields, target)
                targeted.update(range(offset, offset + width))
            else:
                targeted.add(_qubit_position(fields, *target))
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
        eye = np.eye(2, dtype=np.complex128)
        unitary = np.eye(1, dtype=np.complex128)
        for position in range(total):
            unitary = np.kron(unitary, h if position in targeted else eye)
        return unitary

    if isinstance(op, ControlledOp):
        return _permutation_matrix(controlled_op_image(op, layout), total)

    raise TypeError(f"unknown op {op!r}")


def mcx_reference_action(data_bits: int, num_controls: int, control_polarity) -> int:
    """Direct definition of a multi-controlled X on controls 0..c-1, target c."""
    polarity = tuple(control_polarity)
    matched = all(
        (data_bits // (2 ** i)) % 2 == polarity[i] for i in range(num_controls)
    )
    if matched:
        target = 2 ** num_controls
        if (data_bits // target) % 2 == 1:
            return data_bits - target
        return data_bits + target
    return data_bits


def dense_mcx(num_controls: int, control_polarity=None) -> np.ndarray:
    """Dense multi-controlled X on c+1 qubits (controls 0..c-1, target c)."""
    if control_polarity is None:
        control_polarity = (1,) * num_controls
    return _permutation_matrix(
        lambda source: mcx_reference_action(source, num_controls, control_polarity),
        num_controls + 1,
    )
