"""Matrix file format: JSON with explicit dimensions and row-major data.

{"rows": 2, "cols": 2, "data": [1.0, [0.0, 0.5], 0.25, -1.0]}

Each entry is a real number or a [real, imag] pair.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["load_matrix", "save_matrix", "matrix_to_payload", "payload_to_matrix"]


def payload_to_matrix(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise ValueError("matrix document must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise ValueError(f"matrix document missing {key!r}")
    rows, cols = payload["rows"], payload["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ValueError("rows and cols must be positive integers")
    data = payload["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"data must list {rows * cols} entries in row-major order")
    values = []
    for entry in data:
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            parts = [entry]
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
        ):
            parts = entry
        else:
            raise ValueError(f"bad matrix entry {entry!r}; use a number or [re, im]")
        try:
            values.append(complex(*parts))
        except OverflowError:
            raise ValueError(f"bad matrix entry {entry!r}; it lies beyond float range") from None
    return np.array(values, dtype=np.complex128).reshape(rows, cols)


def matrix_to_payload(matrix) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    data = []
    for value in arr.ravel():
        if value.imag == 0.0:
            data.append(float(value.real))
        else:
            data.append([float(value.real), float(value.imag)])
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "data": data}


def load_matrix(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"{path}: cannot read ({err})") from err
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    try:
        return payload_to_matrix(payload)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def save_matrix(path, matrix) -> None:
    payload = matrix_to_payload(matrix)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
