"""Matrix file format and the JSON writer of every file the package writes.

{"rows": 2, "cols": 2, "data": [1.0, [0.0, 0.5], 0.25, -1.0]}

Each entry is a real number or a [real, imag] pair.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = ["load_matrix", "save_matrix", "matrix_to_payload", "payload_to_matrix", "json_text"]

INDENT = "  "


def payload_to_matrix(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise ValueError("matrix document must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise ValueError(f"matrix document missing {key!r}")
    rows, cols = payload["rows"], payload["cols"]
    # bool is an int subclass, but true is not a dimension
    if not all(type(n) is not bool and isinstance(n, int) and n > 0 for n in (rows, cols)):
        raise ValueError("rows and cols must be positive integers")
    data = payload["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"data must list {rows * cols} entries in row-major order")
    try:
        values = _entries(data)
    except ValueError:
        for entry in data:
            _check_entry(entry)
        raise
    return values.reshape(rows, cols)


def _entries(data: list) -> np.ndarray:
    """The entries as complex128, converted in bulk and bitwise as
    ``complex(entry)`` or ``complex(re, im)``; a ValueError that names no
    entry when any of them is not valid."""
    kinds = set(map(type, data))
    pair_kinds = {kind for kind in kinds if issubclass(kind, list)}
    if not _all_numbers(kinds - pair_kinds):
        raise ValueError("bad matrix entry")
    values = np.zeros(len(data), dtype=np.complex128)
    parts = values.view(np.float64).reshape(-1, 2)
    if not pair_kinds:
        parts[:, 0] = _floats(data, len(data))
        return values
    is_pair = list(map(isinstance, data, itertools.repeat(list)))
    pairs = list(itertools.compress(data, is_pair))
    pair_parts = set(map(type, itertools.chain.from_iterable(pairs)))
    if set(map(len, pairs)) != {2} or not _all_numbers(pair_parts):
        raise ValueError("bad matrix entry")
    chosen = np.array(is_pair)
    parts[chosen] = _floats(itertools.chain.from_iterable(pairs), 2 * len(pairs)).reshape(-1, 2)
    parts[~chosen, 0] = _floats(itertools.compress(data, map(operator.not_, is_pair)), len(data) - len(pairs))
    return values


def _floats(numbers, count: int) -> np.ndarray:
    try:
        return np.fromiter(numbers, dtype=np.float64, count=count)
    except OverflowError:
        raise ValueError("matrix entry beyond float range") from None


def _all_numbers(kinds) -> bool:
    return all(issubclass(kind, (int, float)) and not issubclass(kind, bool) for kind in kinds)


def _check_entry(entry) -> None:
    """Raise the ValueError that names ``entry`` if it is not a number or a
    [re, im] pair of numbers within float range."""
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        parts = [entry]
    elif isinstance(entry, list) and len(entry) == 2 and _all_numbers(map(type, entry)):
        parts = entry
    else:
        raise ValueError(f"bad matrix entry {entry!r}; use a number or [re, im]")
    try:
        complex(*parts)
    except OverflowError:
        raise ValueError(f"bad matrix entry {entry!r}; it lies beyond float range") from None


def matrix_to_payload(matrix) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    flat = arr.ravel()
    data = [re if im == 0.0 else [re, im] for re, im in zip(flat.real.tolist(), flat.imag.tolist())]
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
    Path(path).write_text(json_text(matrix_to_payload(matrix)) + "\n")


# --- JSON writer -----------------------------------------------------------------

def json_text(doc) -> str:
    """``doc`` as ``json.dumps`` writes it with ``indent=2, sort_keys=True``,
    byte for byte, with the same TypeError for what JSON cannot hold.

    The standard encoder yields one token at a time whenever it indents.
    This writer formats each list a column at a time instead: a list of one
    scalar type is one ``map``; a list of dicts with one set of string keys
    (the amplitude dumps), or of lists of one length (complex matrix
    entries), fills one precomputed ``%`` template per item from the
    formatted columns of its keys or positions; a list of several types is
    formatted type by type.
    """
    return _value(doc, "\n")


def _value(value, newline: str) -> str:
    """One value whose closing bracket, if any, starts the line ``newline``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + INDENT
        return "[" + inner + ("," + inner).join(_column(value, inner)) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + INDENT
        fields = (_key(key) + ": " + _value(item, inner) for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    return _scalar(value)


def _column(values, newline: str) -> list[str]:
    """The text of each of ``values``, all on the level of ``newline``."""
    types = list(map(type, values))
    kinds = set(types)
    if len(kinds) > 1:
        # each type's values are formatted together, then put back in order
        texts = {}
        for kind in kinds:
            chosen = itertools.compress(values, map(operator.is_, types, itertools.repeat(kind)))
            texts[kind] = iter(_column(list(chosen), newline))
        return list(map(next, map(texts.__getitem__, types)))
    kind = kinds.pop()
    if kind is float:
        # a finite sum means no NaN or infinity; an overflowing one only
        # sends the column through the checked path
        if math.isfinite(sum(values)):
            return list(map(float.__repr__, values))
        return list(map(_float, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    # containers of one shape, as many as their items or more, are filled
    # into one template column by column
    if kind in (dict, list, tuple) and 0 < len(values[0]) <= len(values):
        width = len(values[0])
        if kind is dict and _one_key_set(values):
            keys = sorted(values[0])
            labels = [encode_basestring_ascii(key).replace("%", "%%") + ": " for key in keys]
            return _filled(values, keys, labels, "{}", newline)
        if kind is not dict and set(map(len, values)) == {width}:
            return _filled(values, range(width), [""] * width, "[]", newline)
    return [_value(value, newline) for value in values]


def _one_key_set(records) -> bool:
    keys = records[0].keys()
    return all(type(key) is str for key in keys) and all(map(keys.__eq__, map(dict.keys, records)))


def _filled(containers, keys, labels: list[str], brackets: str, newline: str) -> list[str]:
    """Containers of one shape: one template, filled per container from the
    formatted column of each key or position."""
    inner = newline + INDENT
    fields = ("," + inner).join(label + "%s" for label in labels)
    template = brackets[0] + inner + fields + newline + brackets[1]
    columns = [_column(list(map(operator.itemgetter(key), containers)), inner) for key in keys]
    return list(map(template.__mod__, zip(*columns)))


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)
