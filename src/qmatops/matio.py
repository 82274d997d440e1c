"""Matrix file format and the JSON writer of every file the package writes.

{"rows": 2, "cols": 2, "data": [1.0, [0.0, 0.5], 0.25, -1.0]}

Each entry is a real number or a [real, imag] pair.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = ["load_matrix", "save_matrix", "matrix_to_payload", "payload_to_matrix", "json_text", "Columns"]

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

class Columns(Mapping):
    """A list of records held as one column per key, for ``json_text``.

    Keys are str; each column is a list, a float64 array or an integer
    array, all of one length.  ``json_text`` writes ``Columns(columns)`` as
    ``json.dumps`` writes the records
    ``[dict(zip(keys, row)) for row in zip(*columns.values())]`` with
    ``indent=2, sort_keys=True``, byte for byte, and zero rows as ``[]``.
    Columns of unequal length raise ValueError; an array of any other dtype
    raises TypeError, as ``json.dumps`` refuses numpy values.
    """

    def __init__(self, columns: Mapping[str, list | np.ndarray]):
        self._columns = dict(columns)
        for key, column in self._columns.items():
            if not isinstance(key, str):
                raise TypeError(f"column keys must be str, not {key.__class__.__name__}")
            if isinstance(column, np.ndarray):
                if column.ndim != 1:
                    raise ValueError(f"column {key!r} must be 1-D, got shape {column.shape}")
                if column.dtype != np.float64 and column.dtype.kind not in "iu":
                    raise TypeError(f"column {key!r} of dtype {column.dtype} is not JSON serializable")
            elif not isinstance(column, list):
                raise TypeError(f"column {key!r} must be a list or an array, not {column.__class__.__name__}")
        if len(set(map(len, self._columns.values()))) > 1:
            raise ValueError("columns must all have one length")

    def __getitem__(self, key: str) -> list | np.ndarray:
        return self._columns[key]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def json_text(doc) -> str:
    """``doc`` as ``json.dumps`` writes it with ``indent=2, sort_keys=True``,
    byte for byte, with the same TypeError for what JSON cannot hold; a
    ``Columns`` value is written as the list of its records.

    The standard encoder yields one token at a time whenever it indents.
    This writer formats each list a column at a time instead: a list of one
    scalar type is one ``map``; a list of lists of one length (complex
    matrix entries) fills one ``%`` template per item from the formatted
    columns of its positions; a list of several types is formatted type by
    type.  A ``Columns`` value formats each column at once and interleaves
    the texts with constant key labels by slice assignment, so writing it
    makes no Python object per record.

    Every float in a list or a column is formatted once per call for each
    distinct bit pattern: a memo made for this call maps the patterns
    already formatted to their texts.  It is keyed by the bits, not by the
    value, because 0.0 == -0.0 while their texts differ.
    """
    return _value(doc, "\n", {})


def _value(value, newline: str, memo: dict) -> str:
    """One value whose closing bracket, if any, starts the line ``newline``."""
    if isinstance(value, Columns):
        return _records(value, newline, memo)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + INDENT
        return "[" + inner + ("," + inner).join(_column(value, inner, memo)) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + INDENT
        fields = (_key(key) + ": " + _value(item, inner, memo) for key, item in sorted(value.items()))
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    return _scalar(value)


def _records(table: Columns, newline: str, memo: dict) -> str:
    """The list of ``table``'s records, joined once from a list that holds,
    for each record, the label and the text of each field in key order."""
    keys = sorted(table)
    rows = len(table[keys[0]]) if keys else 0
    if not rows:
        return "[]"
    inner = newline + INDENT
    field = inner + INDENT
    labels = [field + encode_basestring_ascii(key) + ": " for key in keys]
    # the first label of a record also closes the record before it
    separators = [inner + "}," + inner + "{" + labels[0]] + ["," + label for label in labels[1:]]
    step = 2 * len(keys)
    parts = [text for separator in separators for text in (separator, "")] * rows
    parts[0] = "{" + labels[0]
    for position, key in enumerate(keys):
        column = table[key]
        parts[2 * position + 1 :: step] = (
            _column(column, field, memo) if isinstance(column, list) else _array_texts(column, memo)
        )
    return "[" + inner + "".join(parts) + inner + "}" + newline + "]"


def _column(values, newline: str, memo: dict) -> list[str]:
    """The text of each of ``values``, all on the level of ``newline``."""
    types = list(map(type, values))
    kinds = set(types)
    if len(kinds) > 1:
        # each type's values are formatted together, then put back in order
        texts = {}
        for kind in kinds:
            chosen = itertools.compress(values, map(operator.is_, types, itertools.repeat(kind)))
            texts[kind] = iter(_column(list(chosen), newline, memo))
        return list(map(next, map(texts.__getitem__, types)))
    kind = kinds.pop()
    if kind is float:
        return _array_texts(np.array(values, dtype=np.float64), memo)
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    # lists of one length, as many as their items or more, are filled into
    # one template position by position
    if kind in (list, tuple) and 0 < len(values[0]) <= len(values) and len(set(map(len, values))) == 1:
        return _filled(values, len(values[0]), newline, memo)
    return [_value(value, newline, memo) for value in values]


def _filled(containers, width: int, newline: str, memo: dict) -> list[str]:
    """Lists of ``width`` items: one template, filled per list from the
    formatted column of each position."""
    inner = newline + INDENT
    template = "[" + inner + ("," + inner).join(["%s"] * width) + newline + "]"
    columns = [_column(list(map(operator.itemgetter(at), containers)), inner, memo) for at in range(width)]
    return list(map(template.__mod__, zip(*columns)))


def _array_texts(values: np.ndarray, memo: dict) -> list[str]:
    """The text of each item of a float64 or integer array, formatted once
    per distinct item; for floats, only the bit patterns that ``memo``
    lacks are formatted, and then added to it."""
    if values.dtype != np.float64:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = list(map(int.__repr__, distinct.tolist()))
    else:
        patterns, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        patterns = patterns.tolist()
        new = list(itertools.filterfalse(memo.__contains__, patterns))
        if new:
            floats = np.array(new, dtype=np.uint64).view(np.float64)
            # NaN and infinities are spelled as json.dumps spells them
            text = float.__repr__ if np.isfinite(floats).all() else _float
            memo.update(zip(new, map(text, floats.tolist())))
        texts = list(map(memo.__getitem__, patterns))
    return np.array(texts, dtype=object)[inverse].tolist()


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
