import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmatops.cli import main
from qmatops.matio import Columns, json_text, load_matrix, matrix_to_payload, payload_to_matrix, save_matrix


def standard(doc) -> str:
    """The reference the writer must match byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True)


# --- JSON writer ----------------------------------------------------------------

# keys and strings with non-ASCII, quote, backslash, control and template characters
st_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\%\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
    max_size=6,
)
st_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, math.inf, -math.inf, math.nan]),
)
st_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**30, -(10**30)]),
    st_floats,
    st_floats.map(np.float64),
    st_text,
)


def st_containers(children):
    records = st.lists(st_text, min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: children for key in keys}), min_size=1, max_size=6)
    )
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st_text, children, max_size=5),
        # keys that are not strings but still sort among themselves
        st.dictionaries(
            st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()), children, max_size=4
        ),
        # records with one key set, and with unequal ones
        records,
        st.lists(st.dictionaries(st_text, children, max_size=3), max_size=6),
        # lists of one length, and matrix data: numbers mixed with pairs
        st.lists(st.lists(children, min_size=2, max_size=2), max_size=6),
        st.lists(st.one_of(st_floats, st.lists(st_floats, min_size=2, max_size=2)), max_size=8),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(st_scalars, st_containers, max_leaves=40))
def test_writer_is_byte_identical_to_the_standard_encoder(doc):
    assert json_text(doc) == standard(doc)


def test_writer_is_byte_identical_on_long_columns():
    rng = np.random.default_rng(3)
    values = (rng.standard_normal(3000) * 10.0 ** rng.integers(-320, 300, 3000)).tolist()
    values[::100] = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 5e-324] * 5
    records = [{"R": i, "re": v, "im": -v, "note": "%s\u00e9" * (i % 3)} for i, v in enumerate(values)]
    pairs = [[v, 1.0] if i % 2 else v for i, v in enumerate(values)]
    for doc in (values, records, pairs, {"steps": [{"amplitudes": records[:50]}]}):
        assert json_text(doc) == standard(doc)


# --- column tables -----------------------------------------------------------------

# floats that recur often, so one document repeats values within and across columns
st_column_floats = st.one_of(st_floats, st.sampled_from([0.0, -0.0, 0.1, -2.5, 5e-324]))
st_column_kinds = {
    "list": st.one_of(st_scalars, st_column_floats, st.lists(st_column_floats, max_size=2)),
    "float64": st_column_floats,
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
}


@st.composite
def st_columns(draw):
    keys = draw(st.lists(st_text, max_size=4, unique=True))
    rows = draw(st.integers(0, 6))
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from(sorted(st_column_kinds)))
        values = draw(st.lists(st_column_kinds[kind], min_size=rows, max_size=rows))
        columns[key] = values if kind == "list" else np.array(values, dtype=kind)
    return Columns(columns)


def expanded(doc):
    """``doc`` with each ``Columns`` written out as its list of records."""
    if isinstance(doc, Columns):
        columns = [column.tolist() if isinstance(column, np.ndarray) else column for column in doc.values()]
        return [dict(zip(doc, row)) for row in zip(*columns)]
    if isinstance(doc, (list, tuple)):
        return [expanded(item) for item in doc]
    if isinstance(doc, dict):
        return {key: expanded(item) for key, item in doc.items()}
    return doc


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.one_of(st_scalars, st_columns()), st_containers, max_leaves=20))
# 0.0 == -0.0, so a memo keyed by value would write one of them wrongly
@example(Columns({"re": np.array([0.0, -0.0, 0.0]), "im": [-0.0, 0.0, -0.0]}))
# one memo serves every column and float list of a document
@example(
    {
        "a": Columns({"x": np.array([0.1, -0.0])}),
        "b": [Columns({"y": [0.1, 0.0], "z": np.array([-0.0, 0.1])})],
        "c": [-0.0, 0.1, 0.0],
    }
)
@example([Columns({"re": np.array([]), "R": np.array([], dtype=np.int64), "note": []}), Columns({})])
def test_columns_are_written_as_their_records(doc):
    assert json_text(doc) == standard(expanded(doc))


def test_columns_refuse_unequal_lengths_and_other_dtypes():
    with pytest.raises(ValueError):
        json_text({"steps": Columns({"re": np.zeros(3), "R": [0, 1]})})
    with pytest.raises(TypeError):
        json_text(Columns({"amplitude": np.zeros(3, dtype=np.complex128)}))
    with pytest.raises(TypeError):
        standard([{"amplitude": np.complex128(0)}])


@pytest.mark.parametrize(
    "doc",
    [np.int64(3), {"a": [1, {2, 3}]}, [1j], [np.bool_(True)], {"a": 1, 2: "b"}, {(1,): 0}],
    ids=["numpy-int", "set", "complex", "numpy-bool", "mixed-keys", "tuple-key"],
)
def test_writer_refuses_what_the_standard_encoder_refuses(doc):
    with pytest.raises(TypeError):
        standard(doc)
    with pytest.raises(TypeError):
        json_text(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["row-add", "--input", "{matrix}", "--k", "0", "--l", "2", "--verbose", "--shots", "100"],
        ["row-swap", "--input", "{matrix}", "--k", "3", "--l", "1", "--verbose"],
        ["trace", "--input", "{matrix}", "--verbose"],
        ["transpose", "--input", "{matrix}", "--verbose"],
        ["transpose-square", "--input", "{matrix}", "--verbose"],
        ["verify", "--matrices", "2"],
        ["scaling", "--algorithm", "all", "--widths", "1,2"],
        ["appendix1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_output_file_is_the_standard_encoding(tmp_path, argv):
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    matrix[0, 1], matrix[2, 3] = -0.0, 0.75
    path = tmp_path / "matrix.json"
    save_matrix(path, matrix)
    out = tmp_path / "report.json"
    assert main([str(path) if arg == "{matrix}" else arg for arg in argv] + ["--output", str(out)]) == 0
    for text in (path.read_text(), out.read_text()):
        assert text == standard(json.loads(text)) + "\n"


# --- matrix payloads ------------------------------------------------------------

def test_payload_round_trips_bitwise_at_2_16_entries(tmp_path):
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((256, 256)) * 10.0 ** rng.integers(-300, 300, (256, 256))
    matrix = matrix + 1j * rng.standard_normal((256, 256))
    matrix[::3] = matrix[::3].real  # real entries
    matrix.real[1::5] = -0.0  # -0.0 entries, and -0.0 real parts of complex ones
    negative_zero = np.signbit(matrix.real) & (matrix.real == 0)
    assert np.any(negative_zero & (matrix.imag == 0)) and np.any(negative_zero & (matrix.imag != 0))
    payload = matrix_to_payload(matrix)
    assert payload_to_matrix(payload).tobytes() == matrix.tobytes()
    assert payload_to_matrix(json.loads(json_text(payload))).tobytes() == matrix.tobytes()
    save_matrix(tmp_path / "m.json", matrix)
    assert load_matrix(tmp_path / "m.json").tobytes() == matrix.tobytes()


def test_bulk_conversion_is_the_per_entry_conversion():
    data = [3, -0.0, [0, -0.0], [2**53 + 1, -(2**1000)], 1e-320, [5e-324, 1.5], 2**1023, [-7, 0.25],
            np.float64(-0.5), [np.float64(2.0), -3]]
    expected = np.array([complex(*entry) if isinstance(entry, list) else complex(entry) for entry in data])
    assert payload_to_matrix({"rows": 2, "cols": 5, "data": data}).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "data, message",
    [
        ([1.0, True, "x", 2.0], "bad matrix entry True; use a number or [re, im]"),
        ([1.0, 2.0, [1.0], "x"], "bad matrix entry [1.0]; use a number or [re, im]"),
        ([[1.0, [2.0]], 1.0, 2.0, 3.0], "bad matrix entry [1.0, [2.0]]; use a number or [re, im]"),
        ([1.0, [0.5, False], 2.0, 3.0], "bad matrix entry [0.5, False]; use a number or [re, im]"),
        ([1.0, (0.5, 1.0), 2.0, 3.0], "bad matrix entry (0.5, 1.0); use a number or [re, im]"),
        ([1.0, 2.0, [0, -(10**400)], "x"], f"bad matrix entry [0, {-(10**400)}]; it lies beyond float range"),
        ([1.0, 10**400, 2.0, None], f"bad matrix entry {10**400}; it lies beyond float range"),
    ],
    ids=["bool", "short-pair", "nested-pair", "bool-part", "tuple", "huge-part", "huge"],
)
def test_bad_entries_are_named_first_in_order(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        payload_to_matrix({"rows": 2, "cols": 2, "data": data})


# --- matrix documents through the command line -----------------------------------

st_dimension = st.one_of(st.integers(0, 3), st.booleans(), st.floats(0, 3))
st_entry = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.lists(st.one_of(st.floats(-2, 2), st.booleans()), max_size=3),
    st.none(),
    st.text(max_size=2),
)


@st.composite
def st_matrix_document(draw):
    rows, cols = draw(st_dimension), draw(st_dimension)
    size = int(rows) * int(cols)
    return {"rows": rows, "cols": cols, "data": draw(st.lists(st_entry, min_size=size, max_size=size))}


@settings(max_examples=150, deadline=None)
@given(
    document=st_matrix_document(),
    argv=st.sampled_from(
        [["row-add", "--k", "0", "--l", "1"], ["row-swap", "--k", "1", "--l", "0"],
         ["trace"], ["transpose"], ["transpose-square"]]
    ),
)
@example(document={"rows": True, "cols": True, "data": [1.0]}, argv=["transpose"])
def test_any_matrix_document_succeeds_or_reports_an_error(tmp_path_factory, document, argv):
    directory = tmp_path_factory.mktemp("document")
    path = directory / "matrix.json"
    path.write_text(json.dumps(document))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--input", str(path), "--output", str(directory / "report.json")])
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error:")
