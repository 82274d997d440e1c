import dataclasses
import json
import math

import numpy as np
import pytest

from qmatops import (
    algorithms,
    cli,
    encode_matrix,
    oracle_row_swap,
    run_all_checks,
    run_row_add,
    run_row_swap,
    run_trace,
    run_transpose,
    run_transpose_square,
    save_matrix,
    state,
)
from qmatops.cli import main
from qmatops.golden import replay_walkthrough
from qmatops.matio import load_matrix, matrix_to_payload, payload_to_matrix
from qmatops.verify import check_golden_walkthrough


@pytest.fixture
def matrix_file(tmp_path):
    def write(matrix, name="matrix.json"):
        path = tmp_path / name
        save_matrix(path, np.asarray(matrix, dtype=complex))
        return str(path)

    return write


def run_to_document(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    assert code == 0
    return json.loads(out.read_text())


# --- matrix file round trip ---------------------------------------------------

def test_matrix_payload_round_trip():
    matrix = np.array([[1.0, -2.5], [0.25, 1.0 + 2.0j]])
    payload = matrix_to_payload(matrix)
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert payload["data"][0] == 1.0  # real entries stay plain numbers
    assert payload["data"][3] == [1.0, 2.0]
    np.testing.assert_array_equal(payload_to_matrix(payload), matrix)


def test_save_and_load_matrix(tmp_path):
    path = tmp_path / "m.json"
    matrix = np.arange(6, dtype=float).reshape(2, 3) + 1
    save_matrix(path, matrix)
    np.testing.assert_array_equal(load_matrix(path), matrix)


def test_payload_rejections():
    with pytest.raises(ValueError):
        payload_to_matrix({"rows": 2, "cols": 2, "data": [1, 2, 3]})
    with pytest.raises(ValueError):
        payload_to_matrix({"rows": 2, "cols": 1, "data": [True, 1.0]})
    with pytest.raises(ValueError):
        payload_to_matrix({"rows": 1, "cols": 1, "data": [[1.0, 2.0, 3.0]]})
    # integers beyond float range
    with pytest.raises(ValueError, match="bad matrix entry"):
        payload_to_matrix({"rows": 1, "cols": 2, "data": [1, 10**400]})
    with pytest.raises(ValueError, match="bad matrix entry"):
        payload_to_matrix({"rows": 1, "cols": 1, "data": [[0, -(10**400)]]})


# --- algorithm subcommands -----------------------------------------------------

def test_row_swap_document_matches_oracle(matrix_file, tmp_path):
    matrix = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
    document = run_to_document(
        ["row-swap", "--input", matrix_file(matrix), "--k", "0", "--l", "2"],
        tmp_path,
    )
    assert document["command"] == "row-swap"
    assert document["input"] == {"rows": 4, "cols": 2, "padded_rows": 4, "padded_cols": 2}
    assert abs(document["probability"] - 1 / 24) < 1e-10
    encoded = encode_matrix(matrix)
    expected = np.array(oracle_row_swap(encoded.entries, 0, 2).matrix)
    restored = payload_to_matrix(document["matrix_restored"])
    np.testing.assert_allclose(restored, expected * encoded.frobenius_scale, atol=1e-9)


def test_row_add_document_restores_unnormalized_sum(matrix_file, tmp_path):
    matrix = [[1.0, 0.0], [0.0, 1.0]]
    document = run_to_document(
        ["row-add", "--input", matrix_file(matrix), "--k", "0", "--l", "1"],
        tmp_path,
    )
    assert abs(document["normalization_G"] - math.sqrt(3 / 2)) < 1e-10
    restored = payload_to_matrix(document["matrix_restored"])
    np.testing.assert_allclose(restored, [[1.0, 0.0], [1.0, 1.0]], atol=1e-9)
    assert "recovered_trace" not in document


def test_trace_document_reports_restored_scalar(matrix_file, tmp_path):
    document = run_to_document(
        ["trace", "--input", matrix_file(7.0 * np.eye(2))], tmp_path
    )
    assert document["recovered_trace_restored"] == pytest.approx([14.0, 0.0], abs=1e-9)
    assert "matrix" not in document or document["matrix"] is None
    assert abs(document["probability"] - document["predicted_probability"]) < 1e-10


def test_transpose_document_is_exact(matrix_file, tmp_path):
    matrix = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    document = run_to_document(
        ["transpose", "--input", matrix_file(matrix)], tmp_path
    )
    assert document["probability"] == 1.0
    restored = payload_to_matrix(document["matrix_restored"])
    np.testing.assert_allclose(restored, np.array(matrix).T, atol=1e-9)
    square = run_to_document(
        ["transpose-square", "--input", matrix_file(matrix)], tmp_path, "sq.json"
    )
    assert square["matrix_restored"] == document["matrix_restored"]


def test_same_seed_gives_byte_identical_reports(matrix_file, tmp_path):
    path = matrix_file(np.eye(4) + 0.25)
    args = ["row-add", "--input", path, "--k", "1", "--l", "3", "--shots", "200", "--seed", "9"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_shots_report_empirical_frequency(matrix_file, tmp_path):
    document = run_to_document(
        ["row-swap", "--input", matrix_file(np.eye(2)), "--k", "0", "--l", "1",
         "--shots", "3000", "--seed", "4"],
        tmp_path,
    )
    assert document["shots"] == 3000
    assert abs(document["empirical_frequency"] - 1 / 24) < 0.02


@pytest.mark.parametrize("command", ["row-swap", "trace"])
def test_shots_drawn_in_chunks_give_the_same_report(matrix_file, capsys, monkeypatch, command):
    rows = ["--k", "0", "--l", "1"] if command == "row-swap" else []
    path = matrix_file(np.eye(2) + 0.5)
    argv = [command, "--input", path, *rows, "--shots", "1000", "--seed", "6"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "SHOT_CHUNK", 7)
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


def test_verbose_includes_step_records(matrix_file, tmp_path):
    document = run_to_document(
        ["row-swap", "--input", matrix_file(np.eye(2)), "--k", "0", "--l", "1",
         "--verbose"],
        tmp_path,
    )
    labels = [step["label"] for step in document["steps"]]
    assert labels == [f"phi_{t}" for t in range(7)]
    for step in document["steps"]:
        assert step["norm_squared"] == pytest.approx(1.0, abs=1e-9)
        assert isinstance(step["checksum"], str)


def test_verbose_dump_lists_the_first_occupied_states(matrix_file, tmp_path):
    matrix = np.random.default_rng(22).standard_normal((32, 32)) + 0.5j
    document = run_to_document(["trace", "--input", matrix_file(matrix), "--verbose"], tmp_path)
    report = run_trace(encode_matrix(matrix), record_steps=True)
    state = {record.label: record.state for record in report.step_states}["phi_3"]
    occupied = np.flatnonzero(state.amplitudes)
    assert occupied.size == 65536
    listed = [step for step in document["steps"] if step["label"] == "phi_3"][0]["amplitudes"]
    assert len(listed) == cli.AMPLITUDE_DUMP_CAP
    first = occupied[: cli.AMPLITUDE_DUMP_CAP]
    values = np.unravel_index(first, state.layout.shape)
    for position, entry in enumerate(listed):
        assert [entry[name] for name in state.layout.names] == [int(v[position]) for v in values]
        amplitude = state.amplitudes[first[position]]
        assert (entry["re"], entry["im"]) == (amplitude.real, amplitude.imag)


def standard_payload(matrix) -> dict:
    data = [float(z.real) if z.imag == 0 else [float(z.real), float(z.imag)] for z in matrix.ravel()]
    return {"rows": matrix.shape[0], "cols": matrix.shape[1], "data": data}


def standard_steps(report) -> list[dict]:
    """Each recorded stage with its first occupied states as a list of dicts."""
    steps = []
    for record in report.step_states:
        amplitudes = record.state.amplitudes
        indices = np.flatnonzero(amplitudes)[: cli.AMPLITUDE_DUMP_CAP]
        registers = dict(zip(record.state.layout.names, np.unravel_index(indices, record.state.layout.shape)))
        listed = [
            {**{name: int(values[row]) for name, values in registers.items()}, "re": z.real, "im": z.imag}
            for row, z in enumerate(amplitudes[indices].tolist())
        ]
        steps.append(
            {"label": record.label, "norm_squared": record.norm_squared, "checksum": record.checksum,
             "amplitudes": listed}
        )
    return steps


ROUTINE_ROWS = {"row-add": [1, 3], "row-swap": [3, 0], "trace": [], "transpose": [], "transpose-square": []}
# the CLI refuses a row in the padding, so a 3-row input takes rows 0 to 2
PADDED_ROWS = {**ROUTINE_ROWS, "row-add": [1, 2], "row-swap": [2, 0]}
# trace takes only square matrices; the others also a padded 3x4 one
VERBOSE_CASES = [(command, (4, 4)) for command in ROUTINE_ROWS] + [
    (command, (3, 4)) for command in ROUTINE_ROWS if command != "trace"
]


@pytest.mark.parametrize("command, shape", VERBOSE_CASES, ids=[f"{c}-{r}x{k}" for c, (r, k) in VERBOSE_CASES])
def test_verbose_report_is_the_standard_encoding_of_the_run(matrix_file, tmp_path, command, shape):
    rows = (ROUTINE_ROWS if shape[0] == 4 else PADDED_ROWS)[command]
    rng = np.random.default_rng(31)
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    matrix[0, 1], matrix[1, 2], matrix[2, 0] = -0.0, 0.0, 0.75
    out = tmp_path / "report.json"
    argv = [command, "--input", matrix_file(matrix), *[f"--{name}={row}" for name, row in zip("kl", rows)]]
    assert main(argv + ["--verbose", "--output", str(out)]) == 0

    encoded = encode_matrix(matrix)
    runner = {"row-add": run_row_add, "row-swap": run_row_swap, "trace": run_trace,
              "transpose": run_transpose, "transpose-square": run_transpose_square}[command]
    report = runner(encoded, *rows, record_steps=True)
    doc = {
        "command": command,
        "input": {
            "rows": shape[0],
            "cols": shape[1],
            "padded_rows": encoded.rows,
            "padded_cols": encoded.cols,
        },
        "frobenius_scale": encoded.frobenius_scale,
        "probability": report.success_probability,
        "predicted_probability": report.predicted_probability,
        "gate_tally": report.gate_tally.to_dict(),
        "seed": 0,
        "matrix": None,
        "matrix_restored": None,
        "steps": standard_steps(report),
    }
    if report.output_matrix is not None:
        factor = report.frobenius_scale * (report.normalization or 1.0)
        out_rows, out_cols = report.output_unpadded_shape
        restored = (report.output_matrix * factor)[:out_rows, :out_cols]
        doc["matrix"] = standard_payload(report.output_matrix)
        doc["matrix_restored"] = standard_payload(restored)
    if report.recovered_trace is not None:
        trace = report.recovered_trace
        doc["recovered_trace"] = [trace.real, trace.imag]
        restored_trace = trace * report.frobenius_scale
        doc["recovered_trace_restored"] = [restored_trace.real, restored_trace.imag]
    if report.normalization is not None:
        doc["normalization_G"] = report.normalization
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("cap", [0, 3, 40, 10**6])
def test_first_occupied_scan_crosses_chunks(cap):
    amplitudes = np.zeros(3 * state.OCCUPIED_SCAN_CHUNK + 5, dtype=complex)
    amplitudes[np.random.default_rng(23).choice(amplitudes.size, 50, replace=False)] = 1j
    expected = np.flatnonzero(amplitudes)[:cap]
    np.testing.assert_array_equal(state._first_occupied(amplitudes, cap), expected)


def test_first_occupied_scan_reads_signed_zeros_and_nan_as_numpy_does():
    # the scan compares with zero before it looks for true entries
    amplitudes = np.zeros(2 * state.OCCUPIED_SCAN_CHUNK, dtype=complex)
    picked = np.random.default_rng(24).choice(amplitudes.size, 40, replace=False)
    values = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(np.nan, 0.0), complex(0.0, np.nan), 1e-320, -1j]
    amplitudes[picked] = [values[i % len(values)] for i in range(picked.size)]
    np.testing.assert_array_equal(state._first_occupied(amplitudes, None), np.flatnonzero(amplitudes))


def test_the_parser_is_built_once_and_answers_alike(capsys):
    from qmatops import cli

    assert cli._parser() is cli._parser()
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["row-add", "--help"])
        with pytest.raises(SystemExit):
            main(["row-add", "--input", "x.json"])
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "--k" in outputs[0].out and "the following arguments are required: --k, --l" in outputs[0].err


def test_stdout_report_when_no_output_file(matrix_file, capsys):
    assert main(["trace", "--input", matrix_file(np.eye(2))]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["command"] == "trace"


# --- verification subcommands ---------------------------------------------------

def test_verify_subcommand_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--matrices", "12", "--output", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in captured
    assert "checks passed" in captured
    document = json.loads(out.read_text())
    assert all(entry["passed"] for entry in document["checks"])


@pytest.mark.parametrize("matrices", [0, -3])
def test_run_all_checks_rejects_empty_suite(matrices):
    with pytest.raises(ValueError, match="at least 1 matrix"):
        run_all_checks(matrices=matrices)


def test_verify_subcommand_rejects_empty_suite(capsys):
    assert main(["verify", "--matrices", "0"]) == 1
    captured = capsys.readouterr()
    assert "checks passed" not in captured.out
    assert "error: the random-matrix suite needs at least 1 matrix" in captured.err


def test_scaling_subcommand_passes(capsys):
    code = main(["scaling", "--algorithm", "trace", "--widths", "1,2,3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "trace" in captured


def test_scaling_subcommand_rejects_single_width():
    assert main(["scaling", "--algorithm", "trace", "--widths", "2"]) == 1


def test_appendix_walkthrough_passes(capsys):
    code = main(["appendix1"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured


def test_appendix_walkthrough_judges_the_decoded_matrix(monkeypatch, tmp_path, capsys):
    # every branch and the probability still match; only the output is off
    report, rows = replay_walkthrough()
    off = dataclasses.replace(report, output_matrix=report.output_matrix + 1e-6)
    monkeypatch.setattr(cli, "replay_walkthrough", lambda: (off, rows))
    out = tmp_path / "appendix1.json"
    assert main(["appendix1", "--output", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    assert json.loads(out.read_text())["passed"] is False
    assert not check_golden_walkthrough(off, rows).passed


# --- failure paths ---------------------------------------------------------------

def test_malformed_file_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for text in (
        "{not json",
        # an integer beyond float range
        '{"rows": 1, "cols": 2, "data": [1, 1' + "0" * 400 + "]}",
        # bool is an int subclass, but true is no dimension
        '{"rows": true, "cols": true, "data": [1]}',
        '{"rows": 1, "cols": true, "data": [1]}',
    ):
        path.write_text(text)
        code = main(["trace", "--input", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_transpose_square_refuses_an_oversized_square_with_an_error(tmp_path, capsys):
    # padded to 2^20 x 2^20, a 16 TiB state of 40 qubits
    path = tmp_path / "wide.json"
    cols = 1 << 20
    path.write_text(f'{{"rows": 2, "cols": {cols}, "data": [1{", 0" * (2 * cols - 1)}]}}')
    assert main(["transpose-square", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceeds the dense-array cap" in err


def test_recorded_run_beyond_physical_memory_reports_error(matrix_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(algorithms, "_physical_memory", lambda: 1 << 16)
    argv = ["row-add", "--input", matrix_file(np.ones((16, 16))), "--k", "1", "--l", "2"]
    assert main(argv + ["--verbose"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a recorded run of 15 qubits") and "physical memory" in err
    assert "steps" not in run_to_document(argv, tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["row-add", "--k", "0", "--l", "1"],
        ["row-swap", "--k", "0", "--l", "1"],
        ["trace"],
        ["transpose"],
        ["transpose-square"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_file_reports_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing.json"
    assert main(argv + ["--input", str(missing)]) == 1
    assert f"error: {missing}: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["row-add", "--input", "{matrix}", "--k", "0", "--l", "1"],
        ["row-swap", "--input", "{matrix}", "--k", "0", "--l", "1"],
        ["trace", "--input", "{matrix}"],
        ["transpose", "--input", "{matrix}"],
        ["transpose-square", "--input", "{matrix}"],
        ["verify", "--matrices", "1"],
        ["scaling", "--algorithm", "trace", "--widths", "1,2"],
        ["appendix1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_reports_error(matrix_file, tmp_path, capsys, argv):
    matrix = matrix_file(np.eye(2))
    unwritable = tmp_path / "missing-dir" / "report.json"
    argv = [matrix if arg == "{matrix}" else arg for arg in argv]
    assert main(argv + ["--output", str(unwritable)]) == 1
    assert f"error: {unwritable}: cannot write" in capsys.readouterr().err


def test_equal_rows_rejected(matrix_file, capsys):
    code = main(["row-swap", "--input", matrix_file(np.eye(2)), "--k", "1", "--l", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["row-add", "row-swap"])
@pytest.mark.parametrize("k, l, refused", [(1, 3, "--l 3"), (3, 0, "--k 3"), (0, 4, "--l 4")])
def test_row_in_the_padding_refused(matrix_file, capsys, monkeypatch, command, k, l, refused):
    # on a 3x4 input, padded to 4x4, the run would move a row into padding
    # row 3, which the 3-row restore drops; the input is not even encoded
    monkeypatch.setattr(cli, "encode_matrix", None)
    matrix = np.arange(12.0).reshape(3, 4) + 1
    assert main([command, "--input", matrix_file(matrix), "--k", str(k), "--l", str(l)]) == 1
    assert capsys.readouterr().err == f"error: {refused} is past the last row of the 3-row input\n"


def test_non_square_trace_rejected(matrix_file, capsys):
    for shape in ((2, 4), (3, 4), (4, 3)):
        code = main(["trace", "--input", matrix_file(np.ones(shape))])
        assert code == 1
        assert "error: trace needs a square matrix" in capsys.readouterr().err


def test_zero_shots_rejected(matrix_file, capsys):
    code = main(["trace", "--input", matrix_file(np.eye(2)), "--shots", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_zero_shots_rejected_before_simulating(matrix_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("read or simulated despite an invalid --shots")

    for name in ("load_matrix", "run_row_add", "run_row_swap", "run_trace", "run_transpose",
                 "run_transpose_square"):
        monkeypatch.setattr(cli, name, refuse)
    path = matrix_file(np.eye(2))
    for shots, message in (
        ("0", "--shots must be a positive integer"),
        # 10^13 shots would take hours to draw
        ("10000000000000", f"--shots must be at most {cli.MAX_SHOTS}"),
        (str(cli.MAX_SHOTS + 1), f"--shots must be at most {cli.MAX_SHOTS}"),
    ):
        code = main(["row-swap", "--input", path, "--k", "0", "--l", "1", "--shots", shots])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
