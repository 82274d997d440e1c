"""Record what the ``qmatops`` command line prints and writes, for a fixed
command set, so that two checkouts can be compared byte for byte.

Usage::

    PYTHONPATH=<checkout>/src python tests/cli_snapshot.py <out-dir>

``<out-dir>`` must not exist.  The script writes its input matrices to
``<out-dir>/inputs`` and, for each command, the command line, stdout,
stderr, exit code and any ``--output`` file to ``<out-dir>/runs/<name>``.
Commands run as ``python -m qmatops`` with ``<out-dir>`` as the working
directory and relative paths, so the snapshot holds no path of the machine
it was made on.  Snapshots of two checkouts should be identical by
``diff -r``.  pytest does not collect this file.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ALGORITHMS = ("row-add", "row-swap", "trace", "transpose", "transpose-square")
SHAPES = ((2, 2), (4, 4), (3, 5), (8, 8), (32, 32))


def write_inputs(directory: Path) -> dict[str, str]:
    """One matrix file per shape, with negative entries, complex entries on
    the larger inputs and one -0.0 entry each, then inputs whose read-outs
    hold exact zeros; returns name -> relative path."""
    directory.mkdir(parents=True)
    rng = np.random.default_rng(2024)
    paths = {}
    for rows, cols in SHAPES:
        real = np.round(rng.standard_normal((rows, cols)), 3)
        imag = np.round(rng.standard_normal((rows, cols)), 3) if rows * cols > 9 else 0 * real
        data = []
        for re, im in zip(real.ravel(), imag.ravel()):
            data.append(float(re) if im == 0 else [float(re), float(im)])
        data[1] = -0.0
        name = f"m{rows}x{cols}"
        document = {"rows": rows, "cols": cols, "data": data}
        (directory / f"{name}.json").write_text(json.dumps(document) + "\n")
        paths[name] = f"inputs/{name}.json"
    # inputs whose read-outs hold exact zeros, from a generator of their own
    # so that the inputs above stay as they are
    rng = np.random.default_rng(2026)
    complex_ = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    real = rng.standard_normal((32, 32))
    np.fill_diagonal(complex_, 0.0)
    np.fill_diagonal(real, 0.0)
    extra = {
        # traceless, so trace reads an exact-zero amplitude, whose signs the
        # sparse run takes from the dense run's light cone
        "zero-diagonal-complex32x32": complex_,
        "zero-diagonal-real32x32": real,
        # traceless too, with real, non-negative entries
        "ones-minus-eye32x32": np.ones((32, 32)) - np.eye(32),
        # 24 rows pad to 32, which decode to exact zeros whose signs the
        # sparse run keeps
        "complex24x32": rng.standard_normal((24, 32)) + 1j * rng.standard_normal((24, 32)),
    }
    for name, matrix in extra.items():
        data = [float(z.real) if z.imag == 0 else [float(z.real), float(z.imag)] for z in matrix.ravel()]
        document = {"rows": matrix.shape[0], "cols": matrix.shape[1], "data": data}
        (directory / f"{name}.json").write_text(json.dumps(document) + "\n")
        paths[name] = f"inputs/{name}.json"
    return paths


def commands(inputs: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(run name, qmatops arguments); "{out}" stands for the run's output file."""
    runs = []
    for rows, cols in SHAPES:
        name = f"m{rows}x{cols}"
        path = inputs[name]
        for algorithm in ALGORITHMS:
            argv = [algorithm, "--input", path]
            if algorithm == "row-add":
                pairs = [("0", "1"), ("1", "0")]
            elif algorithm == "row-swap":
                pairs = [("0", "1")]
            else:
                pairs = [None]
            for pair in pairs:
                rows = ["--k", pair[0], "--l", pair[1]] if pair else []
                label = f"{algorithm}-{name}" + (f"-k{pair[0]}l{pair[1]}" if pair else "")
                runs.append((label, argv + rows))
                runs.append((label + "-verbose", argv + rows + ["--verbose"]))
    runs += [
        ("row-swap-shots", ["row-swap", "--input", inputs["m4x4"], "--k", "1", "--l", "3",
                            "--shots", "5000", "--seed", "3", "--verbose"]),
        ("row-swap-shots-output", ["row-swap", "--input", inputs["m8x8"], "--k", "2", "--l", "5",
                                   "--shots", "3000000", "--seed", "8", "--output", "{out}"]),
        ("trace-shots", ["trace", "--input", inputs["m8x8"], "--shots", "2000", "--seed", "2"]),
        ("verify-output", ["verify", "--output", "{out}"]),
        ("scaling-output", ["scaling", "--output", "{out}"]),
        ("scaling-row-swap", ["scaling", "--algorithm", "row-swap", "--widths", "1,2,3,6",
                              "--seed", "5"]),
        ("appendix1-output", ["appendix1", "--output", "{out}"]),
        # unrecorded sparse runs, the three traces reading an exact-zero amplitude
        ("trace-zero-diagonal-complex32x32", ["trace", "--input", inputs["zero-diagonal-complex32x32"]]),
        ("trace-zero-diagonal-real32x32", ["trace", "--input", inputs["zero-diagonal-real32x32"]]),
        ("trace-ones-minus-eye32x32", ["trace", "--input", inputs["ones-minus-eye32x32"]]),
        ("row-add-complex24x32-k5l17", ["row-add", "--input", inputs["complex24x32"], "--k", "5", "--l", "17"]),
        ("row-swap-complex24x32-k23l2", ["row-swap", "--input", inputs["complex24x32"], "--k", "23", "--l", "2"]),
        ("transpose-complex24x32", ["transpose", "--input", inputs["complex24x32"]]),
    ]
    # every width that scaling accepts, so every lowered gate's tally is compared
    widths = ",".join(str(width) for width in range(1, 13))
    for algorithm in ("row-add", "row-swap", "trace", "transpose"):
        argv = ["scaling", "--algorithm", algorithm, "--widths", widths, "--output", "{out}"]
        runs.append((f"scaling-{algorithm}-widths-1-12", argv))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: cli_snapshot.py <out-dir>", file=sys.stderr)
        return 2
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=False)
    # the commands run in root, so relative PYTHONPATH entries are resolved here
    env = dict(os.environ)
    entries = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(str(Path(entry).resolve()) for entry in entries if entry)
    where = subprocess.run(
        [sys.executable, "-c", "import qmatops; print(qmatops.__file__)"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    print(f"snapshot of {where.stdout.strip()}")
    inputs = write_inputs(root / "inputs")
    for label, args in commands(inputs):
        run_dir = root / "runs" / label
        run_dir.mkdir(parents=True)
        output = f"runs/{label}/output.json"
        args = [output if arg == "{out}" else arg for arg in args]
        done = subprocess.run(
            [sys.executable, "-m", "qmatops", *args], cwd=root, env=env, capture_output=True
        )
        (run_dir / "argv").write_text(" ".join(args) + "\n")
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        (run_dir / "exit_code").write_text(f"{done.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
