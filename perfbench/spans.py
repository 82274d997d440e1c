"""Span recording for the traced run, from outside the program.

``Tracer.install`` swaps the names that ``qmatops.algorithms`` and
``qmatops.cli`` look up at call time for timing wrappers, and
``Tracer.remove`` puts the originals back.  Spans stay in memory until
``per_layer`` aggregates them when the run ends.  A span's self time is its
duration minus the time its child spans cover, so the self times of every
span sum to the duration of the root spans.
"""
from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from time import perf_counter

from qmatops import algorithms, cli

from cases import RUNNERS

# (module, attribute, span name).  A name the module no longer has is an
# error, not a silent gap in the split: the benchmark must follow the program.
WRAPPED = (
    [(algorithms, "apply_gate", "gates.apply"),
     (algorithms, "post_select", "algorithms.post_select"),
     (algorithms, "prepare_product_state", "state.prepare"),
     (algorithms, "decode_matrix", "state.decode"),
     (algorithms, "tally_gates", "gates.tally"),
     (cli, "load_matrix", "matio.load"),
     (cli, "encode_matrix", "state.encode"),
     (cli, "main", "cli.main")]
    + [(cli, name, "algorithms.runner") for name in RUNNERS.values()]
)

# A gather gate reads each complex128 amplitude once and writes it once.
BYTES_PER_AMP_COMPUTED = 32

# Spans whose self time is reported under another name.
SELF_NAMES = {"algorithms.runner": "algorithms.runner_self", "cli.main": "cli.self"}
GATE_KINDS = ("flip", "cswap", "regswap", "hadamard")


def gate_kind(gate) -> str:
    """One of GATE_KINDS, by class name; any other gate is an error, so that
    no gate time can fall outside the reported kinds."""
    kind = type(gate).__name__
    if kind == "HadamardLayer":
        return "hadamard"
    if kind == "RegisterSwapGate":
        return "regswap"
    action = type(getattr(gate, "action", None)).__name__
    if action == "FlipQubit":
        return "flip"
    if action == "SwapRegisters":
        return "cswap"
    raise TypeError(f"gate {kind} (action {action}) is not one of {GATE_KINDS}; update spans.py")


class Tracer:
    """Records (span name, self seconds, (gate, layout) or None) per call."""

    def __init__(self):
        self.records: list[tuple[str, float, object]] = []
        self.step_state_bytes = 0
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        records, stack = self.records, self._stack
        is_gate = name == "gates.apply"
        is_runner = name == "algorithms.runner"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                # keep the gate and layout, never the state, so no amplitudes stay alive
                records.append((name, elapsed - frame[0], (args[1], args[0].layout) if is_gate else None))
            if is_runner:
                for step in getattr(result, "step_states", None) or ():
                    self.step_state_bytes += step.state.amplitudes.nbytes
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _ in WRAPPED:
            if not hasattr(module, attr):
                raise AttributeError(f"{module.__name__}.{attr} is gone; update spans.WRAPPED")
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def per_layer(self, runs: int) -> dict[str, float]:
        """Aggregate spans into per-run layer metrics."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        amps = selected_amps = controlled_amps = 0
        for name, value, extra in self.records:
            if name == "gates.apply":
                gate, layout = extra
                amps += layout.size
                projector = getattr(gate, "projector", None)
                if projector is not None:
                    mask, _ = projector.resolve(layout)
                    controlled_amps += layout.size
                    selected_amps += layout.size >> bin(mask).count("1")
                name = "gates." + gate_kind(gate)
            else:
                name = SELF_NAMES.get(name, name)
            seconds[name] += value
            calls[name] += 1

        out: dict[str, float] = {}
        for kind in GATE_KINDS:
            out[f"gates.{kind}.s"] = seconds[f"gates.{kind}"] / runs
            out[f"gates.{kind}.calls"] = calls[f"gates.{kind}"] / runs
        gate_seconds = sum(seconds[f"gates.{kind}"] for kind in GATE_KINDS)
        out["gates.amps_in"] = amps / runs
        out["gates.bytes_moved_computed"] = amps * BYTES_PER_AMP_COMPUTED / runs
        out["gates.ns_per_amp"] = gate_seconds / amps * 1e9 if amps else 0.0
        out["gates.selected_frac"] = selected_amps / controlled_amps if controlled_amps else 0.0
        for layer in ("gates.tally", "state.prepare", "state.decode", "state.encode", "algorithms.post_select"):
            out[f"{layer}.s"] = seconds[layer] / runs
            out[f"{layer}.calls"] = calls[layer] / runs
        out["algorithms.runner_self.s"] = seconds["algorithms.runner_self"] / runs
        out["algorithms.step_states.bytes"] = self.step_state_bytes / runs
        out["matio.load.s"] = seconds["matio.load"] / runs
        out["cli.self.s"] = seconds["cli.self"] / runs
        return out

    def self_seconds(self) -> float:
        """Sum of every span's self time: the traced time the layers account for."""
        return sum(value for _, value, _ in self.records)


class AllocProbe:
    """Tracemalloc peak of single gate calls, relative to the state's bytes."""

    def __init__(self):
        self.worst = 0.0
        self._saved = None

    def install(self) -> None:
        original = self._saved = algorithms.apply_gate

        @functools.wraps(original)
        def probed(state, gate):
            tracemalloc.start()
            try:
                return original(state, gate)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.worst = max(self.worst, peak / state.amplitudes.nbytes)

        algorithms.apply_gate = probed

    def remove(self) -> None:
        algorithms.apply_gate = self._saved
