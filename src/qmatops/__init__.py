"""State-vector simulator and verifier for amplitude-encoded matrix circuits.

Four routines operate on a matrix stored as a two-register amplitude table:
row addition, row swapping, trace readout, and transpose.  Each run reports
its post-selection probability, the closed-form law for that probability,
the decoded output, and a primitive gate tally; the oracle module recomputes
everything classically so the two can be compared.  The names below are the
package's public API; everything else is reached through its modules.
"""
from .algorithms import (
    run_row_add,
    run_row_swap,
    run_trace,
    run_transpose,
    run_transpose_square,
)
from .complexity import CLAIMS, measure_scaling
from .gates import (
    ControlledOp,
    FlipQubit,
    GateCounts,
    HadamardLayer,
    Netlist,
    Projector,
    RegisterSwapGate,
    SwapRegisters,
    apply_gate,
    decompose_mcx,
    lower,
    tally_gates,
)
from .matio import save_matrix
from .oracle import (
    dense_mcx,
    dense_unitary_of,
    oracle_row_add,
    oracle_row_swap,
    oracle_trace,
    oracle_transpose,
)
from .state import (
    AncillaVector,
    RegisterLayout,
    SparseBuffer,
    StateBuffer,
    StateVector,
    decode_matrix,
    encode_matrix,
    post_select,
    prepare_product_state,
)
from .verify import SCALING_WIDTHS, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "AncillaVector",
    "CLAIMS",
    "ControlledOp",
    "FlipQubit",
    "GateCounts",
    "HadamardLayer",
    "Netlist",
    "Projector",
    "RegisterLayout",
    "RegisterSwapGate",
    "SCALING_WIDTHS",
    "SparseBuffer",
    "StateBuffer",
    "StateVector",
    "SwapRegisters",
    "apply_gate",
    "decode_matrix",
    "decompose_mcx",
    "dense_mcx",
    "dense_unitary_of",
    "encode_matrix",
    "lower",
    "measure_scaling",
    "oracle_row_add",
    "oracle_row_swap",
    "oracle_trace",
    "oracle_transpose",
    "post_select",
    "prepare_product_state",
    "run_all_checks",
    "run_row_add",
    "run_row_swap",
    "run_trace",
    "run_transpose",
    "run_transpose_square",
    "save_matrix",
    "tally_gates",
]
