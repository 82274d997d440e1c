import pytest

from qmatops import algorithms

_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, name): acceptance criterion covered by this test"
    )


@pytest.fixture(autouse=True)
def fresh_circuit_builders():
    # the builders hold circuits, and their index plans, from one call to the
    # next; cleared, a test that counts what a run works out or keeps does not
    # depend on which tests ran before it
    for builder in (
        algorithms.row_add_circuit,
        algorithms.row_swap_circuit,
        algorithms._canonical_row_add,
        algorithms._canonical_row_swap,
        algorithms.trace_circuit,
        algorithms.transpose_circuit,
        algorithms.transpose_square_circuit,
    ):
        builder.cache_clear()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, name = marker.args
        _ACCEPTANCE[num] = (name, report.passed)
    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        name, passed = _ACCEPTANCE[num]
        terminalreporter.write_line(
            f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'}"
        )
