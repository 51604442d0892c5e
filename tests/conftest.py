"""Shared pytest configuration.

The acceptance suite registers one outcome per numbered criterion; the hook
below prints a PASS/FAIL line for each at the end of the run, so the verdict
survives pytest's output capturing.
"""

from __future__ import annotations

import os
import re

import pytest

from skelgest.neuralnet import common


def needs_two_blas_threads(test):
    """Skip a test that compares results at one and two OpenBLAS threads
    where the comparison cannot be made."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    test = pytest.mark.skipif(
        common._OPENBLAS_THREADS is None,
        reason="numpy links no OpenBLAS, whose thread count skelgest sets",
    )(test)
    return pytest.mark.skipif(
        (cpus or 1) < 2, reason="one CPU: OpenBLAS runs one thread at any setting"
    )(test)


def children_left() -> bool:
    """Whether this process has a child process that it has not waited for,
    running or ended."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Fail a test after which a worker process is still running: a pool
    must be joined before the call that made it returns."""
    yield
    if children_left():
        pytest.fail("a worker process outlived the test")


_ACCEPTANCE_PATTERN = re.compile(r"test_criterion_(\d+)")

# criterion number -> (description, outcome string)
_acceptance_results: dict[int, tuple[str, str]] = {}

# criterion number -> free-form measurement lines to print under the verdict
_acceptance_notes: dict[int, list[str]] = {}


def record_acceptance_note(number: int, note: str) -> None:
    """Attach a measurement line to a criterion's summary output.

    Used for results that must be *reported* rather than asserted (for
    example the LSTM-vs-TCN comparison), so they survive pytest's capture.
    """
    _acceptance_notes.setdefault(number, []).append(note)

ACCEPTANCE_DESCRIPTIONS = {
    1: "gradient fidelity (analytic vs finite differences)",
    2: "smoothing-coefficient oracle equivalence",
    3: "normalization invariance suite",
    4: "windowing contract (exhaustive)",
    5: "reference-table averaging arithmetic",
    6: "one-vs-rest accuracy skew bound",
    7: "end-to-end desk-scale learning",
    8: "pipeline oracle losslessness",
    9: "fold protocol and patient disjointness",
}


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if match is None or report.when != "call":
        return
    number = int(match.group(1))
    description = ACCEPTANCE_DESCRIPTIONS.get(number, "")
    _acceptance_results[number] = (
        description,
        "PASS" if report.passed else "FAIL",
    )


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_acceptance_results):
        description, outcome = _acceptance_results[number]
        terminalreporter.write_line(
            f"acceptance criterion {number} ({description}): {outcome}"
        )
        for note in _acceptance_notes.get(number, []):
            terminalreporter.write_line(f"    {note}")
