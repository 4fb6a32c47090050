"""Shared fixtures plus the acceptance-criteria terminal summary.

Each test_criterion_N function in test_acceptance.py gets one
"ACCEPTANCE N: PASS/FAIL - <title>" line at the end of the run.
"""

from dataclasses import dataclass

import pytest

from numsemi import (
    Classification,
    ClosedForm3,
    Generators,
    RelationMatrix,
    classify,
    closed_form,
    relation_matrix,
    symmetric_closed,
    validate_generators,
)
from numsemi.errors import ValidationError
from oracle import gap_set_bitmask

_TITLES = {
    1: "golden examples reproduce exactly",
    2: "uniform-diagonal scan tables at d3_max=30",
    3: "power-bound falsifications and family closed form",
    4: "oracle-equivalence sweep over all triples with d3 <= 60",
    5: "property suites with zero violations",
    6: "structural numerator checks",
}
_RESULTS = {}
_DETAILS = {}


@pytest.fixture
def acceptance():
    """Recorder for a human-readable detail string per criterion."""
    def record(n: int, detail: str = ""):
        _DETAILS[n] = detail
    return record


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    try:
        n = int(name.split("_")[2])
    except (IndexError, ValueError):
        return
    if report.when == "call":
        _RESULTS[n] = "PASS" if report.passed else "FAIL"
    elif not report.passed:  # setup/teardown error counts as a failure
        _RESULTS.setdefault(n, "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_RESULTS):
        line = f"ACCEPTANCE {n}: {_RESULTS[n]} - {_TITLES.get(n, '?')}"
        if _DETAILS.get(n):
            line += f" ({_DETAILS[n]})"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    g: Generators
    A: RelationMatrix
    cls: Classification
    cf: ClosedForm3


def valid_triples(d3_max: int):
    out = []
    for d3 in range(5, d3_max + 1):
        for d2 in range(4, d3):
            for d1 in range(3, d2):
                try:
                    out.append(validate_generators((d1, d2, d3)))
                except ValidationError:
                    continue
    return out


@pytest.fixture(scope="session")
def sweep60():
    """Every validated triple with d3 <= 60, with matrix and closed form."""
    entries = []
    for g in valid_triples(60):
        A = relation_matrix(g)
        cls = classify(g, A, cross_check=False)
        cf = symmetric_closed(g, A, cls) if cls.symmetric else closed_form(g, A, cls)
        entries.append(SweepEntry(g, A, cls, cf))
    return entries


@pytest.fixture(scope="session")
def sweep30_gaps():
    """d3 <= 30 triples with their bitmask-oracle gap sets."""
    entries = []
    for g in valid_triples(30):
        A = relation_matrix(g)
        cls = classify(g, A, cross_check=False)
        cf = symmetric_closed(g, A, cls) if cls.symmetric else closed_form(g, A, cls)
        entries.append((SweepEntry(g, A, cls, cf), gap_set_bitmask(g)))
    return entries
