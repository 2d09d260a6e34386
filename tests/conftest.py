"""Shared fixtures: a hand-checked reference matrix and tiny builders."""

import json
import sys

import numpy as np
import pytest

from motifclust import CountMatrix, MotifRecord

# Broad-complex matrix MA0011 (width 8, every position totals 12 sites).
MA0011_ROWS = {
    "A": [3, 5, 0, 0, 12, 1, 2, 1],
    "C": [1, 2, 10, 1, 0, 1, 0, 2],
    "G": [1, 1, 0, 0, 0, 2, 1, 1],
    "T": [7, 4, 2, 11, 0, 8, 9, 8],
}

MA0011_JASPAR = """\
>MA0011 br_Z1
A [  3  5  0  0 12  1  2  1 ]
C [  1  2 10  1  0  1  0  2 ]
G [  1  1  0  0  0  2  1  1 ]
T [  7  4  2 11  0  8  9  8 ]
"""


def records_doc(*entries: dict) -> str:
    """A motifclust-records JSON document; each entry's counts default to MA0011's."""
    counts = [MA0011_ROWS[b] for b in "ACGT"]
    return json.dumps({"format": "motifclust-records", "version": 1,
                       "records": [{"counts": counts, **e} for e in entries]})


def ma0011_counts() -> np.ndarray:
    return np.array(
        [MA0011_ROWS[b] for b in "ACGT"], dtype=np.int64
    ).T  # (width, 4) positions x ACGT


@pytest.fixture
def ma0011() -> CountMatrix:
    return CountMatrix(ma0011_counts())


@pytest.fixture
def ma0011_record(ma0011) -> MotifRecord:
    return MotifRecord(id="MA0011", matrix=ma0011, name="br_Z1")


def record_from_rows(rec_id: str, rows: dict[str, list[int]], **meta) -> MotifRecord:
    counts = np.array([rows[b] for b in "ACGT"], dtype=np.int64).T
    return MotifRecord(id=rec_id, matrix=CountMatrix(counts), **meta)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines as one block at the end of a run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, verdict in sorted(results):
        terminalreporter.write_line(f"criterion {number} ({label}): {verdict}")
