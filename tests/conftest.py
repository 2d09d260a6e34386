"""Shared fixtures: a hand-checked reference matrix and tiny builders."""

import json
import sys

import numpy as np
import pytest

from motifclust import CountMatrix, MotifRecord
from motifclust.synthetic import PlantedTruth, random_profile, sample_motif

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


def shifted_core_collection(
    n_families: int = 5,
    anchors_per_family: int = 3,
    core_width: int = 8,
    length: int = 12,
    sites: int = 20,
    peak: float = 0.9,
    seed: int = 0,
    shifts: tuple[int, ...] | None = None,
    id_prefix: str = "shift",
) -> PlantedTruth:
    """Families of same-profile motifs where one member per family carries
    the core at a known shift.

    Each family holds `anchors_per_family` trimmed members whose matrix is
    exactly the core (no flank slack, so a single feasible placement) plus
    one full-length member with the core planted `shifts[f]` columns in.
    The trimmed members pin the family's absolute frame; the full-length
    member's offset against that frame is the planted shift.  By default
    shift f equals the family index, covering 0 .. n_families-1.
    """
    slack = length - core_width
    if shifts is None:
        shifts = tuple(range(n_families))
    if len(shifts) != n_families:
        raise ValueError("shifts must list one value per family")
    if any(s < 0 or s > slack for s in shifts):
        raise ValueError("shifts must keep the core inside the matrix")
    rng = np.random.default_rng(seed)
    records: list[MotifRecord] = []
    z_vals: list[int] = []
    offsets: list[int] = []
    profiles: list[np.ndarray] = []
    for f in range(n_families):
        profile = random_profile(core_width, rng, peak)
        profiles.append(profile)
        for k in range(anchors_per_family):
            rows = sample_motif(profile, core_width, 0, sites, rng)
            records.append(
                MotifRecord(id=f"{id_prefix}_f{f}a{k}", matrix=CountMatrix(rows))
            )
            z_vals.append(f)
            offsets.append(0)
        rows = sample_motif(profile, length, shifts[f], sites, rng)
        records.append(MotifRecord(id=f"{id_prefix}_f{f}s", matrix=CountMatrix(rows)))
        z_vals.append(f)
        offsets.append(shifts[f])
    return PlantedTruth(
        records=records,
        z=np.asarray(z_vals, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        profiles=profiles,
        core_width=core_width,
    )
