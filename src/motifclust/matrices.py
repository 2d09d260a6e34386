"""Count matrices for DNA binding motifs and quantities derived from them.

A motif is a table of aligned-site counts: one row per position, one column
per base in the fixed order A, C, G, T.  Everything downstream (parsing,
clustering, reports) works on these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

BASES = "ACGT"

UNIFORM_BACKGROUND = (0.25, 0.25, 0.25, 0.25)


def _as_count_array(counts) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"counts must be a (width, 4) table, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("count matrix must have width >= 1")
    if arr.dtype.kind not in "biufO":
        raise ValueError(f"counts must be numbers, not {arr.dtype}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError("counts must be finite")
    if arr.dtype.kind not in "iu" and not np.all(np.equal(np.mod(arr, 1), 0)):
        raise ValueError("counts must be integers")
    # range checks before the int64 cast, which would wrap
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    if arr.dtype.kind in "fuO" and np.any(arr >= 2**63):
        raise ValueError("count too large: counts must be below 2^63")
    # row-major whatever the layout given: the parsers hand over transposed views
    arr = arr.astype(np.int64, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CountMatrix:
    """Integer site counts, shape (width, 4), positions x ACGT."""

    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _as_count_array(self.counts))

    @property
    def width(self) -> int:
        return self.counts.shape[0]

    def position_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def has_equal_position_totals(self) -> bool:
        totals = self.position_totals()
        return bool(np.all(totals == totals[0]))

    def core(self, offset: int, width: int) -> np.ndarray:
        """Read-only view of `width` consecutive positions starting at `offset` (0-based)."""
        if offset < 0 or width < 1 or offset + width > self.width:
            raise ValueError(
                f"core [{offset}, {offset + width}) outside matrix of width {self.width}"
            )
        return self.counts[offset : offset + width]

    def __eq__(self, other):
        if not isinstance(other, CountMatrix):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            np.all(self.counts == other.counts)
        )

    def __hash__(self):
        return hash(self.counts.tobytes())


@dataclass(frozen=True)
class MotifRecord:
    """A named count matrix plus optional metadata carried through from input files."""

    id: str
    matrix: CountMatrix
    name: str | None = None
    family: str | None = None
    species: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("motif id must be non-empty")

    @property
    def width(self) -> int:
        return self.matrix.width


@dataclass(frozen=True)
class FrequencyMatrix:
    """Per-position base frequencies, shape (width, 4); each position sums to 1."""

    freqs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.freqs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"freqs must be a (width, 4) table, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("frequencies must be non-negative")
        sums = arr.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"position {bad} frequencies sum to {sums[bad]!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "freqs", arr)

    @property
    def width(self) -> int:
        return self.freqs.shape[0]


def frequency_matrix(m: CountMatrix) -> FrequencyMatrix:
    """Column-normalize counts to frequencies; zero-total positions are an error."""
    totals = m.position_totals()
    if np.any(totals == 0):
        pos = int(np.argmax(totals == 0))
        raise ValueError(f"position {pos} has zero total count; cannot normalize")
    return FrequencyMatrix(m.counts / totals[:, None])


def information_content(column: Sequence[float], theta0=UNIFORM_BACKGROUND) -> float:
    """Information content of one frequency column in bits relative to background.

    Sum over bases of f * log2(f / theta0), with 0 * log 0 = 0.
    """
    f = np.asarray(column, dtype=float)
    t = np.asarray(theta0, dtype=float)
    if f.shape != (4,) or t.shape != (4,):
        raise ValueError("column and theta0 must each hold 4 values")
    nz = f > 0
    return float(np.sum(f[nz] * np.log2(f[nz] / t[nz])))


def information_profile(fm: FrequencyMatrix, theta0=UNIFORM_BACKGROUND) -> np.ndarray:
    """Per-position information content, in bits."""
    return np.array([information_content(fm.freqs[j], theta0) for j in range(fm.width)])


def consensus_string(m: CountMatrix) -> str:
    """Majority base per position; uppercase only when its frequency exceeds 0.75.

    Ties go to the earlier base in A < C < G < T order.  The 0.75 cut is
    strict: a base at exactly 3/4 stays lowercase.
    """
    totals = m.position_totals()
    if np.any(totals == 0):
        pos = int(np.argmax(totals == 0))
        raise ValueError(f"position {pos} has zero total count; no consensus")
    letters = []
    for j in range(m.width):
        col = m.counts[j]
        k = int(np.argmax(col))  # argmax takes the first maximum: A < C < G < T
        frac = col[k] / totals[j]
        letters.append(BASES[k] if frac > 0.75 else BASES[k].lower())
    return "".join(letters)


@dataclass(frozen=True)
class DroppedRecord:
    record: MotifRecord
    reason: str


def filter_min_width(
    records: Iterable[MotifRecord], wmin: int
) -> tuple[list[MotifRecord], list[DroppedRecord]]:
    """Split records into (kept, dropped) by the minimum-width rule."""
    if wmin < 1:
        raise ValueError("wmin must be >= 1")
    kept: list[MotifRecord] = []
    dropped: list[DroppedRecord] = []
    for rec in records:
        if rec.width >= wmin:
            kept.append(rec)
        else:
            dropped.append(
                DroppedRecord(rec, f"width {rec.width} below minimum width {wmin}")
            )
    return kept, dropped


def validate_records(
    records: Iterable[MotifRecord], require_equal_position_totals: bool = False
) -> None:
    """Check the records the sampler and the reports rely on: unique ids and
    no position without counts (and, on request, equal position totals).
    Raises ValueError naming the offender."""
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate motif id {rec.id!r}")
        seen.add(rec.id)
        totals = rec.matrix.position_totals()
        if not totals.all():
            raise ValueError(
                f"motif {rec.id!r} position {int(totals.argmin())} has zero total count"
            )
        if require_equal_position_totals and not rec.matrix.has_equal_position_totals():
            raise ValueError(
                f"motif {rec.id!r} has unequal position totals {totals.tolist()}"
            )
