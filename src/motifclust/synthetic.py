"""Synthetic count-matrix generators with known ground truth.

Motifs are built column by column: core columns draw from a shared
per-group frequency profile, flank columns from the background, all as
multinomial counts with a fixed number of sites so position totals are
equal within each matrix.  The returned truth object records the planted
partition, core offsets and profiles for recovery checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import CountMatrix, MotifRecord, UNIFORM_BACKGROUND


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth behind a synthetic collection."""

    records: list[MotifRecord]
    z: np.ndarray
    offsets: np.ndarray
    profiles: list[np.ndarray]
    core_width: int

    def group_members(self, g: int) -> list[int]:
        return [i for i in range(len(self.records)) if int(self.z[i]) == g]


def random_profile(
    width: int, rng: np.random.Generator, peak: float = 0.85
) -> np.ndarray:
    """Per-column frequency profile with one dominant base per position."""
    if not 0.25 < peak < 1:
        raise ValueError("peak must lie in (0.25, 1)")
    rest = (1.0 - peak) / 3.0
    profile = np.full((width, 4), rest)
    for j in range(width):
        profile[j, int(rng.integers(0, 4))] = peak
    return profile


def sample_motif(
    profile: np.ndarray,
    length: int,
    offset: int,
    sites: int,
    rng: np.random.Generator,
    theta0=UNIFORM_BACKGROUND,
) -> np.ndarray:
    """One count matrix: core columns follow the profile, flanks follow
    the background; every column totals `sites`."""
    width = profile.shape[0]
    if offset < 0 or offset + width > length:
        raise ValueError(f"core [{offset}, {offset + width}) outside length {length}")
    rows = np.empty((length, 4), dtype=np.int64)
    bg = np.asarray(theta0, dtype=float)
    for j in range(length):
        p = profile[j - offset] if offset <= j < offset + width else bg
        rows[j] = rng.multinomial(sites, p)
    return rows


def planted_motif_groups(
    n_groups: int = 2,
    members: int = 10,
    core_width: int = 8,
    length: int = 12,
    sites: int = 20,
    peak: float = 0.85,
    seed: int = 0,
    id_prefix: str = "syn",
    core_offset: int | None = None,
) -> PlantedTruth:
    """Collection of `n_groups` groups of noisy motifs sharing one core
    profile per group.

    With `core_offset=None` each member gets a random feasible offset.
    Passing a fixed offset plants every core at the same position, which
    keeps the collection free of relative shifts; recovery runs then only
    have to separate the groups and trim the flanks.
    """
    if core_width > length:
        raise ValueError("core_width cannot exceed length")
    slack = length - core_width
    if core_offset is not None and not 0 <= core_offset <= slack:
        raise ValueError("core_offset must keep the core inside the matrix")
    rng = np.random.default_rng(seed)
    profiles = [random_profile(core_width, rng, peak) for _ in range(n_groups)]
    records: list[MotifRecord] = []
    z = np.empty(n_groups * members, dtype=np.int64)
    offsets = np.empty(n_groups * members, dtype=np.int64)
    k = 0
    for g in range(n_groups):
        for _ in range(members):
            o = int(rng.integers(0, slack + 1)) if core_offset is None else core_offset
            rows = sample_motif(profiles[g], length, o, sites, rng)
            records.append(
                MotifRecord(id=f"{id_prefix}_g{g}_m{k}", matrix=CountMatrix(rows))
            )
            z[k] = g
            offsets[k] = o
            k += 1
    return PlantedTruth(
        records=records,
        z=z,
        offsets=offsets,
        profiles=profiles,
        core_width=core_width,
    )
