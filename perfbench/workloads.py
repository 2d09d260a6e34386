"""Seeded input collections for the benchmark, with their planted truth.

Written with plain numpy and an own JASPAR writer so that a change to the
program's synthetic helpers or writers cannot change what is measured.
Counts are 20 sites per column, as in the criterion-9 stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SITES = 20
# shifted_groups: planted groups, members per group, matrix length, core width
GROUPS, MEMBERS, LENGTH, CORE = 5, 6, 36, 8


@dataclass(frozen=True)
class Collection:
    """Generated matrices (id -> (width, 4) counts, in file order) and the
    planted groups that a correct run must recover."""

    counts: dict[str, np.ndarray]
    groups: list[list[str]]


def jaspar_text(counts: dict[str, np.ndarray]) -> str:
    lines = []
    for rec_id, mat in counts.items():
        lines.append(f">{rec_id}")
        for k, base in enumerate("ACGT"):
            lines.append(f"{base} [ " + " ".join(str(int(v)) for v in mat[:, k]) + " ]")
    return "\n".join(lines) + "\n"


def _pcm(profile: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return np.stack([rng.multinomial(SITES, p) for p in profile]).astype(np.int64)


def motif_collection(n_random: int, seed: int) -> Collection:
    """Criterion-9 recipe: `n_random` random PCMs of width 6-14, two planted
    families of three width-8 members, and five PCMs narrower than the
    default minimum width of 6, shuffled."""
    rng = np.random.default_rng([seed, n_random])
    items = []
    for i in range(n_random):
        profile = rng.dirichlet(np.full(4, 0.5), size=int(rng.integers(6, 15)))
        items.append((f"RND{i:04d}", _pcm(profile, rng)))
    groups = []
    for g in range(2):
        profile = rng.dirichlet(np.full(4, 0.3), size=8)
        members = [f"FAM{g}{k}" for k in range(3)]
        items.extend((m, _pcm(profile, rng)) for m in members)
        groups.append(members)
    for i in range(5):
        profile = rng.dirichlet(np.full(4, 0.5), size=int(rng.integers(3, 6)))
        items.append((f"NARROW{i}", _pcm(profile, rng)))
    order = rng.permutation(len(items))
    return Collection(counts=dict(items[k] for k in order), groups=groups)


def shifted_groups(seed: int) -> Collection:
    """Planted groups whose members share a width-CORE profile (one
    dominant base per position) placed at a random offset in a
    LENGTH-column matrix; flanks are uniform background."""
    rng = np.random.default_rng([seed, 7])
    counts = {}
    groups = []
    for g in range(GROUPS):
        peak = np.full((CORE, 4), 0.1 / 3)
        peak[np.arange(CORE), rng.integers(0, 4, size=CORE)] = 0.9
        ids = []
        for k in range(MEMBERS):
            profile = np.full((LENGTH, 4), 0.25)
            offset = int(rng.integers(0, LENGTH - CORE + 1))
            profile[offset : offset + CORE] = peak
            rec_id = f"G{g}M{k}"
            counts[rec_id] = _pcm(profile, rng)
            ids.append(rec_id)
        groups.append(ids)
    return Collection(counts=counts, groups=groups)
