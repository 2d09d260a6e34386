"""Output checks for one finished `motifclust` run directory.

Everything here re-derives what it compares against from the benchmark's
own inputs, with numpy and scipy only: the program's readers and kernels
are not trusted to check themselves.  Each check returns a list of
problems; an empty list means the run passed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp

from workloads import Collection

REL_TOL = 1e-9
# files that `summarize --level L` rewrites differently when L differs from
# the level `cluster` used (0.95)
LEVEL_DEPENDENT = {"width_intervals.tsv", "diagnostics.json"}


def digest_set(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


@dataclass
class Trace:
    ids: list[str]
    burn_in: int
    hyper: dict
    log_joint: np.ndarray
    n_clusters: np.ndarray
    best: dict


def read_trace(path: Path) -> Trace:
    raw = path.read_bytes()
    if path.suffix == ".gz":
        raw = gzip.decompress(raw)
    records = [json.loads(line) for line in raw.decode("ascii").splitlines() if line]
    header = records[0]
    iters = [r for r in records if r["kind"] == "iter"]
    best = [r for r in records if r["kind"] == "best"]
    if header.get("kind") != "header" or len(best) != 1:
        raise ValueError(f"{path.name}: no header or no single best record")
    return Trace(
        ids=header["ids"],
        burn_in=header["config"]["burn_in"],
        hyper=header["hyper"],
        log_joint=np.array([r["log_joint"] for r in iters]),
        n_clusters=np.array([r["n_clusters"] for r in iters]),
        best=best[0],
    )


def log_joint(snap: dict, mats: list[np.ndarray], hyper: dict) -> float:
    """Joint log density of a snapshot, from the model definition: the
    partition prior, Dirichlet-multinomial core columns, the width prior
    renormalised over each cluster's feasible widths, and the background."""
    alpha, b, lam, wmin = hyper["alpha"], hyper["b"], hyper["lam"], hyper["wmin"]
    z, offsets, widths = snap["z"], snap["offsets"], snap["widths"]
    n = len(z)
    if hyper["prior_kind"] == "dp":
        sizes = np.bincount(z)
        lp = len(sizes) * np.log(b) + gammaln(sizes).sum() - np.log(b + np.arange(n)).sum()
    else:
        lp, seen = 0.0, set()
        for lab in z:
            lp += -np.log(b + len(seen)) + (0.0 if lab in seen else np.log(b))
            seen.add(lab)
    column_const = gammaln(4 * alpha) - 4 * gammaln(alpha)
    background = np.zeros(4)
    for lab, w in enumerate(widths):
        members = [i for i in range(n) if z[i] == lab]
        core = sum(mats[i][offsets[i] : offsets[i] + w] for i in members)
        for i in members:
            background += mats[i].sum(axis=0) - mats[i][offsets[i] : offsets[i] + w].sum(axis=0)
        lp += (
            w * column_const
            + gammaln(core + alpha).sum()
            - gammaln(core.sum(axis=1) + 4 * alpha).sum()
        )
        support = np.arange(wmin, min(len(mats[i]) - offsets[i] for i in members) + 1)
        raw = support * np.log(lam) - lam - gammaln(support)
        lp += raw[w - wmin] - logsumexp(raw)
    return float(lp + background @ np.log(hyper["theta0"]))


def pairwise(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    ids = lines[0].split("\t")[1:]
    p = np.array([[float(x) for x in line.split("\t")[1:]] for line in lines[1:]])
    return ids, p


def families_cocluster(out: Path, traces: list[Trace], col: Collection) -> list[str]:
    ids, p = pairwise(out / "pairwise.tsv")
    index = {rec_id: k for k, rec_id in enumerate(ids)}
    problems = []
    for family in col.groups:
        k = [index[m] for m in family]
        if p[np.ix_(k, k)].min() < 0.5:
            problems.append(f"family {family} does not co-cluster in pairwise.tsv")
    return problems


def groups_separate(out: Path, traces: list[Trace], col: Collection) -> list[str]:
    best = max(range(len(traces)), key=lambda k: (traces[k].best["log_joint"], -k))
    trace = traces[best]
    group_of = {m: g for g, members in enumerate(col.groups) for m in members}
    mixed: dict[int, set[int]] = {}
    for rec_id, lab in zip(trace.ids, trace.best["z"]):
        mixed.setdefault(lab, set()).add(group_of[rec_id])
    return [
        f"best partition cluster {lab} mixes planted groups {sorted(g)}"
        for lab, g in mixed.items()
        if len(g) > 1
    ]


def check_cluster(out: Path, col: Collection, group_check) -> tuple[list[str], list[Trace]]:
    """Manifest digests, best-snapshot log joints and the planted groups."""
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    for entry in manifest["inputs"]:
        if hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest() != entry["sha256"]:
            problems.append(f"input digest mismatch: {entry['path']}")
    files = digest_set(out)
    for name, digest in manifest["digests"].items():
        if files.get(name) != digest:
            problems.append(f"manifest digest mismatch: {name}")
    traces = [read_trace(out / name) for name in manifest["outputs"]["traces"]]
    for k, trace in enumerate(traces):
        mats = [col.counts[rec_id] for rec_id in trace.ids]
        want = log_joint(trace.best, mats, trace.hyper)
        got = trace.best["log_joint"]
        if abs(want - got) > REL_TOL * max(1.0, abs(want)):
            problems.append(f"chain {k}: best log joint {got!r} != recomputed {want!r}")
    problems += group_check(out, traces, col)
    return problems, traces


def check_summarize(before: dict[str, str], after: dict[str, str], same_level: bool) -> list[str]:
    """`summarize` must regenerate every summary file byte for byte, except
    those that depend on a changed interval level."""
    return [
        f"summarize changed {name}"
        for name, digest in before.items()
        if (same_level or name not in LEVEL_DEPENDENT) and after.get(name) != digest
    ]
