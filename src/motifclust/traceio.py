"""Chain trace persistence.

A trace file is JSON lines, one record per line, so a running chain can
append as it goes and a partial file is still readable up to the last
complete line.  Record kinds:

    header    format name, version, motif ids, run settings, model
              hyperparameters, and the initial-state snapshot
    iter      per-iteration log joint density and cluster count
    snapshot  one thinned post-burn-in state (labels, offsets, widths)
    best      the highest-density post-burn-in state; always the last
              record, and written exactly once

Paths ending in ".gz" select the compact variant: the identical byte
stream, gzip-compressed with a zeroed timestamp so reruns stay
byte-identical; `gunzip -c` turns a compact file back into plain text.
Files are written through `atomic_writer`, so a failed write never leaves a
partial file under the final name.  All offsets are 0-based.
"""

from __future__ import annotations

import gzip
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .kernels import Hyperparameters
from .sampler import RunConfig, RunTrace, Snapshot

TRACE_FORMAT = "motif-cluster-trace"
TRACE_VERSION = 1


class TraceFormatError(ValueError):
    """Raised when a trace file is not something this version can read."""


def settings_from(cls, data: dict):
    """A settings dataclass (Hyperparameters, RunConfig) from its
    `dataclasses.asdict` form as JSON gives it back; every field must be
    present, other keys are ignored."""
    return cls(**{f.name: data[f.name] for f in fields(cls)})


def _snapshot_dict(snap: Snapshot) -> dict:
    return {
        "iteration": int(snap.iteration),
        "log_joint": float(snap.log_joint),
        "z": [int(x) for x in snap.z],
        "offsets": [int(x) for x in snap.offsets],
        "widths": [int(x) for x in snap.widths],
    }


def _snapshot_from(rec: dict) -> Snapshot:
    return Snapshot(
        iteration=int(rec["iteration"]),
        log_joint=float(rec["log_joint"]),
        z=np.asarray(rec["z"], dtype=np.int64),
        offsets=np.asarray(rec["offsets"], dtype=np.int64),
        widths=np.asarray(rec["widths"], dtype=np.int64),
    )


def trace_lines(trace: RunTrace):
    """Yield the file's lines (without newlines) for a finished run."""
    header = {
        "kind": "header",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "ids": list(trace.ids),
        "config": asdict(trace.config),
        "hyper": asdict(trace.hyper),
        "initial": _snapshot_dict(trace.initial),
    }
    yield json.dumps(header, separators=(",", ":"))
    for t in range(len(trace.log_joint_series)):
        rec = {
            "kind": "iter",
            "t": t + 1,
            "log_joint": float(trace.log_joint_series[t]),
            "n_clusters": int(trace.n_clusters_series[t]),
        }
        yield json.dumps(rec, separators=(",", ":"))
    for snap in trace.snapshots:
        rec = {"kind": "snapshot", **_snapshot_dict(snap)}
        yield json.dumps(rec, separators=(",", ":"))
    yield json.dumps(
        {"kind": "best", **_snapshot_dict(trace.best)}, separators=(",", ":")
    )


def trace_bytes(trace: RunTrace) -> bytes:
    """The plain-text file content, for digesting without touching disk."""
    return ("\n".join(trace_lines(trace)) + "\n").encode("ascii")


@contextmanager
def atomic_writer(path: Path):
    """Binary handle on a temp file beside `path` (its name plus ".tmp")
    that replaces `path` once the block completes; if the block raises, the
    temp file is removed and `path` keeps its previous content."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_trace(trace: RunTrace, path: str | Path) -> Path:
    """Write a finished run to `path`; ".gz" suffix selects compression."""
    path = Path(path)
    payload = trace_bytes(trace)
    with atomic_writer(path) as raw:
        if path.suffix == ".gz":
            # zeroed mtime and blank filename keep the bytes identical
            # across reruns and across output locations
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(payload)
        else:
            raw.write(payload)
    return path


def _read_text(path: Path) -> str:
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="ascii") as fh:
            return fh.read()
    return path.read_text(encoding="ascii")


def load_trace(path: str | Path) -> RunTrace:
    """Read a trace file back into a RunTrace.

    Fails with TraceFormatError on a missing or foreign header, an
    unsupported version, a missing or repeated iteration record, a record
    of unknown kind, a repeated best record or any record after it, or a
    truncated file (no best record).
    """
    lines = [line for line in _read_text(Path(path)).splitlines() if line]
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("kind") != "header" or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(f"{path}: not a {TRACE_FORMAT} file")
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"{path}: version {header.get('version')!r} not supported "
            f"(this reader handles version {TRACE_VERSION})"
        )
    config = settings_from(RunConfig, header["config"])
    hyper = settings_from(Hyperparameters, header["hyper"])
    log_joint = np.empty(config.iterations)
    n_clusters = np.empty(config.iterations, dtype=np.int64)
    seen = np.zeros(config.iterations, dtype=bool)
    snapshots: list[Snapshot] = []
    best: Snapshot | None = None
    for line in lines[1:]:
        rec = json.loads(line)
        kind = rec.get("kind")
        if kind not in ("iter", "snapshot", "best"):
            raise TraceFormatError(f"{path}: unknown record kind {kind!r}")
        if best is not None:
            raise TraceFormatError(
                f"{path}: repeated best record"
                if kind == "best"
                else f"{path}: {kind} record after the best record"
            )
        if kind == "iter":
            t = rec["t"]
            if not 1 <= t <= config.iterations:
                raise TraceFormatError(f"{path}: iteration {t} out of range")
            if seen[t - 1]:
                raise TraceFormatError(f"{path}: repeated iteration {t}")
            seen[t - 1] = True
            log_joint[t - 1] = rec["log_joint"]
            n_clusters[t - 1] = rec["n_clusters"]
        elif kind == "snapshot":
            snapshots.append(_snapshot_from(rec))
        else:
            best = _snapshot_from(rec)
    if not seen.all():
        raise TraceFormatError(
            f"{path}: {int(seen.sum())} iteration records, expected {config.iterations}"
        )
    if best is None:
        raise TraceFormatError(f"{path}: truncated file, no best record")
    return RunTrace(
        ids=list(header["ids"]),
        config=config,
        hyper=hyper,
        initial=_snapshot_from(header["initial"]),
        log_joint_series=log_joint,
        n_clusters_series=n_clusters,
        snapshots=snapshots,
        best=best,
    )
