"""Per-layer metrics from the spans that child.py records in trace mode.

Durations are net of tracing: a span's [t0, t1] less the bookkeeping of
the spans of its thread that finished within it, which child.py records,
and less the calibrated per-span residual the clock reads miss (the
wrapper's call and return) times the number of those spans.  With two
chains on threads the chains also wait for each other's bookkeeping under
the GIL; that is not subtracted, so their figures are approximate.  A
span's self time is its duration minus that of its child spans, less, for
a coordinator span, the part covered by root spans of other threads that
ran while it waited (the chains of the chain pool).  Unless named
otherwise, a module's time is the summed duration of its outermost spans,
so nested calls within one module count once.
"""

from __future__ import annotations

import numpy as np

UNITS = {
    "sampler.assign.ms": "ms",
    "sampler.assign.calls": "count",
    "sampler.assign.candidates": "count",
    "sampler.assign.moved": "ratio",
    "sampler.assign.share": "ratio",
    "kernels.dm_cached.calls": "count",
    "kernels.dm_cached.hit_ratio": "ratio",
    "kernels.dm_cached.ms": "ms",
    "kernels.dm.calls": "count",
    "kernels.dm.cells": "count",
    "sampler.align.ms": "ms",
    "sampler.align.calls": "count",
    "sampler.align.offsets_scored": "count",
    "sampler.align.moved": "ratio",
    "sampler.align.share": "ratio",
    "sampler.width.ms": "ms",
    "sampler.width.calls": "count",
    "sampler.width.widths_scored": "count",
    "sampler.width.moved": "ratio",
    "sampler.width.share": "ratio",
    "sampler.log_joint.ms": "ms",
    "sampler.snapshot.ms": "ms",
    "sampler.iter_ms.p50": "ms",
    "sampler.iter_ms.p95": "ms",
    "sampler.init_ms": "ms",
    "sampler.chain.wall_s": "s",
    "sampler.chain.cpu_s": "s",
    "sampler.chain.wait_s": "s",
    "sampler.ess_log_joint": "count",
    "sampler.ess_n_clusters": "count",
    "summaries.tree.ms": "ms",
    "summaries.report.ms": "ms",
    "summaries.pairwise.ms": "ms",
    "summaries.tsv.ms": "ms",
    "summaries.diagnostics.ms": "ms",
    "traceio.save.ms": "ms",
    "traceio.save.bytes": "bytes",
    "traceio.load.ms": "ms",
    "traceio.load.bytes": "bytes",
    "parsers.ms": "ms",
    "parsers.records": "count",
    "matrices.ms": "ms",
    "cli.self_ms": "ms",
    "tracing.overhead_s": "s",
}

SUMMARY_GROUPS = {
    "tree": ("average_linkage_tree", "newick"),
    "report": ("best_partition_report", "report_text", "export_super_matrices"),
    "pairwise": (
        "pairwise_probabilities",
        "pooled_pairwise_probabilities",
        "max_pairwise_discrepancy",
    ),
    "tsv": (
        "pairwise_tsv",
        "width_intervals_from_snapshots",
        "width_intervals_tsv",
        "ic_table_tsv",
    ),
    "diagnostics": ("diagnostics_report", "diagnostics_json"),
}


class Spans:
    def __init__(self, data, residual_ns: float):
        self.names = [str(n) for n in data["names"]]
        # module of each name id; the extra entry is what parent -1 (a root span) indexes
        self.module = np.array([n.split(".")[0] for n in self.names] + [""])
        self.name = data["name"]
        self.parent = data["parent"]
        self.t0 = data["t0"]
        self.t1 = data["t1"]
        self.residual_ns = residual_ns
        self.depth = data["depth"]
        self.desc = data["desc"]
        self.cum = data["cum"]
        self.x1 = data["x1"]
        self.x2 = data["x2"]
        self.thread = data["thread"]
        self.raw = self.t1 - self.t0
        # tracing time inside [t0, t1]
        self.ovh = data["ovh"] + self.desc * residual_ns
        self.dur = self.raw - self.ovh

    def of(self, qualname: str) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return self.name == self.names.index(qualname)

    def outermost(self, module: str) -> np.ndarray:
        """Spans of `module` whose caller is not in the same module."""
        mine = self.module[self.name] == module
        return mine & (self.module[self.parent] != module)

    def ms(self, mask: np.ndarray) -> float:
        return float(self.dur[mask].sum()) / 1e6


def _mean_known(values: np.ndarray) -> float:
    known = values[values != -1]
    return float(known.mean()) if known.size else 0.0


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_ns(s: Spans, idx: np.ndarray) -> np.ndarray:
    """Duration less the children's, for the spans at `idx`: a span's
    descendants are the `desc` rows of its thread just before it."""
    own = s.dur[idx].astype(float)
    for k, r in enumerate(idx):
        block = np.arange(r - s.desc[r], r)
        own[k] -= s.dur[block[s.depth[block] == s.depth[r] + 1]].sum()
    return own


def cli_self_ms(s: Spans, main_thread: int) -> float:
    cli = (s.module[s.name] == "cli") & (s.thread == main_thread)
    idx = np.flatnonzero(cli)
    own = self_ns(s, idx)
    waited: dict[int, list[tuple[int, int]]] = {}
    for r in np.flatnonzero((s.thread != main_thread) & (s.parent == -1)):
        # the innermost coordinator span that was open while this one ran
        holders = idx[(s.t0[idx] <= s.t0[r]) & (s.t1[idx] >= s.t1[r])]
        if holders.size:
            k = int(holders[np.argmax(s.t0[holders])])
            waited.setdefault(k, []).append((int(s.t0[r]), int(s.t1[r])))
    total = own.sum() - sum(_union_ns(v) for v in waited.values())
    return total / 1e6


def iteration_ms(s: Spans) -> np.ndarray:
    """Iteration lengths: gaps between successive log-joint evaluations of
    one chain (the sampler evaluates it once after init and once per
    iteration), less the tracing time of the spans of that thread that
    end within the gap (`cum` of a row is that of the rows before it)."""
    mask = s.of("sampler.SamplerState.log_joint_fast")
    gaps = []
    for thread in np.unique(s.thread[mask]):
        rows = np.flatnonzero(mask & (s.thread == thread))  # in order of completion
        tracing = s.cum[rows] + rows * s.residual_ns
        gaps.append(np.diff(s.t1[rows]) - np.diff(tracing))
    return np.concatenate(gaps) / 1e6 if gaps else np.zeros(1)


def per_layer(cluster_data, summarize_data, cluster_info: dict, summarize_info: dict) -> dict[str, float]:
    """Metrics of the traced `cluster` process, except trace loading, which
    only `summarize` does.  The infos are the processes' RESULT.json."""
    s = Spans(cluster_data, cluster_info["span_residual_ns"])
    out: dict[str, float] = {}
    run = s.of("sampler.run")
    chain_ms = s.ms(run)
    for key, qual in (
        ("assign", "resample_assignment"),
        ("align", "resample_alignment"),
        ("width", "resample_width"),
    ):
        m = s.of(f"sampler.{qual}")
        out[f"sampler.{key}.ms"] = s.ms(m)
        out[f"sampler.{key}.calls"] = int(m.sum())
        scored = {"assign": "candidates", "align": "offsets_scored", "width": "widths_scored"}[key]
        out[f"sampler.{key}.{scored}"] = _mean_known(s.x1[m])
        out[f"sampler.{key}.moved"] = _mean_known(s.x2[m])
        out[f"sampler.{key}.share"] = s.ms(m) / chain_ms if chain_ms else 0.0
    cached = s.of("kernels.GammaTables.log_dm_matrix_cached")
    out["kernels.dm_cached.calls"] = int(cached.sum())
    out["kernels.dm_cached.hit_ratio"] = float((s.desc[cached] == 0).mean()) if cached.any() else 0.0
    out["kernels.dm_cached.ms"] = s.ms(cached)
    dm = s.of("kernels.GammaTables.log_dm_matrix")
    out["kernels.dm.calls"] = int(dm.sum())
    out["kernels.dm.cells"] = int(s.x1[dm].sum())
    out["sampler.log_joint.ms"] = s.ms(s.of("sampler.SamplerState.log_joint_fast"))
    out["sampler.snapshot.ms"] = s.ms(s.of("sampler.SamplerState.snapshot"))
    iters = iteration_ms(s)
    out["sampler.iter_ms.p50"] = float(np.percentile(iters, 50))
    out["sampler.iter_ms.p95"] = float(np.percentile(iters, 95))
    out["sampler.init_ms"] = s.ms(s.of("sampler.init_state"))
    out["sampler.chain.wall_s"] = chain_ms / 1e3
    # thread CPU of the chain, less its tracing: bookkeeping is CPU work
    out["sampler.chain.cpu_s"] = float((s.x1[run] - s.ovh[run]).sum()) / 1e9
    out["sampler.chain.wait_s"] = out["sampler.chain.wall_s"] - out["sampler.chain.cpu_s"]
    top_summaries = s.outermost("summaries")
    for group, funcs in SUMMARY_GROUPS.items():
        mask = np.zeros_like(top_summaries)
        for f in funcs:
            mask |= s.of(f"summaries.{f}")
        out[f"summaries.{group}.ms"] = s.ms(mask & top_summaries)
    save = s.of("traceio.save_trace")
    out["traceio.save.ms"] = s.ms(save)
    out["traceio.save.bytes"] = int(s.x1[save].sum())
    loads = Spans(summarize_data, summarize_info["span_residual_ns"])
    load = loads.of("traceio.load_trace")
    out["traceio.load.ms"] = loads.ms(load)
    out["traceio.load.bytes"] = int(loads.x1[load].sum())
    parsers = s.outermost("parsers")
    out["parsers.ms"] = s.ms(parsers)
    out["parsers.records"] = int(s.x1[parsers].sum())
    out["matrices.ms"] = s.ms(s.outermost("matrices"))
    out["cli.self_ms"] = cli_self_ms(s, cluster_info["main_thread"])
    return out
