"""Command-line front end.

Three subcommands: `cluster` runs the full pipeline (parse, filter,
sample, summarize), `summarize` regenerates summary files from persisted
traces without re-sampling, and `prior-sim` draws partitions from the
partition priors alone and writes histogram tables.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 runtime
error.  The output directory comes from --out or the MOTIFCLUST_OUT
environment variable; every file the tool writes lands inside it.  A
manifest.json is written before sampling starts (inputs, digests,
resolved settings, derived chain seeds) and rewritten afterwards with the
digests of all outputs, so a finished directory is self-describing and
reruns can be verified byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .kernels import Hyperparameters, PriorKind
from .matrices import MotifRecord, filter_min_width, validate_records
from .parsers import (
    MotifParseError,
    parse_jaspar,
    parse_transfac,
    records_from_json,
    records_to_json,
    sniff_format,
)
from .priorsim import PriorSimConfig, run_prior_sim, stats_to_tsv
from .sampler import RunConfig, RunTrace, run
from .summaries import (
    average_linkage_tree,
    best_partition_report,
    diagnostics_report,
    export_super_matrices,
    ic_table_tsv,
    newick,
    pairwise_probabilities,
    pairwise_tsv,
    pooled_pairwise_probabilities,
    report_text,
    width_intervals_from_snapshots,
    width_intervals_tsv,
)
from .traceio import load_trace, save_trace

ENV_OUT = "MOTIFCLUST_OUT"
MANIFEST_NAME = "manifest.json"
PARSED_NAME = "parsed_records.json"


class UsageError(Exception):
    """Bad flag values or combinations (exit 1)."""


class InputError(Exception):
    """Unreadable or malformed motif input (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems are exit 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _theta0(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated values")
    return tuple(float(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="motifclust", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"motifclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cluster = sub.add_parser("cluster", help="parse, sample and summarize")
    cluster.add_argument("--input", action="append", required=True,
                         help="motif file; repeatable")
    cluster.add_argument("--format", choices=["auto", "jaspar", "transfac", "json"],
                         default="auto")
    cluster.add_argument("--alpha", type=float, default=1.0)
    cluster.add_argument("--b", type=float, default=1.0)
    cluster.add_argument("--lambda", dest="lam", type=float, default=8.0)
    cluster.add_argument("--min-width", type=_positive_int, default=6)
    cluster.add_argument("--prior", choices=["dp", "uniform"], default="dp")
    cluster.add_argument("--theta0", type=_theta0, default=(0.25, 0.25, 0.25, 0.25),
                         metavar="A,C,G,T")
    cluster.add_argument("--iters", type=_positive_int, default=10000)
    cluster.add_argument("--burn-in", type=_nonnegative_int, default=None)
    cluster.add_argument("--align-every", type=_positive_int, default=10)
    cluster.add_argument("--thin", type=_positive_int, default=1)
    cluster.add_argument("--chains", type=_positive_int, default=1)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--out", default=None,
                         help=f"output directory (or ${ENV_OUT})")
    cluster.add_argument("--strict-columns", action="store_true",
                         help="reject motifs whose position totals differ")
    cluster.add_argument("--trace-gz", action="store_true",
                         help="write compressed traces (.jsonl.gz)")
    cluster.set_defaults(func=cmd_cluster)

    summarize = sub.add_parser("summarize",
                               help="regenerate summaries from saved traces")
    summarize.add_argument("--out", default=None,
                           help=f"run directory (or ${ENV_OUT})")
    summarize.add_argument("--level", type=float, default=0.95,
                           help="width-interval level")
    summarize.set_defaults(func=cmd_summarize)

    prior_sim = sub.add_parser("prior-sim",
                               help="draw partitions from the priors alone")
    prior_sim.add_argument("--n", type=_positive_int, required=True)
    prior_sim.add_argument("--b", type=float, default=1.0)
    prior_sim.add_argument("--replicates", type=_positive_int, required=True)
    prior_sim.add_argument("--prior", choices=["dp", "uniform", "both"],
                           default="both")
    prior_sim.add_argument("--seed", type=int, default=0)
    prior_sim.add_argument("--out", default=None,
                           help=f"output directory (or ${ENV_OUT})")
    prior_sim.set_defaults(func=cmd_prior_sim)
    return parser


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT)
    if not out:
        raise UsageError(f"no output directory: pass --out or set ${ENV_OUT}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, text: str) -> str:
    data = text.encode()
    path.write_bytes(data)
    return _sha256(data)


def _manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ cluster


def _read_inputs(args) -> tuple[list[MotifRecord], list[dict], list[str]]:
    records: list[MotifRecord] = []
    entries: list[dict] = []
    warnings: list[str] = []
    parse_by = {"jaspar": parse_jaspar, "transfac": parse_transfac}
    for raw in args.input:
        path = Path(raw)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InputError(f"cannot read input {path}: {exc}")
        fmt = args.format if args.format != "auto" else sniff_format(text)
        try:
            if fmt == "json":
                recs = records_from_json(text)
            else:
                recs = parse_by[fmt](text, warnings=warnings)
        except (MotifParseError, ValueError) as exc:
            raise InputError(f"{path}: {exc}")
        entries.append(
            {
                "path": str(path.resolve()),
                "format": fmt,
                "sha256": _sha256(text.encode()),
                "records": len(recs),
            }
        )
        records.extend(recs)
    try:
        validate_records(records, require_equal_position_totals=args.strict_columns)
    except ValueError as exc:
        raise InputError(str(exc))
    return records, entries, warnings


def _chain_seeds(seed: int, chains: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(chains)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]


def _best_chain(traces: Sequence[RunTrace]) -> int:
    best = 0
    for k in range(1, len(traces)):
        if traces[k].best.log_joint > traces[best].best.log_joint:
            best = k
    return best


def _write_summaries(
    out: Path,
    traces: list[RunTrace],
    records: list[MotifRecord],
    hyper: Hyperparameters,
    level: float,
) -> dict[str, str]:
    """Write every summary file; returns filename -> sha256."""
    digests: dict[str, str] = {}
    per_chain = [pairwise_probabilities(t) for t in traces]
    pooled = pooled_pairwise_probabilities(traces)
    digests["pairwise.tsv"] = _write(out / "pairwise.tsv", pairwise_tsv(pooled))
    if len(traces) > 1:
        for k, pm in enumerate(per_chain):
            name = f"pairwise_chain{k:02d}.tsv"
            digests[name] = _write(out / name, pairwise_tsv(pm))
    if len(records) >= 2:
        tree = average_linkage_tree(pooled.distances(), list(pooled.ids))
        digests["tree.nwk"] = _write(out / "tree.nwk", newick(tree) + "\n")
    best_idx = _best_chain(traces)
    reports = best_partition_report(
        traces[best_idx], records, hyper, include_singletons=True
    )
    digests["report.txt"] = _write(
        out / "report.txt", report_text(reports, n_motifs=len(records))
    )
    digests["supermatrices.jaspar"] = _write(
        out / "supermatrices.jaspar", export_super_matrices(reports)
    )
    snapshots = [s for t in traces for s in t.snapshots]
    intervals = width_intervals_from_snapshots(traces[0].ids, snapshots, level)
    digests["width_intervals.tsv"] = _write(
        out / "width_intervals.tsv", width_intervals_tsv(intervals)
    )
    digests["ic_table.tsv"] = _write(
        out / "ic_table.tsv", ic_table_tsv(reports, hyper.theta0)
    )
    diag = diagnostics_report(traces)
    diag["best_chain"] = best_idx
    diag["width_interval_level"] = level
    diag["single_point_width_fraction"] = intervals.single_point_fraction()
    digests["diagnostics.json"] = _write(
        out / "diagnostics.json", json.dumps(diag, indent=2, sort_keys=True) + "\n"
    )
    return digests


def cmd_cluster(args) -> int:
    out = _resolve_out(args)
    try:
        hyper = Hyperparameters(
            alpha=args.alpha,
            b=args.b,
            lam=args.lam,
            wmin=args.min_width,
            theta0=args.theta0,
            prior_kind=PriorKind(args.prior),
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    records, input_entries, warnings = _read_inputs(args)
    if not records:
        raise InputError("inputs contain no motif records")
    kept, dropped = filter_min_width(records, hyper.wmin)
    if not kept:
        raise InputError(
            f"all {len(records)} motifs are narrower than min width {hyper.wmin}"
        )
    chain_seeds = _chain_seeds(args.seed, args.chains)
    try:
        configs = [
            RunConfig(
                iterations=args.iters,
                burn_in=args.burn_in,
                align_every=args.align_every,
                thin=args.thin,
                seed=chain_seed,
            )
            for chain_seed in chain_seeds
        ]
    except ValueError as exc:
        raise UsageError(str(exc))

    trace_suffix = ".jsonl.gz" if args.trace_gz else ".jsonl"
    trace_names = [f"trace_chain{k:02d}{trace_suffix}" for k in range(args.chains)]
    manifest = {
        "tool": "motifclust",
        "version": __version__,
        "command": "cluster",
        "hyper": {
            "alpha": hyper.alpha,
            "b": hyper.b,
            "lam": hyper.lam,
            "wmin": hyper.wmin,
            "theta0": list(hyper.theta0),
            "prior_kind": hyper.prior_kind.value,
        },
        "run": {
            "iterations": args.iters,
            "burn_in": configs[0].burn_in,
            "align_every": args.align_every,
            "thin": args.thin,
            "chains": args.chains,
            "seed": args.seed,
            "chain_seeds": chain_seeds,
            "trace_compression": bool(args.trace_gz),
            "init_mode": configs[0].init_mode,
        },
        "inputs": input_entries,
        "records": {
            "parsed": len(records),
            "retained": len(kept),
            "ids": [r.id for r in kept],
            "dropped": [
                {"id": d.record.id, "reason": d.reason} for d in dropped
            ],
            "warnings": warnings,
        },
        "outputs": {
            "traces": trace_names,
            "parsed_records": PARSED_NAME,
        },
        "digests": {},
    }
    digests = {PARSED_NAME: _write(out / PARSED_NAME, records_to_json(kept))}
    manifest["digests"] = dict(sorted(digests.items()))
    _write(out / MANIFEST_NAME, _manifest_json(manifest))  # pre-run manifest

    with ThreadPoolExecutor(max_workers=args.chains) as pool:
        traces = list(pool.map(lambda cfg: run(kept, hyper, cfg), configs))
    for name, trace in zip(trace_names, traces):
        save_trace(trace, out / name)
        digests[name] = _sha256((out / name).read_bytes())

    digests.update(_write_summaries(out, traces, kept, hyper, level=0.95))
    manifest["digests"] = dict(sorted(digests.items()))
    _write(out / MANIFEST_NAME, _manifest_json(manifest))
    print(f"clustered {len(kept)} motifs ({len(dropped)} dropped) -> {out}")
    return 0


# ---------------------------------------------------------------- summarize


def _verify_digest(path: Path, expected: str, what: str):
    if not path.exists():
        raise RuntimeError(f"missing {what}: {path}")
    if _sha256(path.read_bytes()) != expected:
        raise RuntimeError(f"{what} digest mismatch: {path}")


def cmd_summarize(args) -> int:
    if not 0 < args.level < 1:
        raise UsageError("--level must lie strictly between 0 and 1")
    out = _resolve_out(args)
    manifest_path = out / MANIFEST_NAME
    if not manifest_path.exists():
        raise RuntimeError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["inputs"]:
        _verify_digest(Path(entry["path"]), entry["sha256"], "input")
    digests = manifest["digests"]
    parsed_path = out / manifest["outputs"]["parsed_records"]
    _verify_digest(parsed_path, digests[parsed_path.name], "parsed records")
    records = records_from_json(parsed_path.read_text())
    hyp = manifest["hyper"]
    hyper = Hyperparameters(
        alpha=hyp["alpha"],
        b=hyp["b"],
        lam=hyp["lam"],
        wmin=hyp["wmin"],
        theta0=tuple(hyp["theta0"]),
        prior_kind=PriorKind(hyp["prior_kind"]),
    )
    traces = []
    for name in manifest["outputs"]["traces"]:
        path = out / name
        _verify_digest(path, digests[name], "trace")
        traces.append(load_trace(path))
    _write_summaries(out, traces, records, hyper, level=args.level)
    print(f"summarized {len(traces)} chain(s) -> {out}")
    return 0


# ---------------------------------------------------------------- prior-sim


def cmd_prior_sim(args) -> int:
    out = _resolve_out(args)
    if args.b <= 0:
        raise UsageError("--b must be positive")
    kinds = (
        [PriorKind.DP, PriorKind.UNIFORM]
        if args.prior == "both"
        else [PriorKind(args.prior)]
    )
    for kind in kinds:
        hyper = Hyperparameters(b=args.b, prior_kind=kind)
        config = PriorSimConfig(n=args.n, replicates=args.replicates, hyper=hyper)
        # one fixed stream per prior kind so "--prior both" and a later
        # single-prior rerun at the same seed produce identical tables
        stream = 0 if kind is PriorKind.DP else 1
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, stream]))
        stats = run_prior_sim(config, rng)
        name = f"prior_sim_{kind.value}.tsv"
        _write(out / name, stats_to_tsv(stats, label=kind.value))
        print(f"wrote {out / name}")
    return 0


# -------------------------------------------------------------------- entry


def entry(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"motifclust: error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"motifclust: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures, including digest mismatches
        print(f"motifclust: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
