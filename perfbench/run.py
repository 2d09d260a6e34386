"""motifclust benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Inputs are generated from --seed.  Each workload is a closed loop
with one client: one `motifclust` process at a time, started as a child
through perfbench/child.py.

Every `cluster` is followed by `summarize` on its finished directory
(SUMMARIZE_REPEATS times untraced).
--trace 0 runs `cluster` once for each of CHAIN_SEEDS seeds, then reruns
`cluster` at those seeds while another rerun still fits in S seconds (at
least once).  It reports the end-to-end metrics: medians over processes,
and ESS per second pooled over the distinct chains.
--trace 1 runs `cluster` once untraced and once traced at the first seed,
and reports the per-layer metrics and the tracing overhead.  Every run's
outputs are checked (see checks.py); the last line of output is one JSON
object with the verdict and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
from ess import bulk_ess
from workloads import Collection, jaspar_text, motif_collection, shifted_groups

HERE = Path(__file__).resolve().parent
CHAIN_SEEDS = 4  # distinct --seed values per run; ESS is pooled over them
SUMMARIZE_REPEATS = 2
PROCESS_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0
POLL_S = 0.02
RESCAN_EVERY = 10  # polls between scans of /proc for new descendants
PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class Workload:
    collection: Callable[[int], Collection]
    group_check: Callable
    iters: int
    chains: int
    cluster_flags: tuple[str, ...]
    summarize_flags: tuple[str, ...]


WORKLOADS = {
    # Criterion-9 collection at paper scale: the assignment sweep over ~100
    # mostly-singleton clusters dominates and the marginal cache is warm;
    # one chain, so the chain pool is bypassed.  Compressed traces and a
    # summarize at another interval level exercise the trace read-back.
    "collection-106": Workload(
        collection=lambda seed: motif_collection(100, seed),
        group_check=checks.families_cocluster,
        iters=200,
        chains=1,
        cluster_flags=("--trace-gz",),
        summarize_flags=("--level", "0.9"),
    ),
    # Shifted cores under the uniform prior with alignment every iteration:
    # the alignment and width sweeps dominate, iterations are cheap, and two
    # chains share the chain pool; chains stay in their own frames.
    "shifted-2chains": Workload(
        collection=shifted_groups,
        group_check=checks.groups_separate,
        iters=500,
        chains=2,
        cluster_flags=("--prior", "uniform", "--align-every", "1"),
        summarize_flags=(),
    ),
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "iters_per_s": "iter/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "summarize_s": "s",
}


# ------------------------------------------------------------- processes


@dataclass
class Proc:
    result: Path
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawn_ns: int
    info: dict = field(default_factory=dict)
    stderr: str = ""


def _process_table() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, process group) for every visible process."""
    table = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as fh:
                    fields = fh.read().rsplit(b")", 1)[1].split()
            except OSError:
                continue
            table[int(entry.name)] = (int(fields[1]), int(fields[2]))
    return table


def _descendants(root: int) -> set[int]:
    table = _process_table()
    tree, frontier = {root}, [root]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, _) in table.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    return tree


def _rss_bytes(pids: set[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * PAGE
        except OSError:
            pass
    return total


def _reap_group(pgid: int) -> None:
    """Kill what is left of the child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if not any(g == pgid for _, g in _process_table().values()):
            return
        time.sleep(0.05)


def spawn(args: list[str], result: Path, mode: str, env: dict, cwd: Path) -> Proc:
    """Run child.py with `args` and measure the process tree it forms."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result), mode, "--", *args]
    err_path = result.with_suffix(".err")
    peak = [0]
    done = threading.Event()
    with open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )

        def poll():
            tree, polls = {proc.pid}, 0
            while not done.wait(POLL_S):
                if polls % RESCAN_EVERY == 0:
                    tree = _descendants(proc.pid)
                polls += 1
                peak[0] = max(peak[0], _rss_bytes(tree))
                if time.monotonic_ns() - spawn_ns > PROCESS_LIMIT_S * 1e9:
                    os.killpg(proc.pid, signal.SIGKILL)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end_ns = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            done.set()
            poller.join()
            _reap_group(proc.pid)
    info = json.loads(result.read_text()) if result.exists() else {}
    return Proc(
        result=result,
        rc=proc.returncode,
        wall_s=(end_ns - spawn_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss (KiB) is the exact peak of the child itself; the polled
        # sum also counts any processes it starts
        peak_rss_mb=max(peak[0], usage.ru_maxrss * 1024) / 1e6,
        spawn_ns=spawn_ns,
        info=info,
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


# ------------------------------------------------------------------ runs


@dataclass
class Invocation:
    seed: int
    out: Path
    cluster: Proc
    problems: list[str]
    digests: dict[str, str]
    traces: list[checks.Trace]
    summarize: list[Proc] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return (self.cluster.info["stamps"]["setup_end_ns"] - self.cluster.spawn_ns) / 1e9

    @property
    def sampling_s(self) -> float:
        stamps = self.cluster.info["stamps"]
        return (stamps["sample_end_ns"] - stamps["setup_end_ns"]) / 1e9


class Bench:
    def __init__(self, wl: Workload, seed: int, root: Path, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.col = wl.collection(seed)
        self.input = work / "input.jaspar"
        self.input.write_text(jaspar_text(self.col.counts))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.expected_package = (root / "src" / "motifclust" / "__init__.py").resolve()
        self.count = 0

    def chain_seed(self, k: int) -> int:
        return self.seed + 1_000_003 * k

    def _child(self, args: list[str], mode: str) -> tuple[Proc, list[str]]:
        self.count += 1
        proc = spawn(args, self.work / f"p{self.count}.json", mode, self.env, self.work)
        problems = []
        if proc.rc != 0:
            problems.append(f"{args[0]} exited {proc.rc}: {proc.stderr.strip()[-500:]}")
        elif proc.info.get("package") != str(self.expected_package):
            problems.append(f"imported motifclust from {proc.info.get('package')}")
        return proc, problems

    def cluster_args(self, seed: int, out: Path) -> list[str]:
        return [
            "cluster", "--input", str(self.input), "--iters", str(self.wl.iters),
            "--chains", str(self.wl.chains), "--seed", str(seed), "--out", str(out),
            *self.wl.cluster_flags,
        ]

    def cluster(self, seed: int, mode: str = "stamps") -> Invocation:
        """`cluster`, its output checks, then `summarize` on its directory."""
        out = self.work / f"out{self.count + 1}"
        proc, problems = self._child(self.cluster_args(seed, out), mode)
        traces, digests = [], {}
        if not problems:
            stamps = proc.info["stamps"]
            if "setup_end_ns" not in stamps or "sample_end_ns" not in stamps:
                problems.append(f"set-up or sampling stamp missing: {stamps}")
            try:
                found, traces = checks.check_cluster(out, self.col, self.wl.group_check)
                problems += found
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            digests = checks.digest_set(out)
        inv = Invocation(seed, out, proc, problems, digests, traces)
        if not problems:
            self.summarize(inv, mode)
        return inv

    def summarize(self, inv: Invocation, mode: str = "stamps") -> None:
        """`summarize`, SUMMARIZE_REPEATS times: a short process needs more
        samples for a steady median."""
        args = ["summarize", "--out", str(inv.out), *self.wl.summarize_flags]
        same = "--level" not in self.wl.summarize_flags
        for _ in range(1 if mode == "trace" else SUMMARIZE_REPEATS):
            proc, problems = self._child(args, mode)
            inv.summarize.append(proc)
            if not problems:
                problems = checks.check_summarize(inv.digests, checks.digest_set(inv.out), same)
            inv.problems += problems


def post_burn_in(invocations: list[Invocation], series: str) -> list[np.ndarray]:
    return [getattr(t, series)[t.burn_in :] for inv in invocations for t in inv.traces]


def run_untraced(bench: Bench, seconds: float, start: float) -> tuple[list, dict]:
    """Runs until `seconds` after `start` (monotonic) would be passed by
    one more rerun, which takes about as long as the one before it."""
    firsts = [bench.cluster(bench.chain_seed(k)) for k in range(CHAIN_SEEDS)]
    runs = list(firsts)
    while True:
        before = time.monotonic()
        first = firsts[(len(runs) - len(firsts)) % len(firsts)]
        inv = bench.cluster(first.seed)
        if not first.problems and not inv.problems and inv.digests != first.digests:
            inv.problems.append(f"rerun at --seed {first.seed} changed the digest set")
        runs.append(inv)
        now = time.monotonic()
        if now + (now - before) > start + min(seconds, RUN_LIMIT_S):
            break
    if any(r.problems for r in runs):
        return runs, {}

    ess = bulk_ess(post_burn_in(firsts, "log_joint"))
    if ess is None:
        firsts[0].problems.append("log joint is constant after burn-in: ESS undefined")
        return runs, {}
    iters = bench.wl.iters * bench.wl.chains
    values = {
        "wall_s": statistics.median(r.cluster.wall_s for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "iters_per_s": statistics.median(iters / r.sampling_s for r in runs),
        "ess_per_s": ess / sum(r.sampling_s for r in firsts),
        "peak_rss_mb": statistics.median(r.cluster.peak_rss_mb for r in runs),
        "cpu_s": statistics.median(r.cluster.cpu_s for r in runs),
        "summarize_s": statistics.median(p.wall_s for r in runs for p in r.summarize),
    }
    return runs, {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}


def run_traced(bench: Bench) -> tuple[list[Invocation], dict]:
    import layers

    seed = bench.chain_seed(0)
    plain = bench.cluster(seed)
    traced = bench.cluster(seed, mode="trace")
    runs = [plain, traced]
    if not plain.problems and not traced.problems and plain.digests != traced.digests:
        traced.problems.append("tracing changed the digest set")
    if any(inv.problems for inv in runs):
        return runs, {}
    metrics = layers.per_layer(
        np.load(traced.cluster.result.with_suffix(".npz")),
        np.load(traced.summarize[0].result.with_suffix(".npz")),
        traced.cluster.info,
        traced.summarize[0].info,
    )
    metrics["sampler.ess_log_joint"] = bulk_ess(post_burn_in([traced], "log_joint")) or 0.0
    metrics["sampler.ess_n_clusters"] = bulk_ess(post_burn_in([traced], "n_clusters")) or 0.0
    metrics["tracing.overhead_s"] = traced.cluster.wall_s - plain.cluster.wall_s
    return runs, {name: {"value": v, "unit": layers.UNITS[name]} for name, v in metrics.items()}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "not_measured": [
            "hardware counters (no perf access in the sandbox)",
            "cache and memory-bandwidth rooflines (no measured peak on this CPU)",
            "kernels.dm.cells is computed from table shapes, not measured traffic",
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "motifclust" / "__init__.py").is_file():
        print(f"perfbench: no motifclust sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, root, work)
        if args.trace:
            runs, metrics = run_traced(bench)
        else:
            runs, metrics = run_untraced(bench, args.seconds, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(1 for inv in runs if inv.problems)
    for inv in runs:
        for problem in inv.problems:
            print(f"check failed (--seed {inv.seed}): {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    for inv in runs:
        if {"setup_end_ns", "sample_end_ns"} - inv.cluster.info.get("stamps", {}).keys():
            continue
        line = (
            f"cluster --seed {inv.seed}: wall {inv.cluster.wall_s:.3f} s, cpu {inv.cluster.cpu_s:.3f} s, "
            f"rss {inv.cluster.peak_rss_mb:.1f} MB, setup {inv.setup_s:.3f} s, sampling {inv.sampling_s:.3f} s"
        )
        if inv.summarize:
            line += "; summarize " + ", ".join(f"{p.wall_s:.3f}" for p in inv.summarize) + " s"
        print(line)
    print(f"benchmark run: {time.monotonic() - start:.1f} s for --seconds {args.seconds:g}")
    print(f"{'failed_frac':<32} {failed / len(runs):>14.6g} ratio  ({failed} of {len(runs)} runs)")
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
