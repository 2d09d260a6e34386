"""Runs one `motifclust` command in this process, with the benchmark's hooks.

    python3 perfbench/child.py RESULT MODE -- ARGS...

ARGS go to `motifclust.cli.entry`, the function behind the `motifclust`
console script.  MODE is `stamps` or `trace`.  Both record two clock
stamps in the coordinator (main) thread: the return of the last
`matrices.filter_min_width` call before sampling (end of set-up) and the
first `traceio.save_trace` call (end of sampling).  `trace` also wraps
every public function of the measured modules, plus the kernel and state
methods named in METHODS, and records one span per call.  Spans stay in
memory and are written to RESULT.npz at exit; the stamps, the exit code
and the calibrated per-span residual go to RESULT.json.  Hooks are
installed from here only: the program under test is not modified.
"""

from __future__ import annotations

import inspect
import json
import os
import struct
import sys
import threading
import time
from array import array
from pathlib import Path

MODULES = ("parsers", "matrices", "kernels", "sampler", "traceio", "summaries", "cli")
METHODS = {
    "kernels": ("GammaTables.log_dm_matrix", "GammaTables.log_dm_matrix_cached"),
    "sampler": ("SamplerState.log_joint_fast", "SamplerState.snapshot"),
}
UNKNOWN = -1


def _replace_everywhere(old, new) -> None:
    """Rebind `old` to `new` in every loaded motifclust module, so names
    imported with `from .x import f` are hooked as well."""
    for name, mod in list(sys.modules.items()):
        if name == "motifclust" or name.startswith("motifclust."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


# ------------------------------------------------------------------- stamps


def install_stamps(stamps: dict) -> None:
    from motifclust import matrices, traceio

    main = threading.main_thread()
    orig_filter = matrices.filter_min_width
    orig_save = traceio.save_trace

    def filter_min_width(*args, **kwargs):
        result = orig_filter(*args, **kwargs)
        if threading.current_thread() is main and "sample_end_ns" not in stamps:
            stamps["setup_end_ns"] = time.monotonic_ns()
        return result

    def save_trace(*args, **kwargs):
        if threading.current_thread() is main and "sample_end_ns" not in stamps:
            stamps["sample_end_ns"] = time.monotonic_ns()
        return orig_save(*args, **kwargs)

    _replace_everywhere(orig_filter, filter_min_width)
    _replace_everywhere(orig_save, save_trace)


# ------------------------------------------------------------------ tracing
#
# Per-call counts are taken by small hooks around the call.  A hook's cost
# and the span bookkeeping fall outside the span's own [t0, t1], but inside
# its parent's.  Each thread keeps a running total of its bookkeeping time;
# a span records the part of it that fell within its [t0, t1] (`ovh`), the
# number of spans finished within it (`desc`), and the total when it ended
# (`cum`), so that layers.py can report durations net of tracing.  What the
# clock reads cannot see (the wrapper's call and return) is measured per
# span by `calibrate`.  A hook that no longer fits the program's state
# records UNKNOWN instead of failing the run.


def _assign_pre(args):
    state, i = args[0], args[1]
    o, length = int(state.offsets[i]), int(state.lengths[i])
    own = state.clusters[int(state.z[i])]
    scored = sum(
        1
        for cl in state.clusters.values()
        if o + cl.stats.width <= length and (cl is not own or cl.stats.member_count > 1)
    )
    return scored, own.members - {i}


def _assign_post(args, pre, result):
    state, i = args[0], args[1]
    scored, before = pre
    after = state.clusters[int(state.z[i])].members - {i}
    return scored, int(after != before)


def _align_pre(args):
    state, i = args[0], args[1]
    width = state.clusters[int(state.z[i])].stats.width
    length = int(state.lengths[i])
    return (length - width + 1 if length != width else 0), int(state.offsets[i])


def _align_post(args, pre, result):
    state, i = args[0], args[1]
    return pre[0], int(int(state.offsets[i]) != pre[1])


def _width_pre(args):
    state, cid = args[0], args[1]
    cl = state.clusters[cid]
    top = min(int(state.lengths[m]) - int(state.offsets[m]) for m in cl.members)
    wmin = state.hyper.wmin
    return (top - wmin + 1 if top > wmin else 0), cl.stats.width


def _width_post(args, pre, result):
    state, cid = args[0], args[1]
    return pre[0], int(state.clusters[cid].stats.width != pre[1])


def _cells_post(args, pre, result):
    counts = args[1]
    return counts.size + counts.shape[0], 0  # lgamma(x + a) per cell, one per column sum


def _thread_cpu_pre(args):
    return time.thread_time_ns()


def _run_post(args, pre, result):
    return time.thread_time_ns() - pre, len(result.log_joint_series)


def _saved_bytes_post(args, pre, result):
    return os.path.getsize(result), 0


def _loaded_bytes_pre(args):
    return os.path.getsize(args[0])


def _loaded_bytes_post(args, pre, result):
    return pre, 0


def _records_post(args, pre, result):
    return (len(result) if isinstance(result, list) else 0), 0


HOOKS = {
    "sampler.resample_assignment": (_assign_pre, _assign_post),
    "sampler.resample_alignment": (_align_pre, _align_post),
    "sampler.resample_width": (_width_pre, _width_post),
    "sampler.run": (_thread_cpu_pre, _run_post),
    "kernels.GammaTables.log_dm_matrix": (None, _cells_post),
    "traceio.save_trace": (None, _saved_bytes_post),
    "traceio.load_trace": (_loaded_bytes_pre, _loaded_bytes_post),
}


# one row per span; a span's descendants are the `desc` rows before it
FIELDS = ("name", "parent", "depth", "t0", "t1", "ovh", "desc", "cum", "x1", "x2")
COLUMN = {field: k for k, field in enumerate(FIELDS)}
ROW = struct.Struct(f"{len(FIELDS)}q")


class _Buffer:
    """Spans of one thread, in order of completion, as rows of FIELDS."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []  # name ids of the open spans
        self.rows = array("q")
        self.tracing = [0]  # bookkeeping ns of the finished spans

    def last(self, field: str) -> int:
        return self.rows[COLUMN[field] - len(FIELDS)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
            return buf

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        pre, post = HOOKS.get(qualname, (None, None))
        pack, width = ROW.pack, len(FIELDS)
        if qualname.startswith("parsers."):
            post = _records_post
        clock = time.perf_counter_ns
        get_buffer = self._buffer

        def span(*args, **kwargs):
            enter = clock()
            buf = get_buffer()
            extra = None
            if pre is not None:
                try:
                    extra = pre(args)
                except Exception:
                    extra = UNKNOWN
            stack, rows, tracing = buf.stack, buf.rows, buf.tracing
            depth = len(stack)
            parent = stack[-1] if stack else -1
            stack.append(name_id)
            rows0, tracing0 = len(rows), tracing[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            x1 = x2 = 0
            if post is not None:
                try:
                    x1, x2 = (UNKNOWN, UNKNOWN) if extra is UNKNOWN else post(args, extra, result)
                except Exception:
                    x1 = x2 = UNKNOWN
            done = tracing[0]
            desc = (len(rows) - rows0) // width
            rows.frombytes(pack(name_id, parent, depth, t0, t1, done - tracing0, desc, done, x1, x2))
            tracing[0] = done + (clock() - enter) - (t1 - t0)
            return result

        return span

    def install(self) -> None:
        import importlib

        for short in MODULES:
            mod = importlib.import_module(f"motifclust.{short}")
            for attr, fn in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    _replace_everywhere(fn, self.wrap(f"{short}.{attr}", fn))
            for method in METHODS.get(short, ()):
                cls_name, meth = method.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(f"{short}.{method}", vars(cls)[meth]))

    def save(self, path: Path) -> None:
        import numpy as np

        tables = [np.frombuffer(b.rows, dtype=np.int64).reshape(-1, len(FIELDS)) for b in self.buffers]
        rows = np.concatenate(tables or [np.zeros((0, len(FIELDS)), dtype=np.int64)])
        columns = {field: rows[:, k] for field, k in COLUMN.items()}
        columns["thread"] = np.concatenate(
            [np.full(len(t), b.thread, dtype=np.int32) for t, b in zip(tables, self.buffers)]
            or [np.zeros(0, dtype=np.int32)]
        )
        np.savez(path, names=np.array(self.names), **columns)


CALIBRATION_CALLS, CALIBRATION_ROUNDS = 20_000, 7


def calibrate() -> float:
    """Wall time per span that the span's own clock reads miss: the
    wrapper's call and return, and the update of the running total.  It is
    the duration of a traced loop of traced calls of an empty function,
    less the untraced loop and the bookkeeping the spans record; each the
    minimum over CALIBRATION_ROUNDS rounds, per call, in ns."""

    def empty(a, b, c):
        pass

    def loop(fn):
        for _ in range(CALIBRATION_CALLS):
            fn(1, 2, 3)

    probe = Tracer()
    traced_empty = probe.wrap("calibrate.empty", empty)
    traced_loop = probe.wrap("calibrate.loop", loop)
    buf = probe._buffer()
    clock = time.perf_counter_ns
    direct = traced = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        start = clock()
        loop(empty)
        direct = min(direct, clock() - start)
        traced_loop(traced_empty)
        traced = min(traced, buf.last("t1") - buf.last("t0") - buf.last("ovh"))
    return max(traced - direct, 0) / CALIBRATION_CALLS


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("stamps", "trace"):
        print("usage: child.py RESULT stamps|trace -- ARGS...", file=sys.stderr)
        return 1
    result, mode, args = Path(argv[0]), argv[1], argv[3:]
    import motifclust
    from motifclust import cli

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        residual_ns = calibrate()
        tracer.install()
    stamps: dict = {}
    install_stamps(stamps)
    rc = cli.entry(args)
    info = {"rc": rc, "stamps": stamps, "package": str(Path(motifclust.__file__).resolve())}
    if tracer is not None:
        tracer.save(result.with_suffix(".npz"))
        info["main_thread"] = tracer._buffer().thread
        info["span_residual_ns"] = residual_ns
    result.write_text(json.dumps(info))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
