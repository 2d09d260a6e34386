"""Tests that traced durations are net of the tracer's own cost.

    python3 -m pytest perfbench/test_layers.py

The second test runs `motifclust cluster` from `src/` on a small
collection, untraced and traced, with one chain, and compares the sampling
time.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
from layers import Spans, per_layer
from workloads import jaspar_text, motif_collection

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def inner(x):
    busy(100_000)


def outer(call_inner):
    for _ in range(40):
        call_inner(1)


def slow_hook(args):
    busy(300_000)


def test_hook_and_bookkeeping_time_is_not_charged_to_the_parent(tmp_path, monkeypatch):
    monkeypatch.setitem(child.HOOKS, "t.inner", (slow_hook, None))
    tracer = child.Tracer()
    traced_inner = tracer.wrap("t.inner", inner)
    traced_outer = tracer.wrap("t.outer", outer)
    plain = min(_timed(lambda: outer(inner)) for _ in range(3))
    for _ in range(3):
        traced_outer(traced_inner)
    tracer.save(tmp_path / "spans.npz")

    s = Spans(np.load(tmp_path / "spans.npz"), child.calibrate())
    top = s.of("t.outer")
    raw, net = s.raw[top].min(), s.dur[top].min()
    assert raw > 3 * plain  # the hooks dominate the raw span
    assert 0.9 * plain < net < 1.1 * plain
    assert (s.desc[top] == 40).all()


def _timed(fn) -> int:
    start = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - start


@pytest.mark.skipif(not (SRC / "motifclust").is_dir(), reason="needs the motifclust sources")
def test_net_sampling_time_matches_an_untraced_run(tmp_path):
    col = motif_collection(100, 3)
    (tmp_path / "in.jaspar").write_text(jaspar_text(col.counts))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cluster(mode: str, k: int) -> dict:
        result = tmp_path / f"{mode}{k}.json"
        args = ["cluster", "--input", "in.jaspar", "--iters", "30", "--seed", "1",
                "--out", f"out-{mode}{k}"]
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result), mode, "--", *args],
            env=env, cwd=tmp_path, check=True, capture_output=True,
        )
        return json.loads(result.read_text())

    def sampling_s(info: dict) -> float:
        return (info["stamps"]["sample_end_ns"] - info["stamps"]["setup_end_ns"]) / 1e9

    # the host's speed drifts between processes: interleave the runs and
    # compare medians
    plain, net, raw = [], [], []
    for k in range(4):
        plain.append(sampling_s(cluster("stamps", k)))
        info = cluster("trace", k)
        data = np.load(tmp_path / f"trace{k}.npz")
        net.append(per_layer(data, data, info, info)["sampler.chain.wall_s"])
        raw.append(sampling_s(info))
    plain, net, raw = np.median(plain), np.median(net), np.median(raw)
    assert raw > 1.3 * plain  # tracing costs the run a lot ...
    assert 0.8 * plain < net < 1.25 * plain  # ... and its figures are net of most of it
