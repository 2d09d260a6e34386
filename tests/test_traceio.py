import gzip
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from motifclust import CountMatrix, Hyperparameters, MotifRecord, PriorKind
from motifclust import traceio
from motifclust.sampler import RunConfig, RunTrace, Snapshot, run
from motifclust.traceio import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceFormatError,
    atomic_writer,
    load_trace,
    save_trace,
    settings_from,
    trace_bytes,
    trace_lines,
)


def small_trace(iterations=12, seed=3, **cfg):
    rng = np.random.default_rng(17)
    data = [
        MotifRecord(id=f"m{k}", matrix=CountMatrix(rng.integers(0, 8, size=(5 + k % 2, 4))))
        for k in range(4)
    ]
    hyper = Hyperparameters(
        alpha=0.5, b=2.0, lam=4.0, wmin=3, prior_kind=PriorKind.UNIFORM
    )
    config = RunConfig(iterations=iterations, burn_in=2, seed=seed, align_every=3, **cfg)
    return run(data, hyper, config)


def assert_snapshots_equal(a, b):
    assert a.iteration == b.iteration
    assert a.log_joint == b.log_joint  # bit-exact, not approximate
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.widths, b.widths)


def assert_traces_equal(a, b):
    assert a.ids == b.ids
    assert a.config == b.config
    assert a.hyper == b.hyper
    assert np.array_equal(a.log_joint_series, b.log_joint_series)
    assert np.array_equal(a.n_clusters_series, b.n_clusters_series)
    assert_snapshots_equal(a.initial, b.initial)
    assert_snapshots_equal(a.best, b.best)
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert_snapshots_equal(sa, sb)


class TestRoundTrip:
    def test_plain_file(self, tmp_path):
        trace = small_trace()
        path = save_trace(trace, tmp_path / "chain.jsonl")
        assert_traces_equal(load_trace(path), trace)

    def test_compressed_file(self, tmp_path):
        trace = small_trace()
        path = save_trace(trace, tmp_path / "chain.jsonl.gz")
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert_traces_equal(load_trace(path), trace)

    def test_zero_iteration_trace(self, tmp_path):
        trace = small_trace(iterations=0)
        path = save_trace(trace, tmp_path / "empty.jsonl")
        loaded = load_trace(path)
        assert loaded.log_joint_series.size == 0
        assert loaded.snapshots == []
        assert_traces_equal(loaded, trace)

    def test_float_values_bit_exact(self, tmp_path):
        trace = small_trace()
        loaded = load_trace(save_trace(trace, tmp_path / "c.jsonl"))
        assert loaded.log_joint_series.tobytes() == trace.log_joint_series.tobytes()


class TestDeterministicBytes:
    def test_plain_repeat_writes_identical(self, tmp_path):
        trace = small_trace()
        p1 = save_trace(trace, tmp_path / "a.jsonl")
        p2 = save_trace(trace, tmp_path / "b.jsonl")
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() == trace_bytes(trace)

    def test_gzip_repeat_writes_identical(self, tmp_path):
        trace = small_trace()
        p1 = save_trace(trace, tmp_path / "a.jsonl.gz")
        p2 = save_trace(trace, tmp_path / "b.jsonl.gz")
        assert p1.read_bytes() == p2.read_bytes()

    def test_gunzip_matches_plain_save(self, tmp_path):
        trace = small_trace()
        plain = save_trace(trace, tmp_path / "a.jsonl")
        gz = save_trace(trace, tmp_path / "a.jsonl.gz")
        assert gzip.decompress(gz.read_bytes()) == plain.read_bytes()


class TestHeader:
    def test_header_line_pinned(self):
        snap = Snapshot(
            iteration=0,
            log_joint=-12.5,
            z=np.array([0, 0, 1]),
            offsets=np.array([0, 2, 1]),
            widths=np.array([6, 7]),
        )
        trace = RunTrace(
            ids=["a", "b", "c"],
            config=RunConfig(iterations=0, seed=7, align_every=None, audit_every=50),
            hyper=Hyperparameters(
                alpha=0.5, b=2, lam=6.0, wmin=4, theta0=(0.3, 0.2, 0.2, 0.3),
                prior_kind=PriorKind.UNIFORM,
            ),
            initial=snap,
            log_joint_series=np.empty(0),
            n_clusters_series=np.empty(0, dtype=np.int64),
            snapshots=[],
            best=snap,
        )
        assert next(trace_lines(trace)) == (
            '{"kind":"header","format":"motif-cluster-trace","version":1,'
            '"ids":["a","b","c"],"config":{"iterations":0,"burn_in":0,'
            '"align_every":null,"thin":1,"seed":7,"audit_every":50},'
            '"hyper":{"alpha":0.5,'
            '"b":2,"lam":6.0,"wmin":4,"theta0":[0.3,0.2,0.2,0.3],'
            '"prior_kind":"uniform"},"initial":{"iteration":0,"log_joint":-12.5,'
            '"z":[0,0,1],"offsets":[0,2,1],"widths":[6,7]}}'
        )

    def test_dict_round_trips(self):
        hyper = Hyperparameters(alpha=2, b=0.5, lam=7.0, wmin=5, prior_kind="uniform")
        config = RunConfig(iterations=30, burn_in=3, align_every=None, thin=2, seed=9)
        for settings in (hyper, config):
            data = json.loads(json.dumps(asdict(settings)))
            assert settings_from(type(settings), data) == settings

    def test_older_header_keys_ignored(self, tmp_path):
        # earlier versions also wrote record_trace and init_mode
        path = save_trace(small_trace(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"].update(record_trace=True, init_mode="singletons")
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert load_trace(path).config == small_trace().config


class _FailingFile(io.FileIO):
    """Writes half of what it is given, then fails."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError("disk full")


class TestAtomicWrites:
    def test_failed_block_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"complete")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write(b"part")
                raise RuntimeError("crash")
        assert path.read_bytes() == b"complete"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", ["c.jsonl", "c.jsonl.gz"])
    def test_failed_save_keeps_previous_trace(self, tmp_path, monkeypatch, name):
        path = save_trace(small_trace(), tmp_path / name)
        before = path.read_bytes()
        monkeypatch.setattr(traceio, "open", lambda p, mode: _FailingFile(p, "w"), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_trace(small_trace(seed=4), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_compression_follows_final_name(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl.gz")
        assert gzip.decompress(path.read_bytes()) == trace_bytes(small_trace())
        assert list(tmp_path.iterdir()) == [path]


class TestFormatGuards:
    def test_header_fields(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["ids"] == ["m0", "m1", "m2", "m3"]

    def test_unsupported_version_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="version 99"):
            load_trace(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(TraceFormatError, match="not a"):
            load_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            load_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["kind"] == "best"
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceFormatError, match="no best record"):
            load_trace(path)

    def test_missing_iterations_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        kept = [ln for ln in lines if json.loads(ln).get("t") != 5]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(TraceFormatError, match="iteration records"):
            load_trace(path)

    def test_repeated_iteration_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        assert json.loads(lines[2])["t"] == 2
        lines[2] = lines[1]  # iteration 1 twice, iteration 2 missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="repeated iteration 1"):
            load_trace(path)

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        with open(path, "a") as fh:
            fh.write('{"kind":"mystery"}\n')
        with pytest.raises(TraceFormatError, match="mystery"):
            load_trace(path)

    def test_repeated_best_record_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        best = json.loads(path.read_text().splitlines()[-1])
        with open(path, "a") as fh:
            fh.write(json.dumps({**best, "log_joint": 1e9}) + "\n")
        with pytest.raises(TraceFormatError, match="repeated best record"):
            load_trace(path)

    def test_record_after_best_rejected(self, tmp_path):
        path = save_trace(small_trace(), tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["kind"] for ln in lines].count("best") == 1
        snapshot = next(ln for ln in lines if json.loads(ln)["kind"] == "snapshot")
        with open(path, "a") as fh:
            fh.write(snapshot + "\n")
        with pytest.raises(TraceFormatError, match="snapshot record after the best record"):
            load_trace(path)

    def test_corrupt_gzip_is_distinguishable(self, tmp_path):
        path = tmp_path / "c.jsonl.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises((OSError, gzip.BadGzipFile)):
            load_trace(path)
