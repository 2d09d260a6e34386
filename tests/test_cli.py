import gzip
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from motifclust import CountMatrix, MotifRecord
from motifclust import cli, sampler, traceio
from motifclust.cli import entry
from motifclust.kernels import Hyperparameters
from motifclust.matrices import filter_min_width
from motifclust.parsers import parse_jaspar, write_jaspar
from motifclust.sampler import RunConfig
from motifclust.synthetic import planted_motif_groups
from motifclust.traceio import load_trace

from conftest import records_doc

SUMMARY_FILES = [
    "pairwise.tsv",
    "tree.nwk",
    "report.txt",
    "supermatrices.jaspar",
    "width_intervals.tsv",
    "ic_table.tsv",
    "diagnostics.json",
]


@pytest.fixture()
def motif_file(tmp_path):
    truth = planted_motif_groups(n_groups=2, members=3, peak=0.9, seed=7, core_offset=0)
    path = tmp_path / "motifs.jaspar"
    path.write_text(write_jaspar(truth.records))
    return path


def cluster_args(motif_file, out, **extra):
    args = [
        "cluster",
        "--input", str(motif_file),
        "--lambda", "12",
        "--iters", "60",
        "--align-every", "1",
        "--seed", "5",
        "--out", str(out),
    ]
    for flag, value in extra.items():
        name = "--" + flag.replace("_", "-")
        if value is True:
            args.append(name)
        else:
            args.extend([name, str(value)])
    return args


def tree_of(out):
    return {p.name: p.read_bytes() for p in Path(out).iterdir()}


class TestCluster:
    def test_end_to_end_outputs(self, motif_file, tmp_path):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out)) == 0
        for name in SUMMARY_FILES + ["manifest.json", "parsed_records.json",
                                     "trace_chain00.jsonl"]:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records"]["parsed"] == 6
        assert manifest["records"]["retained"] == 6
        assert manifest["hyper"]["lam"] == 12.0
        # digests cover every non-manifest file in the directory
        files = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["digests"]) == files

    def test_nothing_written_outside_out(self, motif_file, tmp_path):
        before = set(tmp_path.iterdir())
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out)) == 0
        assert set(tmp_path.iterdir()) == before | {out}

    def test_rerun_is_byte_identical(self, motif_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert entry(cluster_args(motif_file, out1)) == 0
        assert entry(cluster_args(motif_file, out2)) == 0
        t1, t2 = tree_of(out1), tree_of(out2)
        assert set(t1) == set(t2)
        for name in t1:
            assert t1[name] == t2[name], name

    def test_different_seed_changes_traces(self, motif_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert entry(cluster_args(motif_file, out1)) == 0
        assert entry(cluster_args(motif_file, out2, seed=6)) == 0
        a = (out1 / "trace_chain00.jsonl").read_bytes()
        b = (out2 / "trace_chain00.jsonl").read_bytes()
        assert a != b

    def test_multi_chain_outputs(self, motif_file, tmp_path):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out, chains=2)) == 0
        assert (out / "trace_chain01.jsonl").exists()
        assert (out / "pairwise_chain00.tsv").exists()
        assert (out / "pairwise_chain01.tsv").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(diag["chains"]) == 2
        assert diag["chains"][0]["seed"] != diag["chains"][1]["seed"]
        assert 0 <= diag["max_cross_chain_pairwise_difference"] <= 1

    def test_manifest_run_is_chain0_settings(self, motif_file, tmp_path):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out, chains=2, thin=2)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = cli._chain_seeds(5, 2)
        chain0 = RunConfig(iterations=60, align_every=1, thin=2, seed=seeds[0])
        assert load_trace(out / "trace_chain00.jsonl").config == chain0
        assert manifest["run"] == {
            **asdict(chain0),
            "seed": 5,
            "chains": 2,
            "chain_seeds": seeds,
            "trace_compression": False,
        }

    def test_compressed_traces(self, motif_file, tmp_path):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out, trace_gz=True)) == 0
        path = out / "trace_chain00.jsonl.gz"
        assert path.exists()
        trace = load_trace(path)
        assert trace.config.iterations == 60

    def test_env_var_out(self, motif_file, tmp_path, monkeypatch):
        out = tmp_path / "env_run"
        monkeypatch.setenv("MOTIFCLUST_OUT", str(out))
        args = cluster_args(motif_file, out)
        args = args[: args.index("--out")]  # drop --out, rely on env
        assert entry(args) == 0
        assert (out / "manifest.json").exists()

    def test_process_chains_match_serial_runs(self, motif_file, tmp_path):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out, chains=3)) == 0
        assert multiprocessing.active_children() == []
        kept, _ = filter_min_width(parse_jaspar(motif_file.read_text()), 6)
        hyper = Hyperparameters(lam=12.0)
        for k, seed in enumerate(cli._chain_seeds(5, 3)):
            config = RunConfig(iterations=60, align_every=1, seed=seed)
            serial = traceio.save_trace(sampler.run(kept, hyper, config),
                                        tmp_path / f"serial{k}.jsonl")
            assert (out / f"trace_chain{k:02d}.jsonl").read_bytes() == serial.read_bytes(), k

    def fail_chain(self, k, motif_file, tmp_path, monkeypatch, capsys):
        """Run 3 chains with chain k raising; chain 0 runs in this process,
        1 and 2 in pool workers, which inherit the patched `run` by fork."""
        bad_seed = cli._chain_seeds(5, 3)[k]
        real_run = cli.run

        def run(data, hyper, config):
            if config.seed == bad_seed:
                raise ValueError("sampler blew up")
            return real_run(data, hyper, config)

        monkeypatch.setattr(cli, "run", run)
        assert entry(cluster_args(motif_file, tmp_path / "r", chains=3)) == 3
        assert f"motifclust: error: chain {k}: sampler blew up" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_failing_chain_named(self, motif_file, tmp_path, monkeypatch, capsys):
        self.fail_chain(1, motif_file, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("k", [0, 2], ids=["coordinator", "last-worker"])
    def test_failing_chain_joins_pool(self, k, motif_file, tmp_path, monkeypatch, capsys):
        self.fail_chain(k, motif_file, tmp_path, monkeypatch, capsys)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_killed_coordinator_leaves_no_worker(self, motif_file, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys; from motifclust.cli import entry; sys.exit(entry(sys.argv[1:]))"
        args = cluster_args(motif_file, tmp_path / "r", chains=2, iters=100000)
        coordinator = subprocess.Popen([sys.executable, "-c", code, *args],
                                       env={**os.environ, "PYTHONPATH": src})

        def stat(pid):  # (state letter, parent pid), or None once reaped
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                return None
            return fields[0], int(fields[1])

        def children():
            return [int(d) for d in os.listdir("/proc")
                    if d.isdigit() and (stat(d) or ("", 0))[1] == coordinator.pid]

        def wait_for(condition, seconds):
            deadline = time.monotonic() + seconds
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.05)

        workers = []
        try:
            wait_for(children, 30)
            workers = children()
            coordinator.send_signal(signal.SIGTERM)  # the pool is never shut down
            coordinator.wait(timeout=10)
            wait_for(lambda: all((stat(w) or ("Z",))[0] == "Z" for w in workers), 10)
        finally:
            for pid in [coordinator.pid, *workers]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            coordinator.wait(timeout=10)

    @pytest.mark.parametrize("cpus, expected", [(4, 4), (None, 1)])
    def test_pool_capped_at_cpu_count(self, cpus, expected, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._pool_workers(10**6) == expected  # no process is started
        assert cli._pool_workers(2) == 1

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.txt"
        cli._write(path, "complete\n")

        class Failing(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:3])
                raise OSError("disk full")

        monkeypatch.setattr(traceio, "open", lambda p, mode: Failing(p, "w"), raising=False)
        with pytest.raises(OSError, match="disk full"):
            cli._write(path, "replacement\n")
        assert path.read_text() == "complete\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_width_filter_recorded(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            MotifRecord(id=f"wide{k}", matrix=CountMatrix(rng.integers(1, 9, (8, 4))))
            for k in range(4)
        ] + [
            MotifRecord(id=f"thin{k}", matrix=CountMatrix(rng.integers(1, 9, (5, 4))))
            for k in range(2)
        ]
        path = tmp_path / "mixed.jaspar"
        path.write_text(write_jaspar(records))
        out = tmp_path / "run"
        assert entry(cluster_args(path, out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records"]["parsed"] == 6
        assert manifest["records"]["retained"] == 4
        dropped = {d["id"] for d in manifest["records"]["dropped"]}
        assert dropped == {"thin0", "thin1"}


class TestExitCodes:
    def test_missing_out_is_usage_error(self, motif_file, monkeypatch, capsys):
        monkeypatch.delenv("MOTIFCLUST_OUT", raising=False)
        args = cluster_args(motif_file, "ignored")
        args = args[: args.index("--out")]
        assert entry(args) == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, motif_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            entry(cluster_args(motif_file, tmp_path / "r", iters=0))
        assert exc.value.code == 1

    def test_bad_theta0_is_usage_error(self, motif_file, tmp_path, capsys):
        rc = entry(cluster_args(motif_file, tmp_path / "r", theta0="0.5,0.5,0.5,0.5"))
        assert rc == 1
        assert "theta0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("alpha", "inf"), ("alpha", "nan"), ("b", "inf"), ("lambda", "inf"),
         ("lambda", "nan"), ("theta0", "nan,0.25,0.25,0.25")],
    )
    def test_non_finite_setting_is_usage_error(self, motif_file, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        assert entry(cluster_args(motif_file, out, **{flag: value})) == 1
        assert not out.exists()
        field = "lam" if flag == "lambda" else flag
        assert f"{field} must" in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path, capsys):
        rc = entry(cluster_args(tmp_path / "absent.jaspar", tmp_path / "r"))
        assert rc == 2
        assert "absent.jaspar" in capsys.readouterr().err

    def test_non_utf8_input_named(self, motif_file, tmp_path, capsys):
        packed = tmp_path / "motifs.jaspar.gz"
        packed.write_bytes(gzip.compress(motif_file.read_bytes()))
        out = tmp_path / "r"
        assert entry(cluster_args(packed, out)) == 2
        assert "motifs.jaspar.gz" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.jaspar"
        bad.write_text(">m1\nA [ 1 2 ]\nC [ 3 ]\nG [ 4 5 ]\nT [ 6 7 ]\n")
        rc = entry(cluster_args(bad, tmp_path / "r"))
        assert rc == 2
        assert "bad.jaspar" in capsys.readouterr().err

    def test_position_without_counts_refused_before_out(self, tmp_path, capsys):
        # sampled, it would fail only in the report's consensus
        bad = tmp_path / "empty.jaspar"
        bad.write_text(
            ">m1 one\nA [ 5 0 1 3 4 2 6 1 ]\nC [ 1 0 3 3 0 2 0 1 ]\n"
            "G [ 0 0 2 1 2 2 0 4 ]\nT [ 2 0 2 1 2 2 2 2 ]\n"
        )
        out = tmp_path / "r"
        assert entry(cluster_args(bad, out, min_width=7, iters=20, **{"lambda": 7})) == 2
        assert "motif 'm1' position 1 has zero total count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2]",
            '{"format": "motifclust-records", "version": 1}',
            '{"format": "motifclust-records", "version": 1, "records": [{"counts": []}]}',
            '{"format": "motifclust-records", "version": 1, "records": [{"id": "a", "counts": null}]}',
            records_doc({"id": 5}),
            records_doc({"id": "a", "counts": [[1.5] * 8, [2] * 8, [3] * 8, [4] * 8]}),
            records_doc({"id": "a"}, {"id": "a"}),
        ],
        ids=["list", "no-records", "no-id", "null-counts", "numeric-id", "fractional-count",
             "duplicate-id"],
    )
    def test_malformed_json_input(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        out = tmp_path / "r"
        assert entry(cluster_args(bad, out, format="json")) == 2
        assert "bad.json" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_transfac_count(self, tmp_path, capsys):
        bad = tmp_path / "bad.transfac"
        rows = "".join(f"{j:02d} 1 2 3 4\n" for j in range(1, 8))
        bad.write_text(f"AC m1\nP0 A C G T\n{rows}08 1 inf 3 4\n//\n")
        out = tmp_path / "r"
        assert entry(cluster_args(bad, out)) == 2
        assert "bad.transfac: line 1: record 'm1': counts must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_error_leaves_no_out_dir(self, motif_file, tmp_path, capsys):
        out = tmp_path / "r"

        def exit_code(args):
            try:
                return entry(args)
            except SystemExit as exc:  # argparse rejected the flag's type
                return exc.code

        prior_sim = ["prior-sim", "--n", "5", "--replicates", "10", "--out", str(out)]
        for args in (
            cluster_args(motif_file, out, alpha=-1),
            cluster_args(motif_file, out, seed=-1),
            *(prior_sim + ["--b", b] for b in ("-1", "nan", "inf")),
            prior_sim + ["--seed", "-1"],
        ):
            assert exit_code(args) == 1
            assert not out.exists()
        assert capsys.readouterr().err.count("argument --seed: must be >= 0") == 2

    def test_input_error_leaves_no_out_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "r"
        assert entry(cluster_args(tmp_path / "absent.jaspar", out)) == 2
        assert not out.exists()
        assert entry(["summarize", "--out", str(out)]) == 3
        assert not out.exists()
        # a usage error still wins over an input error
        monkeypatch.delenv("MOTIFCLUST_OUT", raising=False)
        args = cluster_args(tmp_path / "absent.jaspar", out)
        assert entry(args[: args.index("--out")]) == 1

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rec = MotifRecord(id="dup", matrix=CountMatrix(rng.integers(1, 9, (8, 4))))
        path = tmp_path / "dup.jaspar"
        path.write_text(write_jaspar([rec, rec]))
        assert entry(cluster_args(path, tmp_path / "r")) == 2
        assert "dup" in capsys.readouterr().err

    def test_strict_columns(self, tmp_path, capsys):
        ragged = MotifRecord(
            id="ragged",
            matrix=CountMatrix([[5, 5, 5, 5], [1, 2, 3, 4], [9, 9, 9, 9],
                                [5, 5, 5, 5], [5, 5, 5, 5], [5, 5, 5, 5]]),
        )
        path = tmp_path / "ragged.jaspar"
        path.write_text(write_jaspar([ragged]))
        assert entry(cluster_args(path, tmp_path / "r1")) == 0  # accepted by default
        assert entry(cluster_args(path, tmp_path / "r2", strict_columns=True)) == 2
        assert "unequal position totals" in capsys.readouterr().err

    def test_all_motifs_too_narrow(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        recs = [MotifRecord(id="a", matrix=CountMatrix(rng.integers(1, 9, (4, 4))))]
        path = tmp_path / "thin.jaspar"
        path.write_text(write_jaspar(recs))
        assert entry(cluster_args(path, tmp_path / "r")) == 2
        assert "narrower" in capsys.readouterr().err


class TestSummarize:
    def run_once(self, motif_file, tmp_path, **extra):
        out = tmp_path / "run"
        assert entry(cluster_args(motif_file, out, **extra)) == 0
        return out

    def test_regenerates_byte_identical(self, motif_file, tmp_path):
        out = self.run_once(motif_file, tmp_path)
        before = tree_of(out)
        for name in SUMMARY_FILES:
            (out / name).unlink()
        assert entry(["summarize", "--out", str(out)]) == 0
        after = tree_of(out)
        assert set(after) == set(before)
        for name in SUMMARY_FILES:
            assert after[name] == before[name], name

    def test_level_monotonicity(self, motif_file, tmp_path):
        out = self.run_once(motif_file, tmp_path)

        def intervals():
            rows = (out / "width_intervals.tsv").read_text().splitlines()[1:]
            return {r.split("\t")[0]: (int(r.split("\t")[1]), int(r.split("\t")[2]))
                    for r in rows}

        assert entry(["summarize", "--out", str(out), "--level", "0.95"]) == 0
        wide = intervals()
        assert entry(["summarize", "--out", str(out), "--level", "0.5"]) == 0
        narrow = intervals()
        for rid in wide:
            assert wide[rid][0] <= narrow[rid][0] <= narrow[rid][1] <= wide[rid][1]

    def test_missing_trace_named(self, motif_file, tmp_path, capsys):
        out = self.run_once(motif_file, tmp_path)
        (out / "trace_chain00.jsonl").unlink()
        assert entry(["summarize", "--out", str(out)]) == 3
        assert "trace_chain00.jsonl" in capsys.readouterr().err

    def test_tampered_trace_digest_mismatch(self, motif_file, tmp_path, capsys):
        out = self.run_once(motif_file, tmp_path)
        path = out / "trace_chain00.jsonl"
        path.write_text(path.read_text().replace("log_joint", "log_jo1nt", 1))
        assert entry(["summarize", "--out", str(out)]) == 3
        assert "digest mismatch" in capsys.readouterr().err

    def test_tampered_input_digest_mismatch(self, motif_file, tmp_path, capsys):
        out = self.run_once(motif_file, tmp_path)
        motif_file.write_text(motif_file.read_text() + "\n")
        assert entry(["summarize", "--out", str(out)]) == 3
        assert "digest mismatch" in capsys.readouterr().err

    def test_moved_input_warns_and_regenerates(self, motif_file, tmp_path, capsys):
        out = self.run_once(motif_file, tmp_path)
        before = tree_of(out)
        motif_file.rename(tmp_path / "moved.jaspar")
        for name in SUMMARY_FILES:
            (out / name).unlink()
        capsys.readouterr()
        assert entry(["summarize", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and motif_file.name in err
        assert tree_of(out) == before

    @pytest.mark.parametrize(
        "damaged, named",
        [
            ("trace", "trace_chain00.jsonl: line 2: field 't' holds 'one'"),
            ("manifest", "manifest.json: missing key 'outputs'"),
        ],
        ids=["trace", "manifest"],
    )
    def test_damaged_trace_or_manifest_named(self, motif_file, tmp_path, capsys, damaged, named):
        out = self.run_once(motif_file, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        if damaged == "trace":
            path = out / "trace_chain00.jsonl"
            lines = path.read_text().splitlines()
            lines[1] = json.dumps({**json.loads(lines[1]), "t": "one"})
            path.write_text("\n".join(lines) + "\n")
            # re-pinned, so that the damage gets past the digest check
            manifest["digests"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            del manifest["outputs"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert entry(["summarize", "--out", str(out)]) == 3
        assert named in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        out = tmp_path / "nothing"
        out.mkdir()
        assert entry(["summarize", "--out", str(out)]) == 3
        assert "manifest" in capsys.readouterr().err

    def test_bad_level_usage_error(self, motif_file, tmp_path):
        out = self.run_once(motif_file, tmp_path)
        assert entry(["summarize", "--out", str(out), "--level", "1.0"]) == 1

    def test_works_with_compressed_traces(self, motif_file, tmp_path):
        out = self.run_once(motif_file, tmp_path, trace_gz=True)
        before = tree_of(out)
        assert entry(["summarize", "--out", str(out)]) == 0
        assert tree_of(out) == before


class TestImports:
    # the CLI's start-up cost is paid by every run
    def fresh_imports(self, *packages, argv=None):
        """The loaded modules of these packages (or subpackages) in a fresh
        interpreter that imports the CLI and, given argv, runs it."""
        run = f"assert motifclust.cli.entry({argv!r}) == 0; " if argv else ""
        loaded = f"any(m == p or m.startswith(p + '.') for p in {packages!r})"
        code = (
            "import sys, motifclust, motifclust.cli; " + run +
            f"print(sorted(m for m in sys.modules if {loaded}))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    def test_runtime_imports_no_scipy(self):
        # numpy is the only third-party import
        assert self.fresh_imports("scipy") == "[]"

    def test_runtime_imports_no_process_pool(self):
        # only `cluster --chains N` with N > 1 imports the pool
        assert self.fresh_imports("multiprocessing", "concurrent") == "[]"

    def test_cluster_and_summarize_import_no_scipy_or_masked_arrays(self, motif_file, tmp_path):
        # numpy.ma costs about 12 ms of import, and np.unique imports it
        out = tmp_path / "run"
        for argv in (cluster_args(motif_file, out), ["summarize", "--out", str(out)]):
            assert self.fresh_imports("scipy", "numpy.ma", argv=argv) == "[]"


class TestPriorSim:
    def test_both_priors_two_files(self, tmp_path):
        out = tmp_path / "sim"
        rc = entry(["prior-sim", "--n", "10", "--replicates", "300",
                    "--seed", "3", "--out", str(out)])
        assert rc == 0
        dp = (out / "prior_sim_dp.tsv").read_text()
        uni = (out / "prior_sim_uniform.tsv").read_text()
        assert dp.startswith("# prior-sim histogram v1\tprior=dp\tn=10")
        assert uni.startswith("# prior-sim histogram v1\tprior=uniform")
        assert dp != uni

    def test_seeded_determinism_and_stream_separation(self, tmp_path):
        both, again, single = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ["prior-sim", "--n", "8", "--replicates", "200", "--seed", "11"]
        assert entry(base + ["--out", str(both)]) == 0
        assert entry(base + ["--out", str(again)]) == 0
        assert entry(base + ["--prior", "uniform", "--out", str(single)]) == 0
        a = (both / "prior_sim_uniform.tsv").read_bytes()
        assert a == (again / "prior_sim_uniform.tsv").read_bytes()
        # a lone uniform run reproduces the same table as the combined run
        assert a == (single / "prior_sim_uniform.tsv").read_bytes()
        assert not (single / "prior_sim_dp.tsv").exists()

    def test_zero_replicates_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            entry(["prior-sim", "--n", "5", "--replicates", "0",
                   "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    def test_bad_b_usage_error(self, tmp_path, capsys):
        rc = entry(["prior-sim", "--n", "5", "--replicates", "10",
                    "--b", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--b" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["--version"])
        assert exc.value.code == 0
        assert "motifclust" in capsys.readouterr().out
