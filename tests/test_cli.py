"""End-to-end tests of the command-line pipeline.

Each test drives `flowgraph.cli.main` with a small synthetic capture
(5 snapshots, ~1.4k flows) so full runs stay fast.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowgraph
from flowgraph.cli import _COMMANDS, PipelineConfig, main
from flowgraph.density_cluster import (ClusterParams, ClusterResult, DistanceRows,
                                      write_clustered_text)
from flowgraph.density_cluster.aggregate import aggregate
from flowgraph.spectral_gcn import TrainConfig
from flowgraph.spectral_gcn.model import GcnModel
from oracles import graph_from, with_node_field

SMALL_SYNTH = {
    "duration": 3000.0,
    "n_normal_entities": 20,
    "n_attack_entities": 2,
    "flows_per_entity_rate": 0.02,
    "attack_fraction_of_flows": 0.05,
}


METRICS_HEADER = ("snapshot,accuracy,precision_normal,precision_attack,recall_normal,"
                  "recall_attack,balanced_accuracy,n_nodes")


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    values = {
        "input": str(out_dir / "flows.csv"),
        "out_dir": str(out_dir),
        "synth": SMALL_SYNTH,
        "seed": 0,
    }
    values.update(overrides)
    path.write_text(json.dumps(values))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_graph_process_does_not_import_numpy_ma(tmp_path):
    # importing numpy.ma costs every graph process about 13 ms and 1 MB;
    # numpy 2's plain np.unique imports it
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    check = ("import sys; from flowgraph.cli import main; code = main(sys.argv[1:]); "
             "print('numpy.ma' in sys.modules); sys.exit(code)")
    src = Path(flowgraph.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", check, "graph", "--config", str(cfg)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert len(list((out / "graphs").glob("snapshot_*.txt"))) == 5


def test_package_root_imports_no_module():
    # the package root re-exports nothing, so importing one module loads only what it uses
    src = Path(flowgraph.__file__).parents[1]
    modules = sorted(".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
                     for p in (src / "flowgraph").rglob("*.py"))
    check = ("import importlib, json, sys\n"
             "def loaded(): return sorted(m for m in sys.modules if m.startswith('flowgraph.'))\n"
             "import flowgraph\n"
             "root = loaded()\n"
             "import flowgraph.flow_model\n"
             "flow_model = loaded()\n"
             "for name in sys.argv[1:]:  # each module from no flowgraph module loaded\n"
             "    for m in [m for m in sys.modules if m.split('.')[0] == 'flowgraph']:\n"
             "        del sys.modules[m]\n"
             "    importlib.import_module(name)\n"
             "print(json.dumps([root, flow_model]))\n")
    done = subprocess.run([sys.executable, "-c", check, *modules],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    root, flow_model = json.loads(done.stdout.splitlines()[-1])
    assert root == []
    assert not {"flowgraph.density_cluster", "flowgraph.spectral_gcn", "flowgraph.synth",
                "flowgraph.report"} & set(flow_model), flow_model
    assert {"flowgraph", "flowgraph.cli", "flowgraph.density_cluster.hdbscan"} <= set(modules)


def test_synth_then_run_all_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert (out / "flows.csv").exists()
    assert run("run-all", "--config", cfg) == 0

    graphs = sorted((out / "graphs").glob("snapshot_*.txt"))
    assert len(graphs) == 5
    assert graphs[0].name == "snapshot_00000.txt"
    clustered = sorted((out / "clusters" / "dbscan_eps0.5").glob("snapshot_*.txt"))
    assignments = sorted((out / "assignments" / "dbscan_eps0.5").glob("snapshot_*.csv"))
    assert len(clustered) == len(assignments) == 5

    assert (out / "model.txt").exists()
    trace = (out / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,loss"
    assert len(trace) == 1 + 200  # EPOCHS
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == METRICS_HEADER
    assert metrics[-1].startswith("union,")
    assert len(metrics) == 1 + 2 + 1  # 2 test snapshots + union row

    # reports are named from the input file stem
    assert (out / "reports" / "flows_dbscan_0.5.csv").exists()
    effects = (out / "reports" / "flows_effects.csv").read_text().splitlines()
    assert effects[0] == "method,eps,clustered_normal_total,attack_total,share_percent"
    assert effects[1].startswith("dbscan,0.5,")


def test_graph_stage_is_idempotent(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    first = tree_bytes(out / "graphs")
    assert run("graph", "--config", cfg) == 0
    assert tree_bytes(out / "graphs") == first


def test_run_all_matches_staged_stages(tmp_path):
    flows_dir = tmp_path / "shared"
    cfg_synth = write_config(tmp_path / "cfg_synth.json", flows_dir)
    assert run("synth", "--config", cfg_synth) == 0
    flows = flows_dir / "flows.csv"

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path / "cfg_a.json", out_a, input=str(flows))
    cfg_b = write_config(tmp_path / "cfg_b.json", out_b, input=str(flows))
    assert run("run-all", "--config", cfg_a) == 0
    for stage in ("graph", "cluster", "train", "report"):
        assert run(stage, "--config", cfg_b) == 0

    trees = tree_bytes(out_a), tree_bytes(out_b)
    assert set(trees[0]) == set(trees[1])
    # report names differ only via the input stem, which is shared here
    assert trees[0] == trees[1]


def test_parallel_jobs_match_serial(tmp_path):
    out_serial = tmp_path / "serial"
    out_par = tmp_path / "par"
    cfg_s = write_config(tmp_path / "cfg_s.json", out_serial)
    cfg_p = write_config(tmp_path / "cfg_p.json", out_par)
    for cfg, jobs in ((cfg_s, "1"), (cfg_p, "2")):
        assert run("synth", "--config", cfg) == 0
        assert run("graph", "--config", cfg, "--jobs", jobs) == 0
        assert run("cluster", "--config", cfg, "--jobs", jobs) == 0
        assert run("cluster", "--config", cfg, "--jobs", jobs, "--algorithm", "hdbscan") == 0
    assert (out_par / "clusters" / "hdbscan").is_dir()
    assert tree_bytes(out_serial / "graphs") == tree_bytes(out_par / "graphs")
    assert tree_bytes(out_serial / "clusters") == tree_bytes(out_par / "clusters")


@pytest.fixture
def recording_pool(monkeypatch):
    """The pool sizes the commands ask for; the fake pool starts no process."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, items):
            return map(task, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return asked


def two_snapshot_config(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out, synth={**SMALL_SYNTH, "duration": 1200.0})
    assert run("synth", "--config", cfg) == 0
    return out, cfg


def test_pool_starts_no_more_workers_than_snapshots(tmp_path, recording_pool):
    out, cfg = two_snapshot_config(tmp_path)
    assert run("graph", "--config", cfg) == 0
    assert run("cluster", "--config", cfg, "--jobs", "64") == 0
    assert len(list((out / "clusters" / "dbscan_eps0.5").glob("snapshot_*.txt"))) == 2
    assert recording_pool == [2]


def test_graph_stage_starts_no_pool(tmp_path, recording_pool):
    out, cfg = two_snapshot_config(tmp_path)
    assert run("graph", "--config", cfg, "--jobs", "64") == 0
    assert len(list((out / "graphs").glob("snapshot_*.txt"))) == 2
    assert recording_pool == []


def test_capture_with_no_accepted_flows_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    kept = tree_bytes(out / "graphs")
    header = (out / "flows.csv").read_text().splitlines()[0]
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(header + "\n")
    all_bad = tmp_path / "all_bad.csv"
    all_bad.write_text(header + "\n" + "10.0.0.1,80,10.0.0.2,x,0,1,1,1,1,0\n" * 3)
    for path, flags, skipped in ((header_only, (), 0), (all_bad, ("--malformed", "skip"), 3)):
        capsys.readouterr()
        assert run("graph", "--config", cfg, "--input", path, *flags) == 1
        assert capsys.readouterr().err == (f"flowgraph graph: error: {path}: no accepted flows "
                                           f"({skipped} malformed rows skipped)\n")
        # the graphs of the earlier run are neither deleted nor overwritten
        assert tree_bytes(out / "graphs") == kept


def test_graph_reads_the_schema_from_the_header(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    synthetic = tree_bytes(out / "graphs")
    # the same flows in unsw15 columns: a proto column, and packets split in two
    header, *rows = (out / "flows.csv").read_text().splitlines()
    unsw_header = "srcip,sport,dstip,dsport,proto,stime,dur,sbytes,dbytes,spkts,dpkts,label"
    unsw = tmp_path / "unsw.csv"
    unsw.write_text("\n".join([unsw_header] + [
        ",".join(f[:4] + ["tcp"] + f[4:9] + ["0", f[9]]) for f in (r.split(",") for r in rows)
    ]) + "\n")
    assert run("graph", "--config", cfg, "--input", unsw) == 0
    assert tree_bytes(out / "graphs") == synthetic

    # every unsw15 column but one (neither schema), and every column of both
    neither = tmp_path / "neither.csv"
    neither.write_text(unsw_header.replace(",dpkts", "") + "\n")
    both = tmp_path / "both.csv"
    both.write_text(f"{header},{unsw_header}\n")
    for path in (neither, both):
        assert run("graph", "--config", cfg, "--input", path) == 1
        assert capsys.readouterr().err.startswith(
            f"flowgraph graph: error: {path}: header names every column of ")
        assert tree_bytes(out / "graphs") == synthetic


def test_rerun_leaves_no_stale_snapshot_files(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out, synth={**SMALL_SYNTH, "duration": 7200.0})
    assert run("synth", "--config", cfg) == 0
    assert run("run-all", "--config", cfg, "--width", "600") == 0
    assert len(list((out / "graphs").glob("snapshot_*.txt"))) == 12
    assert run("run-all", "--config", cfg, "--width", "3600") == 0
    for subdir, suffix in (("graphs", ".txt"), ("clusters/dbscan_eps0.5", ".txt"),
                           ("assignments/dbscan_eps0.5", ".csv")):
        assert sorted(p.name for p in (out / subdir).iterdir()) \
            == [f"snapshot_00000{suffix}", f"snapshot_00001{suffix}"], subdir
    series = (out / "reports" / "flows_dbscan_0.5.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in series[1:]] == ["0", "1", "total", "mean"]


def test_graph_rerun_drops_every_tag_of_the_earlier_width(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out, synth={**SMALL_SYNTH, "duration": 7200.0})
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg, "--width", "600") == 0
    assert run("cluster", "--config", cfg, "--algorithm", "optics", "--eps", "0.5") == 0
    assert len(list((out / "clusters" / "optics_eps0.5").glob("snapshot_*.txt"))) == 12
    assert run("run-all", "--config", cfg, "--width", "3600",
               "--algorithm", "dbscan", "--eps", "0.5") == 0
    assert len(list((out / "graphs").glob("snapshot_*.txt"))) == 2
    for subdir in ("clusters/optics_eps0.5", "assignments/optics_eps0.5"):
        assert list((out / subdir).glob("snapshot_*")) == [], subdir
    effects = (out / "reports" / "flows_effects.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in effects[1:]] == [["dbscan", "0.5"]]


def test_eps_values_that_print_alike_keep_separate_runs(tmp_path):
    # both print 0.123457 under :g; each run keeps its own tag and its own eps
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    for eps in ("0.1234567", "0.1234568"):
        assert run("cluster", "--config", cfg, "--eps", eps) == 0
    for eps in ("0.1234567", "0.1234568"):
        assert len(list((out / "clusters" / f"dbscan_eps{eps}").glob("snapshot_*.txt"))) == 5
    assert run("report", "--config", cfg, "--eps", "0.1234568") == 0
    assert (out / "reports" / "flows_dbscan_0.1234568.csv").exists()
    effects = (out / "reports" / "flows_effects.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in effects[1:]] == [["dbscan", "0.1234567"],
                                                          ["dbscan", "0.1234568"]]


def test_bad_config_fails_before_any_stage_writes(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "shared")
    nan_width = write_config(tmp_path / "nan.json", tmp_path / "shared", width=float("nan"))
    assert run("synth", "--config", cfg) == 0
    for i, bad in enumerate((("--eps", "0"), ("--eps", "inf"), ("--eps", "nan"),
                             ("--variant", "gcn", "--k", "3"), ("--seed", "-1"),
                             ("--config", nan_width), ("--width", "inf"), ("--width", "nan"),
                             ("--width", "1e-17"))):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run("run-all", "--config", cfg, "--out-dir", out, *bad) == 1, bad
        assert "flowgraph run-all: error:" in capsys.readouterr().err, bad
        assert not (out / "graphs").exists(), bad


def test_every_option_is_checked_before_a_stage_runs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("run-all", "--config", cfg) == 0
    before = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.rglob("*") if p.is_file()}

    def refused(command, *argv) -> str:
        capsys.readouterr()
        assert run(command, *argv) == 1, (command, argv)
        err = capsys.readouterr().err
        assert err.startswith(f"flowgraph {command}: error:"), (command, argv)
        after = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.rglob("*") if p.is_file()}
        assert after == before, (command, argv)
        return err

    for bad in ({"on_malformed": "bogus"}, {"synth": {**SMALL_SYNTH, "seed": -1}}):
        bad_cfg = write_config(tmp_path / "bad.json", out, **bad)
        for command in ("cluster", "train", "report"):
            refused(command, "--config", bad_cfg)
    # a value's owner alone refuses it: a flag and a config key read the same
    for flag, key in (("--algorithm", "algorithm"), ("--variant", "variant"),
                      ("--malformed", "on_malformed")):
        bad_cfg = write_config(tmp_path / "bad.json", out, **{key: "bogus"})
        for command in ("cluster", "train", "report"):
            assert refused(command, "--config", cfg, flag, "bogus") \
                == refused(command, "--config", bad_cfg), (command, flag)
    # --jobs 0, as a flag or a config key, and a config file that holds a
    # JSON array are refused before any out-dir is made
    fresh = tmp_path / "fresh"
    jobs_cfg = write_config(tmp_path / "jobs.json", fresh, jobs=0)
    array_cfg = tmp_path / "array.json"
    array_cfg.write_text(json.dumps([{"out_dir": str(fresh)}]))
    for command in _COMMANDS:
        err = refused(command, "--config", cfg, "--out-dir", fresh, "--jobs", "0")
        assert err == refused(command, "--config", jobs_cfg), command
        assert "jobs must be >= 1, got 0" in err, command
        assert "config file must hold a JSON object" \
            in refused(command, "--config", array_cfg, "--out-dir", fresh), command
    assert not fresh.exists()


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    """A UTF-8 BOM, as Windows Notepad saves one, is dropped from a config file."""
    cfg = write_config(tmp_path / "cfg.json", tmp_path / "out")
    bom_cfg = tmp_path / "bom.json"
    bom_cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert run("synth", "--config", cfg) == 0
    assert run("synth", "--config", bom_cfg, "--out-dir", tmp_path / "bom") == 0
    assert (tmp_path / "bom" / "flows.csv").read_bytes() \
        == (tmp_path / "out" / "flows.csv").read_bytes()


def test_run_all_refuses_a_capture_with_no_training_snapshot(tmp_path, capsys):
    """One snapshot leaves the 70% temporal split no training snapshot."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out,
                       synth={"duration": 500.0, "n_normal_entities": 10})
    assert run("synth", "--config", cfg) == 0
    capsys.readouterr()
    assert run("run-all", "--config", cfg) == 1
    assert capsys.readouterr().err == ("flowgraph run-all: error: temporal split left "
                                       "no non-empty training snapshots\n")
    assert len(list((out / "graphs").glob("snapshot_*.txt"))) == 1
    assert not (out / "model.txt").exists()


def test_train_with_no_test_snapshot_writes_the_metrics_header_alone(tmp_path, caplog):
    """Empty clustered files on the test side of the split leave metrics.csv one line."""
    out = tmp_path / "out"
    tag_dir = out / "clusters" / "dbscan_eps0.5"
    tag_dir.mkdir(parents=True)
    for index, labels in enumerate([[0, 0, 1], [0, 1, 1], [], []]):
        graph = graph_from([[float(i)] * 8 for i in range(len(labels))], labels, index=index)
        normal = labels.count(0)  # all in one cluster
        clustered = aggregate(graph, ClusterResult(np.zeros(normal, dtype=np.int64), min(normal, 1)))
        write_clustered_text(tag_dir / f"snapshot_{index:05d}.txt", clustered)
    assert run("train", "--out-dir", out) == 0
    assert (out / "metrics.csv").read_text() == METRICS_HEADER + "\n"
    assert "temporal split left no test snapshots" in caplog.text
    assert (out / "model.txt").exists()


def test_one_parser_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--help")
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert all(command in help_text for command in _COMMANDS), help_text
    with pytest.raises(SystemExit) as exit_info:
        run("bogus")
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("flowgraph: error: argument command: invalid choice:"), last
    assert all(command in last for command in _COMMANDS), last


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)  # eps defaults to 0.5
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    assert run("cluster", "--config", cfg, "--eps", "0.2") == 0
    assert (out / "clusters" / "dbscan_eps0.2").is_dir()
    assert not (out / "clusters" / "dbscan_eps0.5").exists()


def test_nonpositive_eps_fails_with_diagnostic(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0 and run("graph", "--config", cfg) == 0
    for algorithm in ("dbscan", "optics"):
        for eps in ("0", "-inf", "inf", "nan"):
            capsys.readouterr()
            assert run("cluster", "--config", cfg, "--algorithm", algorithm, f"--eps={eps}") == 1
            err = capsys.readouterr().err
            assert "flowgraph cluster: error:" in err
            assert "eps must be finite and > 0" in err
    assert not (out / "clusters").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # the schema comes from the CSV header; the split and the adjacency are fixed
    for key, value in (("epoch", 20), ("schema", "unsw15"), ("train_fraction", 0.5),
                       ("weighted_adjacency", True)):
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), key: value}))
        assert run("synth", "--config", cfg) == 1, key
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err, key
    with pytest.raises(SystemExit) as exit_info:
        run("graph", "--schema", "unsw15")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --schema unsw15" in capsys.readouterr().err


def test_clustering_settings_are_algorithm_and_eps_only(tmp_path, capsys):
    # min_pts and min_cluster_size are the constants every run uses, so a
    # run's tag names all of its settings
    assert [f.name for f in dataclasses.fields(ClusterParams)] == ["algorithm", "eps"]
    for flag in (("--min-pts", "3"), ("--min-cluster-size", "10")):
        with pytest.raises(SystemExit) as exit_info:
            run("cluster", *flag)
        assert exit_info.value.code == 2, flag
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    out = tmp_path / "out"
    for key, value in (("min_pts", 3), ("min_cluster_size", 10)):
        cfg = write_config(tmp_path / "cfg.json", out, **{key: value})
        assert run("run-all", "--config", cfg) == 1, key
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err, key
        assert not out.exists(), key


def test_training_settings_are_variant_k_and_seed_only(tmp_path, capsys):
    # the hidden size, learning rate and epochs are the constants every model trains with
    assert [f.name for f in dataclasses.fields(TrainConfig)] == ["variant", "k", "seed"]
    assert [f.name for f in dataclasses.fields(GcnModel)] == ["config", "w0", "w1"]
    pipeline_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert not pipeline_fields & {"hidden", "learning_rate", "epochs"}
    out = tmp_path / "out"
    for key, value in (("hidden", 16), ("learning_rate", 0.01), ("epochs", 200)):
        cfg = write_config(tmp_path / "cfg.json", out, **{key: value})
        assert run("run-all", "--config", cfg) == 1, key
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err, key
        assert not out.exists(), key


def test_reports_are_named_from_the_input_stem_only(tmp_path, capsys):
    # no config key names the reports, so none can place them outside --out-dir
    assert "dataset" not in {f.name for f in dataclasses.fields(PipelineConfig)}
    out = tmp_path / "a" / "b" / "out"
    cfg = write_config(tmp_path / "cfg.json", out, dataset="../../escaped")
    for command in ("run-all", "report"):
        assert run(command, "--config", cfg) == 1, command
        assert "unknown config keys: ['dataset']" in capsys.readouterr().err, command
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_unknown_synth_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"),
                               "synth": {"durtion": 600}}))
    assert run("synth", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "flowgraph synth: error:" in err
    assert "synth.durtion" in err
    assert not (tmp_path / "out" / "flows.csv").exists()

    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "synth": 600}))
    assert run("synth", "--config", cfg) == 1
    assert "'synth' must be an object" in capsys.readouterr().err


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    for bad, key in (({"width": "600"}, "'width'"),
                     ({"eps": "0.2"}, "'eps'"),
                     ({"seed": 2.5}, "'seed'"),
                     ({"jobs": True}, "'jobs'"),
                     ({"eps": None}, "'eps'"),
                     ({"k": 1.5}, "'k'"),
                     ({"synth": {"duration": "600"}}, "'synth.duration'"),
                     ({"synth": {"duration": 1e300}}, "flows"),
                     ({"synth": {"n_normal_entities": 20.0}}, "'synth.n_normal_entities'")):
        cfg.write_text(json.dumps({"out_dir": out, **bad}))
        assert run("synth", "--config", cfg) == 1, bad
        err = capsys.readouterr().err
        assert "flowgraph synth: error:" in err, bad
        assert key in err, bad
    assert not (tmp_path / "out" / "flows.csv").exists()


def test_config_value_types_that_fit_are_accepted(tmp_path):
    # an integer where a number is expected, null where the default is None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "width": 600,
                               "eps": 1, "k": None,
                               "synth": {**SMALL_SYNTH, "duration": 600}}))
    assert run("synth", "--config", cfg) == 0
    assert (tmp_path / "out" / "flows.csv").is_file()


def test_missing_input_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
    assert run("graph", "--config", cfg) == 1
    assert "input" in capsys.readouterr().err

    assert run("graph", "--config", cfg, "--input",
               str(tmp_path / "nope.csv")) == 1
    err = capsys.readouterr().err
    assert "flowgraph graph: error:" in err


def test_cluster_before_graph_fails(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("cluster", "--config", cfg) == 1
    assert "graph stage" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [
    "1",
    pytest.param("2", marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patch reaches pool workers only through fork")),
])
def test_allocation_failure_exits_with_typed_error(tmp_path, capsys, monkeypatch, jobs):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0

    def fail(self, points):
        raise MemoryError("Unable to allocate 4.29 GiB for an array with shape (24000, 24000)")

    monkeypatch.setattr(DistanceRows, "__init__", fail)
    capsys.readouterr()
    assert run("cluster", "--config", cfg, "--jobs", jobs) == 1
    assert capsys.readouterr().err == (
        "flowgraph cluster: error: out of memory: Unable to allocate 4.29 GiB "
        "for an array with shape (24000, 24000)\n")


def test_truncated_artefacts_fail_with_diagnostic(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", out)
    assert run("synth", "--config", cfg) == 0
    assert run("graph", "--config", cfg) == 0
    assert run("cluster", "--config", cfg) == 0

    # a clustered file missing its last edge row
    clustered = next(p for p in sorted((out / "clusters" / "dbscan_eps0.5").glob("*.txt"))
                     if not p.read_text().endswith("weight\n"))
    lines = clustered.read_text().splitlines(keepends=True)
    clustered.write_text("".join(lines[:-1]))
    for command in ("train", "report"):
        capsys.readouterr()
        assert run(command, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert f"flowgraph {command}: error:" in err and clustered.name in err

    # a graph file cut inside its node table, then one whose first node has
    # label 2, then one whose first node has a nan f1
    graph = out / "graphs" / "snapshot_00001.txt"
    text = graph.read_text()
    lines = text.splitlines(keepends=True)
    for bad, where in (("".join(lines[:4]) + lines[4][:10], graph.name),
                       (with_node_field(text, 3, "2"), f"{graph.name}: line 4:"),
                       (with_node_field(text, 4, "nan"), f"{graph.name}: line 4: feature f1")):
        graph.write_text(bad)
        capsys.readouterr()
        assert run("cluster", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "flowgraph cluster: error:" in err and where in err
