"""Tests of the benchmark itself: inputs, output checks, tracer, environment.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import bench
import inputs
import tracer

TINY_SYNTH = dict(duration=7200.0, n_normal=30)


def _tiny(name, input_name, make_input, steps):
    return bench.Workload(name, "test", input_name, make_input, tuple(steps))


TINY_PIPELINE = _tiny("pipeline", "flows.csv",
                      lambda p, s: inputs.synthetic_capture(p, s, **TINY_SYNTH),
                      bench.WORKLOADS["pipeline"].steps)
TINY_SWEEP = _tiny("sweep", "flows.csv",
                   lambda p, s: inputs.synthetic_capture(p, s, **TINY_SYNTH),
                   [bench.WORKLOADS["sweep"].steps[i] for i in (0, 1, 5, 7, 8)])
TINY_GRAPH = _tiny("graph", "flows.csv", lambda p, s: inputs.synthetic_capture(p, s, **TINY_SYNTH),
                   bench.WORKLOADS["sweep"].steps[:1])


def _iterate(workload, tmp_path, mode, expected=None):
    path = tmp_path / workload.input_name
    workload.make_input(path, 1)
    return bench.run_iteration(workload, path, tmp_path, mode, expected,
                               time.monotonic() + 120.0)


def test_pipeline_input_is_flowgraph_synth_at_seed_0(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"duration": bench.PIPELINE_DURATION}}))
    env = dict(os.environ, PYTHONPATH=str(bench.ROOT / "src"))
    subprocess.run([sys.executable, "-m", "flowgraph.cli", "synth", "--seed", "0",
                    "--config", str(config), "--out-dir", str(tmp_path)], env=env, check=True)
    bench.WORKLOADS["pipeline"].make_input(tmp_path / "ours.csv", 0)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "flows.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_inputs_are_deterministic(tmp_path, name):
    make = bench.WORKLOADS[name].make_input
    rows = [make(tmp_path / f"{i}.csv", seed) for i, seed in enumerate((3, 3, 4))]
    assert rows[0] == rows[1] > 0
    first, again, other = (bench.sha256_file(tmp_path / f"{i}.csv") for i in range(3))
    assert first == again != other


def test_output_check_catches_a_tampered_file(tmp_path):
    iteration = _iterate(TINY_PIPELINE, tmp_path, "stages")
    assert iteration.complete, [c.problems for c in iteration.commands]
    out = tmp_path / "out"
    run_all, cheb = TINY_PIPELINE.steps
    graphs = {"graphs": iteration.commands[0].observed["graphs"]}
    reference = iteration.commands[1].observed  # the cheb train's outputs are last on disk
    assert not bench.compare(bench.observe(out, run_all), graphs)
    assert not bench.compare(bench.observe(out, cheb), reference)

    graph = sorted((out / "graphs").iterdir())[3]
    graph.write_text(graph.read_text().replace(" 1\n", " 2\n", 1))
    assert bench.compare(bench.observe(out, run_all), graphs) == [
        "graphs: digest differs from the reference"]

    model = out / "model.txt"
    tokens = model.read_text().split()

    def nudged(factor):
        model.write_text(" ".join(repr(float(t) * factor) if "." in t else t for t in tokens))
        return bench.compare(bench.observe(out, cheb), reference)

    assert nudged(1.0 + 1e-9) == []
    assert nudged(1.0 + 1e-3) == [f"model.txt: {sum('.' in t for t in tokens)} numbers "
                                  "outside the tolerance"]


def test_failed_check_counts_as_failed_command(tmp_path):
    good = _iterate(TINY_GRAPH, tmp_path, "stages")
    expected = [dict(c.observed) for c in good.commands]
    assert _iterate(TINY_GRAPH, tmp_path, "stages", expected).complete
    expected[0]["graphs"] = "0" * 64
    bad = _iterate(TINY_GRAPH, tmp_path, "stages", expected)
    assert bad.failed == 1 and "graphs" in bad.commands[0].problems[0]


def test_traced_runner_covers_every_layer(tmp_path):
    spans = []
    for workload in (TINY_PIPELINE, TINY_SWEEP, TINY_GRAPH):
        work = tmp_path / workload.name
        work.mkdir()
        iteration = _iterate(workload, work, "full")
        assert iteration.complete, [c.problems for c in iteration.commands]
        merged = iteration.spans()
        assert all(0 <= s[2] <= s[3] for s in merged)
        assert all(s[1] < i for i, s in enumerate(merged))
        spans.append(tracer.layer_metrics(merged))
    names = set(tracer.LAYER_METRICS) - {"trace.overhead_ratio"}
    for metrics in spans:
        assert set(metrics) == names
        assert all(metrics[f"cli.{s}_self_s"] >= 0 for s in ("graph", "cluster", "train", "report"))
    untouched = [n for n in names if not any(m[n] > 0 for m in spans)]
    assert not untouched
    # a graph-only command reaches no later layer
    graph_only = spans[2]
    assert all(graph_only[n] == 0 for n in names
               if n.split(".")[0] in ("density_cluster", "spectral_gcn", "report"))


def test_tracer_fails_loudly_on_a_missing_name():
    with pytest.raises(tracer.MissingName, match="no_such_function"):
        tracer.install(tracer.Tracer(), {"x": ["flowgraph.cli:no_such_function"]})
    with pytest.raises(tracer.MissingName, match="is not"):
        tracer.install(tracer.Tracer(), {"x": ["flowgraph.flow_model:parse_flows",
                                               "flowgraph.temporal:dissect"]})
    spans = [["cli.graph", -1, 0.0, 1.0, None], ["flow_model.parse_flows", 0, 0.1, 0.2, None]]
    assert "cli.graph -> temporal.dissect" in tracer.missing_children(spans)


def test_tracer_names_all_exist():
    for bindings in tracer.WRAPS.values():
        for binding in bindings:
            tracer._resolve(binding)


def test_child_runs_under_the_memory_limit(tmp_path):
    code = "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])"
    done = bench.spawn([sys.executable, "-c", code], tmp_path / "log", time.monotonic() + 60)
    assert done.code == 0
    assert int((tmp_path / "log").read_text()) == bench.MEMORY_LIMIT


def test_environment_record():
    env = bench.environment()
    assert env["nproc"] >= 1 and env["cpus_usable"] >= 1
    assert env["python"].count(".") == 2 and env["numpy"][0].isdigit()
    assert env["blas"] and env["blas_threads"] == 1
    assert env["cpu_model"]
    assert len(env["loadavg_at_start"]) == 3
    assert all(v >= 0 for v in env["loadavg_at_start"])


def test_stage_times_are_command_wall_times_and_run_all_splits_by_spans():
    def command(args, wall, spans=()):
        return bench.Command(list(args), 0, wall, wall, 1.0, list(spans), {}, [])

    run_all = command(["run-all"], 10.0, [["cli.graph", -1, 0.5, 2.5, None],
                                          ["cli.cluster", -1, 2.5, 5.5, None],
                                          ["cli.train", -1, 5.5, 9.5, None],
                                          ["cli.report", -1, 9.5, 9.75, None]])
    iteration = bench.Iteration("stages", [run_all, command(["cluster"], 1.5),
                                           command(["cluster"], 0.5), command(["report"], 2.0)])
    metrics = bench.iteration_metrics(iteration, 280)
    # run-all's 0.75 s outside the stage spans counts to graph
    assert metrics == {"flows_per_s": 20.0, "graph_s": 2.75, "cluster_s": 5.0,
                       "train_s": 4.0, "report_s": 2.25, "peak_rss_mb": 1.0}


def test_union_and_operator_metrics_count_only_the_training_union():
    def span(name, parent, seconds, counts=None):
        return [name, parent, 0.0, seconds, counts]

    spans = [span("spectral_gcn.train", -1, 5.0),
             span("spectral_gcn.union_matrices", 0, 1.0, {"nodes": 300, "edges": 900}),
             span("spectral_gcn.build_operator", 0, 2.0, {"bytes": 720000}),
             span("spectral_gcn.evaluate", -1, 1.0),
             span("spectral_gcn.union_matrices", 3, 0.25, {"nodes": 400, "edges": 1200}),
             span("spectral_gcn.build_operator", 3, 0.5, {"bytes": 1280000})]
    metrics = tracer.layer_metrics(spans)
    assert (metrics["spectral_gcn.union_s"], metrics["spectral_gcn.union_nodes"],
            metrics["spectral_gcn.union_edges"], metrics["spectral_gcn.operator_s"],
            metrics["spectral_gcn.operator_mb"]) == (1.0, 300, 900, 2.0, 0.72)
    assert metrics["spectral_gcn.evaluate_s"] == 1.0


def test_flows_per_s_is_all_flows_over_all_wall_time():
    def iteration(graph, report):
        return bench.Iteration("stages", [
            bench.Command(["graph"], 0, graph, graph, 1.0, [], {}, []),
            bench.Command(["report"], 0, report, report, 1.0, [], {}, [])])

    # three iterations of 300 flows in 10, 6 and 4 s
    run = bench.Run("sweep", 0, 0, False, 300, "0" * 64, {}, [0.2, 0.4, 0.3],
                    [iteration(1.0, 9.0), iteration(5.0, 1.0), iteration(2.0, 2.0)])
    values = run.values()
    assert values["flows_per_s"] == 900 / 20.0
    assert values["setup_s"] == 0.3
    assert values["graph_s"] == 2.0 and values["report_s"] == 2.0
