"""Child-process runner for one flowgraph command, with in-memory spans.

Run as a script, it calls ``flowgraph.cli.main`` -- the entry point the
``flowgraph`` console script calls -- after wrapping functions of the
package's modules, and writes the spans it recorded to a JSON file when
the command ends::

    python3 perfbench/tracer.py --mode stages --record spans.json -- graph --input ...

``--mode stages`` wraps only the four CLI stage functions, which costs
four clock reads per stage; the untimed end-to-end runs use it to split
``run-all`` into stages. ``--mode full`` wraps every function in
``WRAPS``: the traced run that gives the per-layer metrics.

Every name in ``WRAPS`` must exist and all its bindings must be the same
function, or the runner exits non-zero before the command starts; after
the command, every span a stage is known to cause must have been
recorded. A refactor therefore cannot silently drop a span.

Imported as a module (by the parent), it only provides ``layer_metrics``
and the metric names; it does not import flowgraph.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time

# span name -> the bindings through which flowgraph calls the function.
# The first binding is the function's home; the others are names that
# other modules imported and call it through.
STAGE_WRAPS = {
    "cli.graph": ["flowgraph.cli:cmd_graph"],
    "cli.cluster": ["flowgraph.cli:cmd_cluster"],
    "cli.train": ["flowgraph.cli:cmd_train"],
    "cli.report": ["flowgraph.cli:cmd_report"],
}
WRAPS = {
    **STAGE_WRAPS,
    "flow_model.parse_flows": ["flowgraph.flow_model:parse_flows", "flowgraph.cli:parse_flows"],
    "temporal.dissect": ["flowgraph.temporal:dissect", "flowgraph.cli:dissect"],
    "behavior_graph.build_graph": ["flowgraph.behavior_graph:build_graph"],
    "behavior_graph.write_graph_text": ["flowgraph.behavior_graph:write_graph_text"],
    "behavior_graph.read_graph_text": ["flowgraph.behavior_graph:read_graph_text"],
    "behavior_graph.normalize_features": [
        "flowgraph.behavior_graph:normalize_features",
        "flowgraph.density_cluster.aggregate:normalize_features"],
    "density_cluster.cluster_snapshot": [
        "flowgraph.density_cluster.aggregate:cluster_snapshot", "flowgraph.cli:cluster_snapshot"],
    "density_cluster.cluster_points": [
        "flowgraph.density_cluster:cluster_points",
        "flowgraph.density_cluster.aggregate:cluster_points"],
    "density_cluster.aggregate": ["flowgraph.density_cluster.aggregate:aggregate"],
    "density_cluster.write_clustered_text": [
        "flowgraph.density_cluster.aggregate:write_clustered_text",
        "flowgraph.cli:write_clustered_text"],
    "density_cluster.write_assignment_csv": [
        "flowgraph.density_cluster.aggregate:write_assignment_csv",
        "flowgraph.cli:write_assignment_csv"],
    "density_cluster.read_clustered_text": [
        "flowgraph.density_cluster.aggregate:read_clustered_text",
        "flowgraph.cli:read_clustered_text"],
    "spectral_gcn.train": ["flowgraph.spectral_gcn.model:train", "flowgraph.spectral_gcn:train"],
    "spectral_gcn.union_matrices": [
        "flowgraph.spectral_gcn.graph_ops:union_matrices",
        "flowgraph.spectral_gcn.model:union_matrices"],
    "spectral_gcn.build_operator": ["flowgraph.spectral_gcn.model:build_operator"],
    "spectral_gcn.loss_and_grads": ["flowgraph.spectral_gcn.model:loss_and_grads"],
    "spectral_gcn.evaluate": ["flowgraph.spectral_gcn.model:evaluate",
                              "flowgraph.spectral_gcn:evaluate"],
    "spectral_gcn.save_model": ["flowgraph.spectral_gcn.model:save_model",
                                "flowgraph.spectral_gcn:save_model"],
    "spectral_gcn.write_loss_trace_csv": [
        "flowgraph.spectral_gcn.model:write_loss_trace_csv",
        "flowgraph.spectral_gcn:write_loss_trace_csv"],
    "report.population_series": ["flowgraph.report:population_series"],
    "report.write_population_csv": ["flowgraph.report:write_population_csv"],
    "report.clustering_effects_table": ["flowgraph.report:clustering_effects_table"],
    "report.write_effects_csv": ["flowgraph.report:write_effects_csv"],
}

# spans each stage must cause in a full trace
STAGE_CHILDREN = {
    "cli.graph": ["flow_model.parse_flows", "temporal.dissect",
                  "behavior_graph.build_graph", "behavior_graph.write_graph_text"],
    "cli.cluster": ["behavior_graph.read_graph_text", "density_cluster.cluster_snapshot",
                    "behavior_graph.normalize_features", "density_cluster.cluster_points",
                    "density_cluster.aggregate", "density_cluster.write_clustered_text",
                    "density_cluster.write_assignment_csv"],
    "cli.train": ["density_cluster.read_clustered_text", "spectral_gcn.train",
                  "spectral_gcn.union_matrices", "spectral_gcn.build_operator",
                  "spectral_gcn.loss_and_grads", "spectral_gcn.evaluate",
                  "spectral_gcn.save_model", "spectral_gcn.write_loss_trace_csv"],
    "cli.report": ["behavior_graph.read_graph_text", "density_cluster.read_clustered_text",
                   "report.population_series", "report.write_population_csv",
                   "report.clustering_effects_table", "report.write_effects_csv"],
}


def _counts_parse(args, result):
    return {"rows": len(result.records)}


def _counts_graph(args, result):
    return {"nodes": result.n_nodes, "edges": len(result.edges)}


def _counts_written(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _counts_points(args, result):
    return {"points": int(args[0].shape[0]), "algorithm": args[1].algorithm,
            "noise": int((result.assignment == -1).sum())}


def _counts_aggregate(args, result):
    return {"normal": len(args[1].assignment),
            "supernodes": sum(1 for node in result.nodes if node.kind == "cluster")}


def _counts_union(args, result):
    return {"nodes": int(result[0].shape[0]), "edges": sum(len(g.edges) for g in args[0])}


# per-span counters, computed after the span closes so they cost it nothing
COUNTERS = {
    "flow_model.parse_flows": _counts_parse,
    "temporal.dissect": lambda args, result: {"snapshots": len(result)},
    "behavior_graph.build_graph": _counts_graph,
    "behavior_graph.write_graph_text": _counts_written,
    "density_cluster.cluster_points": _counts_points,
    "density_cluster.aggregate": _counts_aggregate,
    "spectral_gcn.union_matrices": _counts_union,
    "spectral_gcn.build_operator": lambda args, result: {"bytes": int(result.nbytes)},
}


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self._open[-1] if self._open else -1,
                               time.perf_counter(), None, None])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                self.spans[index][4] = counter(args, result)
            return result
        return traced


class MissingName(RuntimeError):
    """A name the runner must wrap is gone or no longer the same function."""


def _resolve(binding: str):
    module_name, attr = binding.split(":")
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        raise MissingName(f"module of {binding} does not exist; update WRAPS") from None
    if not hasattr(module, attr):
        raise MissingName(f"{binding} does not exist; update perfbench/tracer.py WRAPS")
    return module, attr, getattr(module, attr)


def install(tracer: Tracer, wraps: dict[str, list[str]]) -> None:
    """Replace every binding in ``wraps`` (and the CLI dispatch table)."""
    import flowgraph.cli as cli

    commands = getattr(cli, "_COMMANDS", None)
    if not isinstance(commands, dict):
        raise MissingName("flowgraph.cli._COMMANDS dispatch table does not exist")
    for name, bindings in wraps.items():
        resolved = [_resolve(binding) for binding in bindings]
        original = resolved[0][2]
        for binding, (_, _, fn) in zip(bindings, resolved):
            if fn is not original:
                raise MissingName(f"{binding} is not {bindings[0]}; update WRAPS")
        traced = tracer.wrap(name, original)
        # rebind every alias, including re-exports WRAPS does not list
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "flowgraph":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
        for command, fn in commands.items():
            if fn is original:
                commands[command] = traced


def missing_children(spans: list[list]) -> list[str]:
    """Expected spans that a recorded stage did not cause."""
    seen = {span[0] for span in spans}
    missing = []
    for stage, children in STAGE_CHILDREN.items():
        if stage in seen:
            missing += [f"{stage} -> {child}" for child in children if child not in seen]
    return missing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=["stages", "full"], required=True)
    parser.add_argument("--record", required=True, help="JSON file for the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    try:
        install(tracer, WRAPS if args.mode == "full" else STAGE_WRAPS)
    except MissingName as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return 3
    import flowgraph.cli as cli

    code = cli.main(cli_args)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    if code == 0 and args.mode == "full":
        missing = missing_children(tracer.spans)
        if missing:
            print(f"tracer: spans not recorded: {', '.join(missing)}", file=sys.stderr)
            return 3
    return code


# ---------------------------------------------------------------------------
# per-layer metrics, computed in the parent from the recorded spans

# name -> (unit, better)
LAYER_METRICS = {
    "flow_model.parse_s": ("s", "lower"),
    "flow_model.rows": ("count", "higher"),
    "flow_model.rows_per_s": ("1/s", "higher"),
    "temporal.dissect_s": ("s", "lower"),
    "temporal.snapshots": ("count", "higher"),
    "behavior_graph.build_s": ("s", "lower"),
    "behavior_graph.build_ms_p50": ("ms", "lower"),
    "behavior_graph.build_ms_p90": ("ms", "lower"),
    "behavior_graph.nodes": ("count", "higher"),
    "behavior_graph.edges": ("count", "higher"),
    "behavior_graph.write_s": ("s", "lower"),
    "behavior_graph.bytes_written": ("bytes", "lower"),
    "behavior_graph.read_s": ("s", "lower"),
    "behavior_graph.reads": ("count", "lower"),
    "behavior_graph.normalize_s": ("s", "lower"),
    "density_cluster.dbscan_s": ("s", "lower"),
    "density_cluster.optics_s": ("s", "lower"),
    "density_cluster.hdbscan_s": ("s", "lower"),
    "density_cluster.cluster_ms_p50": ("ms", "lower"),
    "density_cluster.cluster_ms_p90": ("ms", "lower"),
    "density_cluster.points": ("count", "higher"),
    "density_cluster.aggregate_s": ("s", "lower"),
    "density_cluster.noise_ratio": ("ratio", "lower"),
    "density_cluster.compression": ("ratio", "lower"),
    "density_cluster.clustered_write_s": ("s", "lower"),
    "density_cluster.assignment_write_s": ("s", "lower"),
    "density_cluster.clustered_read_s": ("s", "lower"),
    "density_cluster.clustered_reads": ("count", "lower"),
    "spectral_gcn.union_s": ("s", "lower"),
    "spectral_gcn.union_nodes": ("count", "higher"),
    "spectral_gcn.union_edges": ("count", "higher"),
    "spectral_gcn.operator_s": ("s", "lower"),
    "spectral_gcn.operator_mb": ("MB", "lower"),
    "spectral_gcn.epoch_ms_p50": ("ms", "lower"),
    "spectral_gcn.epoch_ms_p90": ("ms", "lower"),
    "spectral_gcn.epochs": ("count", "higher"),
    "spectral_gcn.evaluate_s": ("s", "lower"),
    "spectral_gcn.model_write_s": ("s", "lower"),
    "report.population_s": ("s", "lower"),
    "report.effects_s": ("s", "lower"),
    "cli.graph_s": ("s", "lower"),
    "cli.cluster_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.graph_self_s": ("s", "lower"),
    "cli.cluster_self_s": ("s", "lower"),
    "cli.train_self_s": ("s", "lower"),
    "cli.report_self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one or more commands' spans (no overhead ratio).

    Layers a command did not reach report 0.
    """
    by_name: dict[str, list[list]] = {}
    self_times: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, span in enumerate(spans):
        name, _, start, end, _ = span
        by_name.setdefault(name, []).append(span)
        self_times[name] = self_times.get(name, 0.0) + end - start - child_time[index]

    def total(*names: str) -> float:
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, []))

    def ms(name: str) -> list[float]:
        return [1000.0 * (s[3] - s[2]) for s in by_name.get(name, [])]

    def counted(name: str, key: str) -> list:
        return [s[4][key] for s in by_name.get(name, [])]

    # the training union and operator; evaluate builds its own, timed in evaluate_s
    in_train = {name: [s for s in by_name.get(name, [])
                       if s[1] >= 0 and spans[s[1]][0] == "spectral_gcn.train"]
                for name in ("spectral_gcn.union_matrices", "spectral_gcn.build_operator")}
    unions, operators = in_train.values()

    parse_s = total("flow_model.parse_flows")
    rows = sum(counted("flow_model.parse_flows", "rows"))
    points = by_name.get("density_cluster.cluster_points", [])
    n_points = sum(s[4]["points"] for s in points)
    normal = sum(counted("density_cluster.aggregate", "normal"))
    out = {
        "flow_model.parse_s": parse_s,
        "flow_model.rows": rows,
        "flow_model.rows_per_s": rows / parse_s if parse_s else 0.0,
        "temporal.dissect_s": total("temporal.dissect"),
        "temporal.snapshots": sum(counted("temporal.dissect", "snapshots")),
        "behavior_graph.build_s": total("behavior_graph.build_graph"),
        "behavior_graph.build_ms_p50": percentile(ms("behavior_graph.build_graph"), 0.5),
        "behavior_graph.build_ms_p90": percentile(ms("behavior_graph.build_graph"), 0.9),
        "behavior_graph.nodes": sum(counted("behavior_graph.build_graph", "nodes")),
        "behavior_graph.edges": sum(counted("behavior_graph.build_graph", "edges")),
        "behavior_graph.write_s": total("behavior_graph.write_graph_text"),
        "behavior_graph.bytes_written": sum(counted("behavior_graph.write_graph_text", "bytes")),
        "behavior_graph.read_s": total("behavior_graph.read_graph_text"),
        "behavior_graph.reads": len(by_name.get("behavior_graph.read_graph_text", [])),
        "behavior_graph.normalize_s": total("behavior_graph.normalize_features"),
        "density_cluster.cluster_ms_p50": percentile(ms("density_cluster.cluster_points"), 0.5),
        "density_cluster.cluster_ms_p90": percentile(ms("density_cluster.cluster_points"), 0.9),
        "density_cluster.points": n_points,
        "density_cluster.aggregate_s": total("density_cluster.aggregate"),
        "density_cluster.noise_ratio": (sum(s[4]["noise"] for s in points) / n_points
                                        if n_points else 0.0),
        "density_cluster.compression": (sum(counted("density_cluster.aggregate", "supernodes"))
                                        / normal if normal else 0.0),
        "density_cluster.clustered_write_s": total("density_cluster.write_clustered_text"),
        "density_cluster.assignment_write_s": total("density_cluster.write_assignment_csv"),
        "density_cluster.clustered_read_s": total("density_cluster.read_clustered_text"),
        "density_cluster.clustered_reads": len(by_name.get("density_cluster.read_clustered_text", [])),
        "spectral_gcn.union_s": sum(s[3] - s[2] for s in unions),
        "spectral_gcn.union_nodes": max((s[4]["nodes"] for s in unions), default=0),
        "spectral_gcn.union_edges": max((s[4]["edges"] for s in unions), default=0),
        "spectral_gcn.operator_s": sum(s[3] - s[2] for s in operators),
        "spectral_gcn.operator_mb": max((s[4]["bytes"] for s in operators), default=0) / 1e6,
        "spectral_gcn.epoch_ms_p50": percentile(ms("spectral_gcn.loss_and_grads"), 0.5),
        "spectral_gcn.epoch_ms_p90": percentile(ms("spectral_gcn.loss_and_grads"), 0.9),
        "spectral_gcn.epochs": len(by_name.get("spectral_gcn.loss_and_grads", [])),
        "spectral_gcn.evaluate_s": total("spectral_gcn.evaluate"),
        "spectral_gcn.model_write_s": total("spectral_gcn.save_model",
                                            "spectral_gcn.write_loss_trace_csv"),
        "report.population_s": total("report.population_series", "report.write_population_csv"),
        "report.effects_s": total("report.clustering_effects_table", "report.write_effects_csv"),
    }
    for algorithm in ("dbscan", "optics", "hdbscan"):
        out[f"density_cluster.{algorithm}_s"] = sum(
            s[3] - s[2] for s in points if s[4]["algorithm"] == algorithm)
    for stage in ("graph", "cluster", "train", "report"):
        out[f"cli.{stage}_s"] = total(f"cli.{stage}")
        out[f"cli.{stage}_self_s"] = self_times.get(f"cli.{stage}", 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
