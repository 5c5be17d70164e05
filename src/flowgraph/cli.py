"""Command-line pipeline orchestration.

Commands cover the two phases end to end:

    synth     write a seeded synthetic flow CSV
    graph     flow CSV -> per-snapshot behaviour graph files
    cluster   graph files -> clustered (super-node) graph files + assignment CSVs
    train     clustered graphs -> model file + loss trace + test-split metrics
    report    population series + clustering-effects table
    run-all   graph, cluster, train, report in order

Stages communicate through the documented on-disk text formats, so any
stage can be re-run or inspected in isolation. Options come from an
optional JSON config file (--config) overridden by command-line flags;
the GCN's training settings are `spectral_gcn` constants, not options.
The FLOWGRAPH_LOG environment variable sets the log level.

Layout under --out-dir:

    flows.csv                         (synth)
    graphs/snapshot_XXXXX.txt         (graph)
    clusters/<tag>/snapshot_XXXXX.txt (cluster; tag like dbscan_eps0.2)
    assignments/<tag>/snapshot_XXXXX.csv
    model.txt, loss_trace.csv, metrics.csv (train)
    reports/<stem>_<algorithm>_<eps>.csv, <stem>_effects.csv (report; stem of --input)
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import behavior_graph, report, spectral_gcn, synth
from .density_cluster import (ALGORITHMS, ClusterParams, cluster_snapshot, parse_tag,
                              read_clustered_text, write_assignment_csv, write_clustered_text)
from .errors import EmptyCapture, FlowgraphError, NonPositiveParameter, OutOfMemory
from .flow_model import ON_MALFORMED, check_on_malformed, parse_flows, write_flows
from .temporal import check_width, dissect

log = logging.getLogger("flowgraph")

_VARIANT_BY_FLAG = {"gcn": spectral_gcn.VARIANT_RENORMALIZED,
                    "cheb": spectral_gcn.VARIANT_CHEBYSHEV}
_TRAIN_FRACTION = 0.7  # share of the snapshots, in time order, that train


@dataclass
class PipelineConfig:
    input: str | None = None
    on_malformed: str = "abort"
    out_dir: str = "out"
    width: float = 600.0
    algorithm: str = "dbscan"
    eps: float = 0.5
    variant: str = "gcn"  # gcn = first-order renormalized, cheb = chebyshev
    k: int | None = None  # TrainConfig's default per variant (gcn: 1, cheb: 3)
    seed: int = 0
    jobs: int = 1
    synth: dict = field(default_factory=dict)

    def __post_init__(self):
        check_width(self.width)
        check_on_malformed(self.on_malformed)
        if self.jobs < 1:
            raise NonPositiveParameter(f"jobs must be >= 1, got {self.jobs}")
        if self.variant not in _VARIANT_BY_FLAG:
            raise ValueError(f"unknown variant {self.variant!r}, "
                             f"not one of {tuple(_VARIANT_BY_FLAG)}")
        # refuse a bad value before any stage writes, not when its stage runs
        self.cluster_params()
        self.train_config()
        self.synth_config()

    @property
    def dataset_name(self) -> str:
        return Path(self.input).stem if self.input else "synthetic"

    def cluster_params(self) -> ClusterParams:
        return ClusterParams(algorithm=self.algorithm, eps=self.eps)

    def train_config(self) -> spectral_gcn.TrainConfig:
        return spectral_gcn.TrainConfig(variant=_VARIANT_BY_FLAG[self.variant], k=self.k,
                                        seed=self.seed)

    def synth_config(self) -> synth.SynthConfig:
        kwargs = dict(self.synth)
        kwargs.setdefault("seed", self.seed)
        return synth.SynthConfig(**kwargs)


_JSON_KINDS = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false", dict: "an object", type(None): "null"}


def _check_config_keys(values: dict, cls, prefix: str = "") -> None:
    """Reject keys `cls` has no field for and values of the wrong JSON type.

    An integer fits a float field; true/false fits only a bool field;
    null fits only a field whose default is None.
    """
    hints = typing.get_type_hints(cls)
    unknown = sorted(f"{prefix}{key}" for key in set(values) - set(hints))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in values.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)
        # by exact type: true/false is a bool, not an int
        if not (type(value) in kinds or (type(value) is int and float in kinds)):
            expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
            raise ValueError(f"config key '{prefix}{key}' must be {expected}, "
                             f"got {json.dumps(value)}")


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults <- JSON config file <- explicit command-line flags."""
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        _check_config_keys(loaded, PipelineConfig)
        _check_config_keys(loaded.get("synth", {}), synth.SynthConfig, "synth.")
        values.update(loaded)
    for name, flag in vars(args).items():
        if name not in ("command", "config") and flag is not None:
            values[name] = flag
    return PipelineConfig(**values)


def _out(config: PipelineConfig, *parts: str) -> Path:
    path = Path(config.out_dir).joinpath(*parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _remove_snapshot_files(config: PipelineConfig, subdir: str, suffix: str) -> None:
    """Delete what an earlier run wrote under `subdir`, so no stale snapshot outlives it."""
    for stale in Path(config.out_dir).glob(f"{subdir}/snapshot_*{suffix}"):
        stale.unlink()


def cmd_synth(config: PipelineConfig) -> Path:
    flows = synth.generate(config.synth_config())
    path = _out(config, "flows.csv")
    write_flows(path, flows)
    log.info("synth: %d flows -> %s", len(flows), path)
    return path


def cmd_graph(config: PipelineConfig) -> list[Path]:
    path = config.input
    if not path:
        raise ValueError("no input file; pass --input or set it in the config")
    result = parse_flows(path, on_malformed=config.on_malformed)
    if not len(result.records):
        raise EmptyCapture(f"{path}: no accepted flows ({result.skipped_rows} "
                           f"malformed rows skipped)")
    if result.skipped_rows:
        log.warning("graph: skipped %d malformed rows", result.skipped_rows)
    buckets = dissect(result.records, config.width)
    # every clustered and assignment file was derived from the graphs replaced here
    for subdir, suffix in (("graphs", ".txt"), ("clusters/*", ".txt"), ("assignments/*", ".csv")):
        _remove_snapshot_files(config, subdir, suffix)
    # in this process: a pool task would pickle the whole capture's entity list
    paths = [_out(config, "graphs", f"snapshot_{s.index:05d}.txt") for s in buckets]
    for path, (snapshot, flows) in zip(paths, buckets.items()):
        behavior_graph.write_graph_text(path, behavior_graph.build_graph(flows, snapshot=snapshot))
    log.info("graph: %d snapshots -> %s", len(paths), Path(config.out_dir) / "graphs")
    return paths


def _snapshot_files(config: PipelineConfig, subdir: str, stage: str) -> list[Path]:
    """The snapshot files `stage` wrote under `subdir`; at least one."""
    files = sorted(Path(config.out_dir).glob(f"{subdir}/snapshot_*.txt"))
    if not files:
        raise FileNotFoundError(f"no snapshot files under {config.out_dir}/{subdir}; "
                                f"run the {stage} stage first")
    return files


def _cluster_task(item):
    graph_path, params, clustered_path, assignment_path = item
    graph = behavior_graph.read_graph_text(graph_path)
    cluster_result, clustered = cluster_snapshot(graph, params)
    write_clustered_text(clustered_path, clustered)
    write_assignment_csv(assignment_path, cluster_result)
    return clustered_path


def cmd_cluster(config: PipelineConfig) -> list[Path]:
    params = config.cluster_params()
    tag = params.tag()
    tasks = []
    for graph_path in _snapshot_files(config, "graphs", "graph"):
        stem = graph_path.stem
        tasks.append((graph_path, params,
                      _out(config, "clusters", tag, f"{stem}.txt"),
                      _out(config, "assignments", tag, f"{stem}.csv")))
    _remove_snapshot_files(config, f"clusters/{tag}", ".txt")
    _remove_snapshot_files(config, f"assignments/{tag}", ".csv")
    paths = _run_tasks(_cluster_task, tasks, config.jobs)
    log.info("cluster: %d snapshots -> %s", len(paths),
             Path(config.out_dir) / "clusters" / tag)
    return paths


def cmd_train(config: PipelineConfig) -> Path:
    tag = config.cluster_params().tag()
    graphs = sorted((read_clustered_text(p)
                     for p in _snapshot_files(config, f"clusters/{tag}", "cluster")),
                    key=lambda g: g.snapshot.index)
    # a temporal split: the earliest snapshots train, the rest test
    cut = int(len(graphs) * _TRAIN_FRACTION)
    train_graphs = [g for g in graphs[:cut] if g.n_nodes > 0]
    test_graphs = [g for g in graphs[cut:] if g.n_nodes > 0]
    if not train_graphs:
        raise ValueError("temporal split left no non-empty training snapshots")
    model, losses = spectral_gcn.train(train_graphs, config.train_config())
    model_path = _out(config, "model.txt")
    spectral_gcn.save_model(model_path, model)
    spectral_gcn.write_loss_trace_csv(_out(config, "loss_trace.csv"), losses)

    if not test_graphs:
        log.warning("train: temporal split left no test snapshots")
    spectral_gcn.write_metrics_csv(_out(config, "metrics.csv"), model, test_graphs)
    log.info("train: %d train / %d test snapshots, final loss %s -> %s",
             len(train_graphs), len(test_graphs), losses[-1], model_path)
    return model_path


def cmd_report(config: PipelineConfig) -> list[Path]:
    tag = config.cluster_params().tag()
    # each file is reduced to its snapshot index and labels as it is read, so
    # that memory follows the node count, not the graphs of every run
    labels = [(g.snapshot.index, g.labels) for g in map(
        behavior_graph.read_graph_text, _snapshot_files(config, "graphs", "graph"))]
    _snapshot_files(config, f"clusters/{tag}", "cluster")  # the configured run must exist
    runs = {}
    for tag_dir in sorted(Path(config.out_dir).glob("clusters/*")):
        files = sorted(tag_dir.glob("snapshot_*.txt"))
        if files:  # a tag a graph re-run emptied gets no row in the effects table
            runs[tag_dir.name] = [(g.snapshot.index, g.labels)
                                  for g in map(read_clustered_text, files)]
    rows = report.population_series(labels, runs[tag])
    series_path = _out(config, "reports",
                       report.run_filename(config.dataset_name, *parse_tag(tag)))
    report.write_population_csv(series_path, rows)

    table = report.clustering_effects_table(
        [(*parse_tag(name), [y for _, y in run]) for name, run in runs.items()])
    effects_path = _out(config, "reports", f"{config.dataset_name}_effects.csv")
    report.write_effects_csv(effects_path, table)
    log.info("report: %s, %s", series_path, effects_path)
    return [series_path, effects_path]


def cmd_run_all(config: PipelineConfig) -> None:
    cmd_graph(config)
    cmd_cluster(config)
    cmd_train(config)
    cmd_report(config)


def _run_tasks(task, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [task(item) for item in items]
    # imported here: the process pool module costs every command's start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(task, items))


_COMMANDS = {
    "synth": cmd_synth,
    "graph": cmd_graph,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "report": cmd_report,
    "run-all": cmd_run_all,
}


def _build_parser() -> argparse.ArgumentParser:
    # every command takes every option; the values' owners, not argparse, refuse a bad one
    parser = argparse.ArgumentParser(prog="flowgraph", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--input", help="flow CSV path")
    parser.add_argument("--malformed", dest="on_malformed",
                        help=f"what a malformed CSV row does: {' or '.join(ON_MALFORMED)}")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--width", type=float, help="snapshot width in seconds")
    parser.add_argument("--algorithm", help=f"one of {', '.join(ALGORITHMS)}")
    parser.add_argument("--eps", type=float)
    parser.add_argument("--variant", help=f"one of {', '.join(_VARIANT_BY_FLAG)}")
    parser.add_argument("--k", type=int, help="polynomial order (gcn: 1; cheb: default 3)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int, help="parallel snapshot workers of the cluster stage")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = getattr(logging, os.environ.get("FLOWGRAPH_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args)
        try:
            _COMMANDS[args.command](config)
        except MemoryError as exc:  # also a pool worker's, which the pool re-raises here
            raise OutOfMemory(f"out of memory: {exc or type(exc).__name__}") from exc
    except (FlowgraphError, ValueError, OSError) as exc:
        print(f"flowgraph {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
