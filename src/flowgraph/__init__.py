"""Behavioural entity graphs from labeled network-flow captures.

The toolkit turns a flow CSV into per-snapshot behaviour graphs,
compresses each snapshot's normal population with density clustering
(DBSCAN and OPTICS's eps extraction, one pass at min_pts 2, and
HDBSCAN, implemented here), and classifies node behaviour with a
from-scratch spectral graph convolutional network.
"""

from . import behavior_graph, density_cluster, report, spectral_gcn, synth, temporal
from .behavior_graph import SnapshotGraph, build_graph, normalize_features
from .density_cluster import ClusterParams, ClusterResult, cluster_snapshot
from .errors import FlowgraphError
from .flow_model import EntityId, FlowTable, parse_flows, write_flows
from .spectral_gcn import GcnModel, TrainConfig, evaluate, train
from .synth import SynthConfig, generate
from .temporal import SnapshotIndex, dissect

__version__ = "0.1.0"

__all__ = [
    "ClusterParams",
    "ClusterResult",
    "EntityId",
    "FlowTable",
    "FlowgraphError",
    "GcnModel",
    "SnapshotGraph",
    "SnapshotIndex",
    "SynthConfig",
    "TrainConfig",
    "__version__",
    "behavior_graph",
    "build_graph",
    "cluster_snapshot",
    "density_cluster",
    "dissect",
    "evaluate",
    "generate",
    "normalize_features",
    "parse_flows",
    "report",
    "spectral_gcn",
    "synth",
    "temporal",
    "train",
    "write_flows",
]
