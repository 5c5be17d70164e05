"""Quantitative views over a pipeline run, emitted as CSV.

Two products: the per-snapshot population series (how many normal /
attack entities each snapshot holds and how many normal entities
remain once clusters are collapsed to super-nodes), and the
clustering-effects table comparing algorithms/parameters by the
normal population left after clustering and its share of the whole
population. The share uses (clustered normal + attack) as denominator,
i.e. the population of the aggregated graphs. Both count node labels
only (0 normal or a cluster, 1 attack), so a caller keeps each
snapshot's labels, not its graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density_cluster import eps_text
from .errors import LengthMismatch

_COUNTS = ("normal_count", "attack_count", "clustered_normal_count")


@dataclass
class PopulationRow:
    snapshot_index: int
    normal_count: int
    attack_count: int
    clustered_normal_count: int


def population_series(labels, clustered_labels) -> list[PopulationRow]:
    """One row per snapshot, ordered by snapshot index.

    `labels` and `clustered_labels` hold one `(snapshot index, node
    labels)` pair per behaviour graph and per clustered graph. Raises
    LengthMismatch unless they pair 1:1 by snapshot index, and
    ValueError when a clustered snapshot holds more normal nodes than
    its behaviour graph (both are read from files).
    """
    if len(labels) != len(clustered_labels):
        raise LengthMismatch(
            f"{len(labels)} snapshot graphs vs {len(clustered_labels)} clustered graphs")
    rows = []
    for (index, y), (clustered_index, clustered_y) in sorted(
            zip(labels, clustered_labels), key=lambda pair: pair[0][0]):
        if index != clustered_index:
            raise LengthMismatch(
                f"snapshot {index} paired with clustered snapshot {clustered_index}")
        normal, clustered_normal = int((y == 0).sum()), int((clustered_y == 0).sum())
        if clustered_normal > normal:
            raise ValueError(f"snapshot {index}: clustered normal count {clustered_normal} "
                             f"exceeds normal count {normal}")
        rows.append(PopulationRow(index, normal, len(y) - normal, clustered_normal))
    return rows


def write_population_csv(path, rows: list[PopulationRow]) -> None:
    """Per-snapshot rows followed by `total` and `mean` summary rows."""
    totals = [sum(getattr(r, name) for r in rows) for name in _COUNTS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(("snapshot", *_COUNTS)) + "\n")
        for r in rows:
            fh.write(f"{r.snapshot_index},{r.normal_count},{r.attack_count},"
                     f"{r.clustered_normal_count}\n")
        fh.write(",".join(("total", *map(str, totals))) + "\n")
        if rows:
            fh.write(",".join(("mean", *(repr(t / len(rows)) for t in totals))) + "\n")


@dataclass
class EffectsRow:
    method: str
    eps: float | None  # None when the algorithm takes no radius (hdbscan)
    clustered_normal_total: int
    attack_total: int

    @property
    def share_percent(self) -> float:
        """Percent of the aggregated population that is (clustered) normal."""
        population = self.clustered_normal_total + self.attack_total
        if population == 0:
            return 0.0
        return round(100.0 * self.clustered_normal_total / population, 2)


def clustering_effects_table(runs) -> list[EffectsRow]:
    """Rows from (method, eps, [clustered node labels per snapshot]) triples, input order."""
    rows = []
    for method, eps, labels in runs:
        clustered_normal = sum(int((y == 0).sum()) for y in labels)
        rows.append(EffectsRow(method, eps, clustered_normal,
                               sum(map(len, labels)) - clustered_normal))
    return rows


def write_effects_csv(path, rows: list[EffectsRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,eps,clustered_normal_total,attack_total,share_percent\n")
        for r in rows:
            eps = "" if r.eps is None else eps_text(r.eps)
            fh.write(f"{r.method},{eps},{r.clustered_normal_total},"
                     f"{r.attack_total},{r.share_percent:.2f}\n")


def run_filename(dataset: str, algorithm: str, eps: float | None) -> str:
    """`<dataset>_<algorithm>_<eps>.csv`; eps prints as `na` when absent."""
    eps_part = "na" if eps is None else eps_text(eps)
    return f"{dataset}_{algorithm}_{eps_part}.csv"
