"""Quantitative views over a pipeline run, emitted as CSV.

Two products: the per-snapshot population series (how many normal /
attack entities each snapshot holds and how many normal entities
remain once clusters are collapsed to super-nodes), and the
clustering-effects table comparing algorithms/parameters by the
normal population left after clustering and its share of the whole
population. The share uses (clustered normal + attack) as denominator,
i.e. the population of the aggregated graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density_cluster import eps_text
from .errors import LengthMismatch


@dataclass
class PopulationRow:
    snapshot_index: int
    normal_count: int
    attack_count: int
    clustered_normal_count: int

    def __post_init__(self):
        if min(self.normal_count, self.attack_count, self.clustered_normal_count) < 0:
            raise ValueError("population counts must be >= 0")
        if self.clustered_normal_count > self.normal_count:
            raise ValueError(
                f"snapshot {self.snapshot_index}: clustered normal count "
                f"{self.clustered_normal_count} exceeds normal count {self.normal_count}")


def population_series(graphs, clustered_graphs) -> list[PopulationRow]:
    """One row per snapshot, ordered by snapshot index.

    `clustered_graphs` must correspond 1:1 (same snapshots) to `graphs`.
    """
    if len(graphs) != len(clustered_graphs):
        raise LengthMismatch(
            f"{len(graphs)} snapshot graphs vs {len(clustered_graphs)} clustered graphs")
    rows = []
    for g, cg in sorted(zip(graphs, clustered_graphs), key=lambda pair: pair[0].snapshot.index):
        if g.snapshot.index != cg.snapshot.index:
            raise LengthMismatch(
                f"snapshot {g.snapshot.index} paired with clustered snapshot "
                f"{cg.snapshot.index}")
        rows.append(PopulationRow(
            snapshot_index=g.snapshot.index,
            normal_count=int((g.labels == 0).sum()),
            attack_count=int((g.labels == 1).sum()),
            clustered_normal_count=int((cg.labels == 0).sum()),
        ))
    return rows


def series_totals(rows: list[PopulationRow]) -> tuple[int, int, int]:
    """(normal_total, attack_total, clustered_normal_total)."""
    return (sum(r.normal_count for r in rows),
            sum(r.attack_count for r in rows),
            sum(r.clustered_normal_count for r in rows))


def write_population_csv(path, rows: list[PopulationRow]) -> None:
    """Per-snapshot rows followed by `total` and `mean` summary rows."""
    normal_total, attack_total, clustered_total = series_totals(rows)
    n = len(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("snapshot,normal_count,attack_count,clustered_normal_count\n")
        for r in rows:
            fh.write(f"{r.snapshot_index},{r.normal_count},{r.attack_count},"
                     f"{r.clustered_normal_count}\n")
        fh.write(f"total,{normal_total},{attack_total},{clustered_total}\n")
        if n:
            fh.write(f"mean,{normal_total / n!r},{attack_total / n!r},"
                     f"{clustered_total / n!r}\n")


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


def run_totals(clustered_graphs) -> tuple[int, int]:
    """(clustered_normal_total, attack_total) over one run's snapshots."""
    attack = sum(int(cg.labels.sum()) for cg in clustered_graphs)
    return sum(cg.n_nodes for cg in clustered_graphs) - attack, attack


def clustering_effects_table(runs) -> list[EffectsRow]:
    """Rows from (method, eps, clustered graphs) triples, input order."""
    rows = []
    for method, eps, clustered_graphs in runs:
        clustered_normal, attack = run_totals(clustered_graphs)
        rows.append(EffectsRow(method=method, eps=eps,
                               clustered_normal_total=clustered_normal,
                               attack_total=attack))
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
