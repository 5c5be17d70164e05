"""Seeded synthetic flow-trace generator.

Two populations with controllable imbalance, built for exercising the
pipeline end to end rather than for protocol realism.

Normal entities (one per 10.0.0.0/16 host, each bound to one port)
emit evenly spaced flows to a rotating ring of peers, so within any
downstream snapshot window every normal entity shows near-identical
connectivity (same in/out-degree, same flow count, same number of
contacted ports) and byte/packet/duration totals that concentrate
tightly. The normal population of a snapshot therefore forms one dense
region in feature space.

Attack entities (172.16.0.0/16) initiate scan-style traffic: every
scan flow goes to a freshly allocated victim endpoint
(192.168.0.0/16), and on top of the scans each attacker probes the
next attacker on the same even schedule the ring uses, so attackers
keep a steady trickle of inbound flows. Under
``behaviour_separation="high"`` attack flows carry tiny byte counts,
1-3 packets and sub-second durations on top of the high fan-out;
under ``"low"`` their volume statistics are drawn from the normal
distributions and only the connection structure differs.

A flow's label is 1 exactly when an attack-designated entity initiated
it. Victims of scans consequently inherit attack-majority labels
downstream, which mirrors how compromised-endpoint populations surface
in labeled captures.

`generate` returns the trace as one `FlowTable`, the form `parse_flows`
gives: each entity is validated once, the ring and probe schedules are
columns, and the normal volumes come from one `rng.lognormal` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_integers
from .flow_model import _COLUMNS, EntityId, FlowTable

_NORMAL_PEERS = 3  # ring partners contacted per cycle
# 256 * 200 hosts fill 10.0.0.0/16; 40000 + k must stay a valid port
MAX_NORMAL_ENTITIES = 51_200
MAX_ATTACK_ENTITIES = 25_536
# a trace is built in memory, a few hundred bytes per flow at its peak;
# both populations at their caps ask for 34.3 million flows over a day
MAX_FLOWS = 50_000_000


@dataclass
class SynthConfig:
    seed: int = 0
    duration: float = 86400.0
    n_normal_entities: int = 120
    n_attack_entities: int = 2
    flows_per_entity_rate: float = 0.005  # flows/second per normal entity
    attack_fraction_of_flows: float = 0.05
    behaviour_separation: str = "high"

    def __post_init__(self):
        require_integers(self, "seed", "n_normal_entities", "n_attack_entities")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_normal_entities < 0 or self.n_attack_entities < 0:
            raise ValueError("entity counts must be >= 0")
        if self.n_normal_entities > MAX_NORMAL_ENTITIES:
            raise ValueError(f"n_normal_entities must be <= {MAX_NORMAL_ENTITIES}, "
                             f"got {self.n_normal_entities}")
        if self.n_attack_entities > MAX_ATTACK_ENTITIES:
            raise ValueError(f"n_attack_entities must be <= {MAX_ATTACK_ENTITIES}, "
                             f"got {self.n_attack_entities}")
        if self.duration < 0 or self.flows_per_entity_rate < 0:
            raise ValueError("duration and rate must be >= 0")
        if not 0.0 <= self.attack_fraction_of_flows <= 1.0:
            raise ValueError("attack_fraction_of_flows must be in [0, 1]")
        if self.behaviour_separation not in ("low", "high"):
            raise ValueError(
                f"behaviour_separation must be low or high, got {self.behaviour_separation!r}")
        if not (self.flows_per_entity_rate * self.duration <= MAX_FLOWS  # and not NaN
                and sum(self.flow_counts()[1:]) <= MAX_FLOWS):
            raise ValueError(f"the configuration asks for more than {MAX_FLOWS} flows")

    def flow_counts(self) -> tuple[int, int, int, int]:
        """(flows per sender, normal flows, scans, attacker probes) of the trace."""
        f = self.attack_fraction_of_flows
        flows_each = round(self.flows_per_entity_rate * self.duration)
        n_normal_flows = self.n_normal_entities * flows_each if f < 1.0 else 0
        n_probes = self.n_attack_entities * flows_each if f > 0.0 else 0
        n_scans = round(n_normal_flows * f / (1.0 - f)) if f < 1.0 else n_probes
        return flows_each, n_normal_flows, n_scans if n_probes else 0, n_probes


def _normal_entity(i: int) -> EntityId:
    return EntityId(f"10.0.{i // 200}.{i % 200 + 1}", 1000 + i)


def _attack_entity(k: int) -> EntityId:
    return EntityId(f"172.16.{k // 200}.{k % 200 + 1}", 40000 + k)


def _victim_entity(v: int) -> EntityId:
    # 51,200 = 256 * 200 victims fill 192.168.0.0/16 once; each later
    # round reuses those hosts on a fresh block of 1024 ports (63 rounds
    # fit the port range)
    return EntityId(f"192.168.{v // 200 % 256}.{v % 200 + 1}",
                    1 + v % 1024 + 1024 * (v // 51_200))


def _normal_volumes(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """(duration, sent, received, packets) columns of `count` normal flow volumes.

    Each volume is three lognormal draws: sent bytes (median 3000),
    received bytes (median 8000) and duration (median 1 s). Each column's
    law is broadcast over the rows, drawn in row order, so the values are
    those of 3 * count scalar `rng.lognormal` calls in turn.
    """
    draws = rng.lognormal(mean=(np.log(3000.0), np.log(8000.0), 0.0), sigma=(0.1, 0.1, 0.2),
                          size=(count, 3))
    sent, received = draws[:, :2].T.astype(np.int64)
    # a copy of the strided column, so that the draws are freed on return
    return [draws[:, 2].copy(), sent, received, np.maximum(2, (sent + received) // 800)]


def _attack_volumes(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """(duration, sent, received, packets) columns of `count` scan-like flow volumes.

    Drawn one flow at a time, sent, received, packets, then duration:
    batched bounded integers would consume the stream differently.
    """
    rows = np.array([(rng.integers(40, 201), rng.integers(0, 61), rng.integers(1, 4),
                      rng.uniform(0.01, 0.1)) for _ in range(count)]).reshape(count, 4)
    return [rows[:, 3], *rows[:, :3].T.astype(np.int64)]


def _schedule(rng: np.random.Generator, senders: int, flows_each: int, spacing: float):
    """(sender, start time) of `flows_each` evenly spaced flows per sender at a random phase."""
    phases = rng.uniform(0.0, spacing, size=senders)
    return (np.repeat(np.arange(senders), flows_each),
            (phases[:, None] + np.arange(flows_each) * spacing).ravel())


def generate(config: SynthConfig) -> FlowTable:
    """Deterministic labeled trace, sorted by start time.

    Entities are listed once each, and only those that some flow has as
    an endpoint: the normal ones, the attackers, then one victim per scan.
    """
    rng = np.random.default_rng(config.seed)
    n, m = config.n_normal_entities, config.n_attack_entities
    flows_each, n_normal_flows, n_scans, n_probes = config.flow_counts()
    spacing = config.duration / flows_each if flows_each else 0.0
    entities: list[EntityId] = []
    # the FlowTable columns of the ring, the scans and the probes, in the
    # order they are drawn
    parts = []

    if n_normal_flows:  # a lone entity rings to itself (self-loop flows)
        entities += map(_normal_entity, range(n))
        src, start = _schedule(rng, n, flows_each, spacing)
        peer = (src + 1 + np.tile(np.arange(flows_each) % _NORMAL_PEERS, n)) % n
        parts.append([src, peer, start, *_normal_volumes(rng, n_normal_flows), 0])

    if n_probes:
        volumes = _attack_volumes if config.behaviour_separation == "high" else _normal_volumes
        a = len(entities)  # code of the first attacker
        entities += map(_attack_entity, range(m))
        times = np.sort(rng.uniform(0.0, config.duration, size=n_scans))
        scan = np.arange(n_scans)
        entities += map(_victim_entity, scan.tolist())
        parts.append([a + scan % m, a + m + scan, times, *volumes(rng, n_scans), 1])

        # Attackers also probe each other on the same even schedule as the
        # ring, so every attacker keeps receiving flows in every window.
        k, start = _schedule(rng, m, flows_each, spacing)
        parts.append([a + k, a + (k + 1) % m, start, *volumes(rng, n_probes), 1])

    def column(c: int, dtype) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype)] + [np.broadcast_to(part[c], len(part[0]))
                                                      for part in parts])

    # one column at a time, so that only one unsorted copy is alive at once
    order = np.argsort(column(2, np.float64), kind="stable")
    return FlowTable(entities, **{name: column(c, dtype)[order]
                                  for c, (name, dtype) in enumerate(_COLUMNS.items())})
