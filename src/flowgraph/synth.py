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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow_model import EntityId, FlowRecord

_NORMAL_PEERS = 3  # ring partners contacted per cycle
# 256 * 200 hosts fill 10.0.0.0/16; 40000 + k must stay a valid port
MAX_NORMAL_ENTITIES = 51_200
MAX_ATTACK_ENTITIES = 25_536


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


def _normal_volume(rng: np.random.Generator):
    sent = int(rng.lognormal(np.log(3000.0), 0.1))
    received = int(rng.lognormal(np.log(8000.0), 0.1))
    packets = max(2, (sent + received) // 800)
    duration = float(rng.lognormal(0.0, 0.2))
    return sent, received, packets, duration


def _attack_volume(rng: np.random.Generator):
    sent = int(rng.integers(40, 201))
    received = int(rng.integers(0, 61))
    packets = int(rng.integers(1, 4))
    duration = float(rng.uniform(0.01, 0.1))
    return sent, received, packets, duration


def generate(config: SynthConfig) -> list[FlowRecord]:
    """Deterministic labeled trace, sorted by start time."""
    rng = np.random.default_rng(config.seed)
    records: list[FlowRecord] = []

    n = config.n_normal_entities
    flows_each = int(round(config.flows_per_entity_rate * config.duration))
    n_normal_flows = n * flows_each if config.attack_fraction_of_flows < 1.0 else 0

    if n_normal_flows:  # a lone entity rings to itself (self-loop flows)
        spacing = config.duration / flows_each
        phases = rng.uniform(0.0, spacing, size=n)
        for i in range(n):
            src = _normal_entity(i)
            for j in range(flows_each):
                peer = (i + 1 + j % _NORMAL_PEERS) % n
                sent, received, packets, flow_duration = _normal_volume(rng)
                records.append(FlowRecord(
                    src=src, dst=_normal_entity(peer),
                    start_time=float(phases[i] + j * spacing),
                    duration=flow_duration,
                    bytes_src_to_dst=sent, bytes_dst_to_src=received,
                    packets_total=packets, label=0,
                ))

    if config.n_attack_entities > 0 and config.attack_fraction_of_flows > 0.0:
        volume = _attack_volume if config.behaviour_separation == "high" else _normal_volume
        f = config.attack_fraction_of_flows
        if f < 1.0:
            n_attack_flows = int(round(len(records) * f / (1.0 - f)))
        else:
            n_attack_flows = config.n_attack_entities * flows_each
        times = np.sort(rng.uniform(0.0, config.duration, size=n_attack_flows))
        for j in range(n_attack_flows):
            src = _attack_entity(j % config.n_attack_entities)
            dst = _victim_entity(j)
            sent, received, packets, flow_duration = volume(rng)
            records.append(FlowRecord(
                src=src, dst=dst, start_time=float(times[j]),
                duration=flow_duration,
                bytes_src_to_dst=sent, bytes_dst_to_src=received,
                packets_total=packets, label=1,
            ))

        # Attackers also probe each other on the same even schedule as the
        # ring, so every attacker keeps receiving flows in every window.
        m = config.n_attack_entities
        if flows_each:
            spacing = config.duration / flows_each
            probe_phases = rng.uniform(0.0, spacing, size=m)
            for k in range(m):
                src = _attack_entity(k)
                dst = _attack_entity((k + 1) % m)
                for j in range(flows_each):
                    sent, received, packets, flow_duration = volume(rng)
                    records.append(FlowRecord(
                        src=src, dst=dst,
                        start_time=float(probe_phases[k] + j * spacing),
                        duration=flow_duration,
                        bytes_src_to_dst=sent, bytes_dst_to_src=received,
                        packets_total=packets, label=1,
                    ))

    records.sort(key=lambda r: r.start_time)
    return records
