from __future__ import annotations

import numpy as np
import pytest

from flowgraph.behavior_graph import build_graph
from flowgraph.flow_model import write_flows
from flowgraph.flow_model import EntityId, FlowTable
from flowgraph.synth import (MAX_ATTACK_ENTITIES, MAX_NORMAL_ENTITIES, SynthConfig,
                             _attack_entity, _normal_entity, _victim_entity, generate)
from flowgraph.temporal import dissect


def test_determinism_byte_identical(tmp_path):
    config = SynthConfig(seed=42, duration=3600.0, n_normal_entities=20)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flows(p1, generate(config))
    write_flows(p2, generate(config))
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ(tmp_path):
    base = dict(duration=3600.0, n_normal_entities=20)
    a = generate(SynthConfig(seed=0, **base))
    b = generate(SynthConfig(seed=1, **base))
    assert a != b


def test_no_attack_entities_means_all_normal():
    flows = generate(SynthConfig(seed=3, duration=3600.0,
                                 n_normal_entities=15, n_attack_entities=0))
    assert flows
    assert all(f.label == 0 for f in flows)


def test_default_run_fills_all_windows():
    flows = generate(SynthConfig(seed=0))
    buckets = dissect(FlowTable.from_records(flows), 600.0)
    assert len(buckets) == 144  # 86400 / 600
    assert all(fl for fl in buckets.values())


def test_flows_sorted_by_start_time():
    flows = generate(SynthConfig(seed=5, duration=7200.0, n_normal_entities=30))
    times = [f.start_time for f in flows]
    assert times == sorted(times)
    assert min(times) >= 0.0
    assert max(times) < 7200.0


def test_labels_follow_initiator():
    flows = generate(SynthConfig(seed=1, duration=7200.0, n_normal_entities=30))
    for f in flows:
        assert f.label == (1 if f.src.ip.startswith("172.16.") else 0)


def test_scan_targets_are_fresh_victims():
    flows = generate(SynthConfig(seed=2, duration=7200.0, n_normal_entities=30))
    scan_dsts = [f.dst for f in flows
                 if f.label == 1 and f.dst.ip.startswith("192.168.")]
    assert len(scan_dsts) == len(set(scan_dsts))  # one scan per victim


def test_more_scans_than_victim_hosts_get_distinct_endpoints():
    # 600 normal flows at a 99% attack share: 59,400 scans, more than the
    # 51,200 hosts of 192.168.0.0/16 that the victim numbering uses
    flows = generate(SynthConfig(seed=0, duration=12000.0, n_normal_entities=10,
                                 attack_fraction_of_flows=0.99))
    scan_dsts = [f.dst for f in flows if f.dst.ip.startswith("192.168.")]
    assert len(scan_dsts) == 59_400
    assert len(set(scan_dsts)) == len(scan_dsts)
    for v in (0, 199, 200, 51_199):  # unchanged below the wrap
        assert _victim_entity(v) == EntityId(f"192.168.{v // 200}.{v % 200 + 1}",
                                             1 + v % 1024)


def test_attack_share_near_nominal():
    flows = generate(SynthConfig(seed=0))
    share = sum(f.label for f in flows) / len(flows)
    # scans target 5% plus the fixed attacker-to-attacker probe schedule
    assert 0.04 < share < 0.10


def test_high_separation_recovers_attack_entities():
    """Graph labeling agrees with the designated populations.

    Attack initiators only ever touch attack flows and ring entities
    only normal flows, so per-window majority labels should recover
    both designations in (essentially) every window.
    """
    flows = generate(SynthConfig(seed=0, duration=14400.0, n_normal_entities=40))
    agreements = []
    for _, window in dissect(FlowTable.from_records(flows), 600.0).items():
        graph = build_graph(window)
        for e, label in zip(graph.entities, graph.labels):
            designated_attack = e.ip.startswith(("172.16.", "192.168."))
            agreements.append(label == int(designated_attack))
    assert np.mean(agreements) >= 0.95


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_normal_entities=-1)
    with pytest.raises(ValueError):
        SynthConfig(attack_fraction_of_flows=1.5)
    with pytest.raises(ValueError):
        SynthConfig(behaviour_separation="medium")
    with pytest.raises(ValueError):
        SynthConfig(duration=-60.0)


def test_entity_counts_capped_at_address_limits():
    # the limits are tight: the last allowed entity of each population
    # has a valid address and the next one would not
    _normal_entity(MAX_NORMAL_ENTITIES - 1)
    _attack_entity(MAX_ATTACK_ENTITIES - 1)
    with pytest.raises(ValueError, match="IP address"):
        _normal_entity(MAX_NORMAL_ENTITIES)
    with pytest.raises(ValueError, match="port"):
        _attack_entity(MAX_ATTACK_ENTITIES)
    SynthConfig(n_normal_entities=MAX_NORMAL_ENTITIES,
                n_attack_entities=MAX_ATTACK_ENTITIES)
    with pytest.raises(ValueError, match="n_normal_entities must be <= 51200"):
        SynthConfig(n_normal_entities=MAX_NORMAL_ENTITIES + 1)
    with pytest.raises(ValueError, match="n_attack_entities must be <= 25536"):
        SynthConfig(n_attack_entities=MAX_ATTACK_ENTITIES + 1)


def test_low_separation_still_labels_by_initiator():
    flows = generate(SynthConfig(seed=4, duration=3600.0, n_normal_entities=20,
                                 behaviour_separation="low"))
    attack = [f for f in flows if f.label == 1]
    assert attack
    # volumes are drawn from the normal distributions under low separation
    assert np.mean([f.bytes_src_to_dst for f in attack]) > 1000
