from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgraph.behavior_graph import build_graph
from flowgraph.flow_model import EntityId, write_flows
from flowgraph.synth import (MAX_ATTACK_ENTITIES, MAX_FLOWS, MAX_NORMAL_ENTITIES, SynthConfig,
                             _attack_entity, _normal_entity, _victim_entity, generate)
from flowgraph.temporal import dissect
from oracles import synth_records, table_records

# SHA-256 of the CSV `flowgraph synth` writes for each configuration: a
# change to the draws, their order or the CSV formatting changes these bytes
RECORDED_DIGESTS = [
    (dict(seed=4, duration=3600.0, n_normal_entities=20, behaviour_separation="low"),
     "a808cd9321da5fe53d00cdf2a1c51c902c4f1bf92bb6a3039490f473f86f150a"),
    # 59,400 scans: victims wrap past the 51,200 hosts of 192.168.0.0/16
    (dict(seed=0, duration=12000.0, n_normal_entities=10, attack_fraction_of_flows=0.99),
     "df5352f450ed59b15435c1ec08ffe1d12b3a12ae77ecf5a3bf799879cd1f7737"),
    (dict(seed=3, duration=3600.0, n_normal_entities=15, n_attack_entities=0),
     "07b4d8a82e7513fbe85962a8bbf8e629f4d0a49cb96b599770292b42dad7ad28"),
    # a lone normal entity rings to itself
    (dict(seed=1, duration=3600.0, n_normal_entities=1),
     "64038b3004f130f0c3ed8b8a5fc3e8cc676ae60d9a34d7363442d4e47a8acb11"),
    (dict(seed=2, duration=3600.0, n_normal_entities=10, attack_fraction_of_flows=1.0),
     "ddd593b9fc53742f781afaba03f20ebceec19c42c636765d2a6feaf19c20f943"),
    (dict(seed=5, duration=7200.0, n_normal_entities=30, n_attack_entities=5),
     "a1cc2a77c178fea66374fcd2c6c20b24db65f8a7940fe14a768fbb9297c72aba"),
    (dict(seed=6, duration=3600.0, n_normal_entities=0),
     "6b69cf5f5cb13a1a56ac8de89961c701d23cd048a0debcaf9124177703677660"),
    # fewer than one flow per entity rounds to none: a header only
    (dict(seed=7, duration=50.0, n_normal_entities=5),
     "18ccfecdbb0c69bbf22f54474703ce1d32192a47ba84f89a03fb12f6321c948d"),
    (dict(seed=8, duration=1800.0, n_normal_entities=4, n_attack_entities=3,
          attack_fraction_of_flows=1.0, behaviour_separation="low"),
     "00e81d071c069a755d6de461c02a33b5f8207948e3a395e32e1e7f843ef59c38"),
    (dict(seed=9, duration=21600.0),
     "80dee9b9989fb23b0c33092cf0bda0202f9da02ca505688200b8cb9735341b9f"),
]


@pytest.mark.parametrize("fields, digest", RECORDED_DIGESTS)
def test_written_bytes_match_recorded_digests(tmp_path, fields, digest):
    path = tmp_path / "flows.csv"
    write_flows(path, generate(SynthConfig(**fields)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_determinism_byte_identical(tmp_path):
    config = SynthConfig(seed=42, duration=3600.0, n_normal_entities=20)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flows(p1, generate(config))
    write_flows(p2, generate(config))
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.builds(SynthConfig, seed=st.integers(0, 2**32 - 1),
                 duration=st.sampled_from([0.0, 50.0, 600.0, 1800.0, 3599.5]),
                 n_normal_entities=st.integers(0, 12), n_attack_entities=st.integers(0, 4),
                 flows_per_entity_rate=st.sampled_from([0.0, 0.001, 0.005, 0.02]),
                 attack_fraction_of_flows=st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
                 behaviour_separation=st.sampled_from(["low", "high"])))
def test_generate_matches_the_per_flow_oracle(config):
    flows = generate(config)
    assert table_records(flows) == synth_records(config)
    assert len(set(flows.entities)) == len(flows.entities)


def test_different_seeds_differ(tmp_path):
    base = dict(duration=3600.0, n_normal_entities=20)
    a, b = generate(SynthConfig(seed=0, **base)), generate(SynthConfig(seed=1, **base))
    assert not np.array_equal(a.start_time, b.start_time)
    assert not np.array_equal(a.bytes_src_to_dst, b.bytes_src_to_dst)
    paths = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flows(paths[0], a)
    write_flows(paths[1], b)
    assert paths[0].read_bytes() != paths[1].read_bytes()


def test_no_attack_entities_means_all_normal():
    flows = generate(SynthConfig(seed=3, duration=3600.0,
                                 n_normal_entities=15, n_attack_entities=0))
    assert len(flows)
    assert not flows.label.any()


def test_default_run_fills_all_windows():
    buckets = dissect(generate(SynthConfig(seed=0)), 600.0)
    assert len(buckets) == 144  # 86400 / 600
    assert all(len(fl) for fl in buckets.values())


def test_flows_sorted_by_start_time():
    flows = generate(SynthConfig(seed=5, duration=7200.0, n_normal_entities=30))
    times = flows.start_time.tolist()
    assert times == sorted(times)
    assert min(times) >= 0.0
    assert max(times) < 7200.0


def test_labels_follow_initiator():
    flows = table_records(generate(SynthConfig(seed=1, duration=7200.0, n_normal_entities=30)))
    assert flows
    for f in flows:
        assert f.label == (1 if f.src.ip.startswith("172.16.") else 0)


def test_scan_targets_are_fresh_victims():
    flows = table_records(generate(SynthConfig(seed=2, duration=7200.0, n_normal_entities=30)))
    scan_dsts = [f.dst for f in flows
                 if f.label == 1 and f.dst.ip.startswith("192.168.")]
    assert len(scan_dsts) == len(set(scan_dsts))  # one scan per victim


def test_more_scans_than_victim_hosts_get_distinct_endpoints():
    # 600 normal flows at a 99% attack share: 59,400 scans, more than the
    # 51,200 hosts of 192.168.0.0/16 that the victim numbering uses
    flows = table_records(generate(SynthConfig(seed=0, duration=12000.0, n_normal_entities=10,
                                               attack_fraction_of_flows=0.99)))
    scan_dsts = [f.dst for f in flows if f.dst.ip.startswith("192.168.")]
    assert len(scan_dsts) == 59_400
    assert len(set(scan_dsts)) == len(scan_dsts)
    for v in (0, 199, 200, 51_199):  # unchanged below the wrap
        assert _victim_entity(v) == EntityId(f"192.168.{v // 200}.{v % 200 + 1}",
                                             1 + v % 1024)


def test_attack_share_near_nominal():
    flows = generate(SynthConfig(seed=0))
    share = flows.label.sum() / len(flows)
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
    for _, window in dissect(flows, 600.0).items():
        graph = build_graph(window)
        for e, label in zip(graph.nodes, graph.labels):
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
    with pytest.raises(ValueError, match="seed"):
        SynthConfig(seed=-1)
    # a bool or non-integer is refused here, not later as a TypeError in numpy
    for name, value in (("n_normal_entities", 2.5), ("n_attack_entities", 1.5),
                        ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SynthConfig(**{name: value})


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
    flows = table_records(generate(SynthConfig(seed=4, duration=3600.0, n_normal_entities=20,
                                               behaviour_separation="low")))
    attack = [f for f in flows if f.label == 1]
    assert attack
    # volumes are drawn from the normal distributions under low separation
    assert np.mean([f.bytes_src_to_dst for f in attack]) > 1000


def test_entities_listed_once_normal_then_attackers_then_victims():
    flows = generate(SynthConfig(seed=5, duration=7200.0, n_normal_entities=30,
                                 n_attack_entities=5))
    n_scans = int(np.sum(flows.dst >= 35))
    assert n_scans > 0
    assert flows.entities == ([_normal_entity(i) for i in range(30)]
                              + [_attack_entity(k) for k in range(5)]
                              + [_victim_entity(v) for v in range(n_scans)])
    # each victim is the endpoint of exactly one flow
    assert np.array_equal(np.sort(flows.dst[flows.dst >= 35]), np.arange(35, 35 + n_scans))


@pytest.mark.parametrize("kwargs", [
    dict(n_normal_entities=30, n_attack_entities=5),
    dict(n_normal_entities=10, attack_fraction_of_flows=1.0),  # no normal flows
    dict(n_normal_entities=10, attack_fraction_of_flows=0.0),  # no attack flows
    dict(n_normal_entities=10, n_attack_entities=0),
    dict(n_normal_entities=0, n_attack_entities=3),  # probes only
    dict(n_normal_entities=10, duration=50.0),  # no flows at all
    dict(n_normal_entities=1, n_attack_entities=1),
])
def test_every_listed_entity_is_an_endpoint(kwargs):
    flows = generate(SynthConfig(**{"seed": 2, "duration": 3600.0, **kwargs}))
    assert len(set(flows.entities)) == len(flows.entities)
    assert set(flows.src.tolist()) | set(flows.dst.tolist()) == set(range(len(flows.entities)))


def test_flow_count_capped():
    # the cap is tight: 1000 normal entities of 50,000 flows each fill it
    at_cap = SynthConfig(duration=50_000.0, flows_per_entity_rate=1.0, n_normal_entities=1000,
                         n_attack_entities=0)
    assert sum(at_cap.flow_counts()[1:]) == MAX_FLOWS
    for kwargs in (dict(duration=50_001.0, flows_per_entity_rate=1.0, n_normal_entities=1000,
                        n_attack_entities=0),
                   dict(duration=1e300), dict(duration=float("inf")),
                   dict(duration=float("nan")), dict(flows_per_entity_rate=1e200),
                   dict(duration=2 * MAX_FLOWS / 0.005 / 120),
                   dict(attack_fraction_of_flows=1.0 - 1e-9)):
        with pytest.raises(ValueError, match=f"more than {MAX_FLOWS} flows"):
            SynthConfig(**kwargs)
