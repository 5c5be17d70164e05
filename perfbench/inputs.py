"""The seeded input generator owned by the benchmark.

The benchmark makes its own inputs instead of calling ``flowgraph synth``,
so that a change to ``synth.py`` cannot silently change what is measured.

``synthetic_capture`` reproduces the ``flowgraph synth`` algorithm for
the high-separation case, byte for byte (a test pins this at seed 0),
but writes CSV text directly instead of building validated records. It
returns the number of data rows it wrote.
"""

from __future__ import annotations

import math

import numpy as np

SYNTHETIC_HEADER = ("src_ip,src_port,dst_ip,dst_port,start_time,duration,"
                    "bytes_fwd,bytes_bwd,packets,label\n")

_NORMAL_PEERS = 3
# flowgraph.synth defaults the workloads keep
_N_ATTACK = 2
_RATE = 0.005  # flows per second per normal entity
_ATTACK_FRACTION = 0.05


def _normal_ip(i: int) -> str:
    return f"10.0.{i // 200}.{i % 200 + 1}"


def _attack_ip(k: int) -> str:
    return f"172.16.{k // 200}.{k % 200 + 1}"


def _victim_ip(v: int) -> str:
    return f"192.168.{v // 200}.{v % 200 + 1}"


def _attack_volume(rng: np.random.Generator):
    # scalar draws, in the order and with the bounded-integer path that
    # flowgraph.synth uses; vector draws would consume the stream differently
    sent = int(rng.integers(40, 201))
    received = int(rng.integers(0, 61))
    packets = int(rng.integers(1, 4))
    duration = float(rng.uniform(0.01, 0.1))
    return sent, received, packets, duration


def synthetic_capture(path, seed: int, *, duration: float = 86400.0,
                      n_normal: int = 120) -> int:
    """Write the capture ``flowgraph synth`` makes for these settings.

    Normal entities ring to three peers on an even schedule; two
    attackers scan fresh victims at uniform random times and probe each
    other on the ring's schedule.
    """
    rng = np.random.default_rng(seed)
    flows_each = int(round(_RATE * duration))
    spacing = duration / flows_each
    rows: list[tuple[float, str]] = []

    phases = rng.uniform(0.0, spacing, size=n_normal)
    # lognormal(mean, sigma) is exp(mean + sigma * z) on the same normal
    # stream; math.exp is the C library exp numpy's scalar path calls
    z = rng.standard_normal(3 * n_normal * flows_each).tolist()
    mu_sent, mu_recv = float(np.log(3000.0)), float(np.log(8000.0))
    at = 0
    for i in range(n_normal):
        src = f"{_normal_ip(i)},{1000 + i}"
        phase = phases[i]
        for j in range(flows_each):
            peer = (i + 1 + j % _NORMAL_PEERS) % n_normal
            sent = int(math.exp(mu_sent + 0.1 * z[at]))
            received = int(math.exp(mu_recv + 0.1 * z[at + 1]))
            flow_duration = math.exp(0.0 + 0.2 * z[at + 2])
            at += 3
            start = float(phase + j * spacing)
            rows.append((start, f"{src},{_normal_ip(peer)},{1000 + peer},{start!r},"
                                f"{flow_duration!r},{sent},{received},"
                                f"{max(2, (sent + received) // 800)},0\n"))

    n_scan = int(round(len(rows) * _ATTACK_FRACTION / (1.0 - _ATTACK_FRACTION)))
    times = np.sort(rng.uniform(0.0, duration, size=n_scan))
    for j in range(n_scan):
        sent, received, packets, flow_duration = _attack_volume(rng)
        start = float(times[j])
        rows.append((start, f"{_attack_ip(j % _N_ATTACK)},{40000 + j % _N_ATTACK},"
                            f"{_victim_ip(j)},{1 + j % 1024},{start!r},{flow_duration!r},"
                            f"{sent},{received},{packets},1\n"))

    probe_phases = rng.uniform(0.0, spacing, size=_N_ATTACK)
    for k in range(_N_ATTACK):
        src = f"{_attack_ip(k)},{40000 + k}"
        dst = f"{_attack_ip((k + 1) % _N_ATTACK)},{40000 + (k + 1) % _N_ATTACK}"
        for j in range(flows_each):
            sent, received, packets, flow_duration = _attack_volume(rng)
            start = float(probe_phases[k] + j * spacing)
            rows.append((start, f"{src},{dst},{start!r},{flow_duration!r},"
                                f"{sent},{received},{packets},1\n"))

    rows.sort(key=lambda row: row[0])  # stable, as synth's records.sort
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SYNTHETIC_HEADER)
        fh.writelines(line for _, line in rows)
    return len(rows)

