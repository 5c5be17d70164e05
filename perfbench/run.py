"""flowgraph benchmark: run one workload, all of them, or record references.

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the JSON result)::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` makes one untraced iteration and then traced ones, and
reports the per-layer metrics with the tracing overhead.

Every workload, every end-to-end metric by name with its unit, median,
quartiles and sample count, plus a traced run per workload; this also
writes BENCHMARK.json from the workloads and metrics defined here::

    python3 perfbench/run.py --suite --seeds 0,1,2

Compare two suite results (refused when their inputs differ)::

    python3 perfbench/run.py --compare before.json after.json

Re-record the reference outputs from the current sources::

    python3 perfbench/run.py --record-references
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import bench
import tracer

RUN_SECONDS = 55
# the end-to-end metrics every workload reports, as listed in BENCHMARK.json:
# name -> (better, bound as a share of the median)
GATED = {
    "flows_per_s": ("higher", 0.25),
    "peak_rss_mb": ("lower", 0.10),
    "setup_s": ("lower", 0.25),
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _save(name: str, payload: dict) -> str:
    results = bench.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def _describe(run: bench.Run) -> None:
    env = run.environment
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['blas_threads']} cpu={env['cpu_model']!r} "
          f"load={env['loadavg_at_start'][0]:.2f}")
    print(f"{run.workload} seed {run.seed} (case {run.case}): {run.flows} flows, "
          f"input sha256 {run.input_sha256[:16]}, setup {_median(run.setup_s):.4f} s")
    for it in run.iterations:
        for c in it.commands:
            status = "ok" if not c.problems else "FAILED " + "; ".join(c.problems)
            print(f"  [{it.mode}] {' '.join(c.args[:1])}: {c.wall_s:.3f} s "
                  f"(cpu {c.cpu_s:.3f} s), {c.max_rss_mb:.1f} MB, {status}")


def run_one(args, references: dict) -> int:
    workload = bench.WORKLOADS[args.workload]
    run = bench.run(workload, args.seed, args.seconds, bool(args.trace), references)
    _describe(run)
    print(f"results: {_save(f'{run.workload}-seed{run.seed}-trace{args.trace}', run.to_json())}")
    if args.trace:
        values = {name: _median(v) for name, v in run.layer_samples().items()}
        units = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    else:
        values = run.values()
        units = {name: bench.E2E_METRICS[name] for name in GATED}
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def benchmark_spec() -> dict:
    """BENCHMARK.json, from the workloads and metrics defined in code."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in bench.WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": bench.E2E_METRICS[name], "better": better,
                        "bound": bound} for name, (better, bound) in GATED.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in tracer.LAYER_METRICS.items()],
    }


def run_suite(seeds: list[int], seconds: float, references: dict) -> int:
    """Every workload on every seed, then one traced run each; prints all metrics."""
    (bench.ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n",
                                               encoding="utf-8")
    summary = {"environment": bench.environment(), "seeds": seeds, "workloads": {}}
    rows = []
    for workload in bench.WORKLOADS.values():
        runs = [bench.run(workload, seed, seconds, False, references) for seed in seeds]
        traced = bench.run(workload, seeds[0], seconds, True, references)
        for run in runs + [traced]:
            _describe(run)
        samples: dict[str, list[float]] = {}
        for run in runs:
            for name, value in run.values().items():
                samples.setdefault(name, []).append(value)
        attempted = sum(r.attempted for r in runs + [traced])
        failed = sum(r.failed for r in runs + [traced])
        samples["failed_ratio"] = [failed / attempted]
        shown = ["flows_per_s"] + [f"{s}_s" for s in workload.stages] + [
            "peak_rss_mb", "setup_s", "failed_ratio"]
        for name in shown:
            q1, q3 = _quartiles(samples[name])
            rows.append((workload.name, name, bench.E2E_METRICS[name],
                         _median(samples[name]), q1, q3, len(samples[name])))
        layers = traced.layer_samples()
        for name, (unit, _) in tracer.LAYER_METRICS.items():
            values = layers.get(name, [])
            if _median(values):
                q1, q3 = _quartiles(values)
                rows.append((workload.name, name, unit, _median(values), q1, q3, len(values)))
        summary["workloads"][workload.name] = {
            "inputs": {str(r.seed): r.input_sha256 for r in runs},
            "metrics": {name: samples[name] for name in shown},
            "layers": layers, "runs": [r.to_json() for r in runs + [traced]],
            "attempted": attempted, "failed": failed}

    print(f"\n{'workload':9} {'metric':36} {'unit':6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}")
    for workload, name, unit, median, q1, q3, n in rows:
        print(f"{workload:9} {name:36} {unit:6} {median:12.5g} {q1:12.5g} {q3:12.5g} {n:3d}")
    print(f"results: {_save('suite', summary)}")
    return 0 if all(w["failed"] == 0 for w in summary["workloads"].values()) else 1


def compare(before_path: str, after_path: str) -> int:
    """Median per metric of two suite results; refuses different inputs."""
    before, after = (json.loads(Path(p).read_text(encoding="utf-8"))
                     for p in (before_path, after_path))
    for name in sorted(set(before["workloads"]) | set(after["workloads"])):
        a, b = before["workloads"].get(name), after["workloads"].get(name)
        if a is None or b is None or a["inputs"] != b["inputs"]:
            print(f"refused: the inputs of workload {name} differ between the two results",
                  file=sys.stderr)
            return 1
    print(f"{'workload':9} {'metric':36} {'before':>12} {'after':>12} {'change':>8}")
    for name, a in before["workloads"].items():
        b = after["workloads"][name]
        for metric in a["metrics"]:
            x, y = _median(a["metrics"][metric]), _median(b["metrics"].get(metric, []))
            change = f"{100.0 * (y - x) / x:+7.1f}%" if x else "      -"
            print(f"{name:9} {metric:36} {x:12.5g} {y:12.5g} {change}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds for --suite")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        if args.record_references:
            references = bench.record_references()
            bench.REFERENCES.write_text(json.dumps(references, separators=(",", ":")) + "\n",
                                        encoding="utf-8")
            return 0
        references = bench.load_references()
        if args.suite:
            return run_suite([int(s) for s in args.seeds.split(",")], args.seconds, references)
        if args.workload is None:
            parser.error("pass --workload, --suite, --compare or --record-references")
        return run_one(args, references)
    except (bench.BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
