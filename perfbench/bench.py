"""Workloads, command runner, output checks and metrics of the benchmark.

Every flowgraph command runs in a fresh child process (``tracer.py``
calling ``flowgraph.cli.main``) with ``--jobs 1``, one BLAS thread and a
4 GiB address-space limit, on inputs generated here from a seed. After
every command its outputs are compared with references recorded from
the reference commit: SHA-256 digests for graph, cluster, assignment and
report files and ``metrics.csv``; the numbers in ``model.txt`` and
``loss_trace.csv`` within ``FLOAT_TOLERANCE``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import tracer

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORK = ROOT / ".perfbench"
REFERENCES = PERFBENCH / "references.json"

MEMORY_LIMIT = 4 * 1024 ** 3  # bytes of address space per child, as in the ROADMAP baseline
BLAS_THREADS = "1"
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "FLOWGRAPH_LOG": "WARNING",
    "PYTHONHASHSEED": "0",
}
FLOAT_TOLERANCE = {"rel": 1e-6, "abs": 1e-9}
CASES = 16  # recorded input cases; ``--seed n`` runs case ``n % CASES``
SETUP_PER_ITERATION = 2  # fresh-interpreter imports timed before each iteration
RUN_DEADLINE_S = 170.0  # every command of a run is killed past this


@dataclass(frozen=True)
class Step:
    """One CLI command; ``{input}`` and ``{out}`` are substituted."""

    args: tuple[str, ...]
    exact: tuple[str, ...] = ()  # out-dir paths compared by SHA-256
    close: tuple[str, ...] = ()  # out-dir files whose numbers match within FLOAT_TOLERANCE

    @property
    def stages(self) -> tuple[str, ...]:
        if self.args[0] == "run-all":
            return ("graph", "cluster", "train", "report")
        return (self.args[0],)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_name: str
    make_input: Callable[[Path, int], int]  # (path, seed) -> flows written
    steps: tuple[Step, ...]

    @property
    def stages(self) -> list[str]:
        return [s for s in ("graph", "cluster", "train", "report")
                if any(s in step.stages for step in self.steps)]


def _cluster_step(algorithm: str, eps: float | None = None) -> Step:
    tag = algorithm if eps is None else f"{algorithm}_eps{eps:g}"
    radius = () if eps is None else ("--eps", str(eps))
    return Step(("cluster", "--out-dir", "{out}", "--jobs", "1", "--algorithm", algorithm)
                + radius, exact=(f"clusters/{tag}", f"assignments/{tag}"))


_DBSCAN_02 = ("--algorithm", "dbscan", "--eps", "0.2", "--jobs", "1")
# input sizes: small enough that a run repeats every command several times,
# so that a run reports medians rather than one sample of a noisy host
PIPELINE_DURATION = 6 * 3600.0  # 36 snapshots
SWEEP_DURATION = 1800.0  # 3 snapshots of about 1000 normal points each

WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline",
        "README default capture (120 entities) over 6 h through run-all, then a cheb "
        "train; the only workload that trains",
        "flows.csv",
        lambda path, seed: inputs.synthetic_capture(path, seed, duration=PIPELINE_DURATION),
        (Step(("run-all", "--input", "{input}", "--out-dir", "{out}") + _DBSCAN_02,
              exact=("graphs", "clusters/dbscan_eps0.2", "assignments/dbscan_eps0.2",
                     "reports", "metrics.csv"),
              close=("model.txt", "loss_trace.csv")),
         Step(("train", "--out-dir", "{out}", "--variant", "cheb", "--k", "3") + _DBSCAN_02,
              exact=("metrics.csv",), close=("model.txt", "loss_trace.csv")))),
    Workload(
        "sweep",
        "1000 entities over 30 min, clustered with the paper's seven settings, then "
        "report; O(n^2) neighbour search per snapshot, nothing trains",
        "flows.csv",
        lambda path, seed: inputs.synthetic_capture(path, seed, duration=SWEEP_DURATION,
                                                    n_normal=1000),
        (Step(("graph", "--input", "{input}", "--out-dir", "{out}", "--jobs", "1"),
              exact=("graphs",)),
         *(_cluster_step(a, eps) for a in ("dbscan", "optics") for eps in (0.2, 0.5, 0.8)),
         _cluster_step("hdbscan"),
         Step(("report", "--input", "{input}", "--out-dir", "{out}") + _DBSCAN_02,
              exact=("reports",)))),
)}

# end-to-end metrics: name -> unit; the stage metrics exist only on
# workloads that run the stage
E2E_METRICS = {
    "flows_per_s": "1/s",
    "graph_s": "s",
    "cluster_s": "s",
    "train_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# output checks

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(path: Path) -> str:
    """SHA-256 over a file, or over a directory's relative names and file digests."""
    if path.is_file():
        return sha256_file(path)
    if not path.is_dir():
        return "missing"
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(bytes.fromhex(sha256_file(file)))
    return h.hexdigest()


def numbers_of(path: Path) -> dict:
    """The words and the numbers of a text file, in order."""
    if not path.is_file():
        return {"words": ["missing"], "values": []}
    words, values = [], []
    for token in re.split(r"[\s,]+", path.read_text(encoding="utf-8").strip()):
        try:
            values.append(float(f"{float(token):.12g}"))
        except ValueError:
            words.append(token)
    return {"words": words, "values": values}


def observe(out: Path, step: Step) -> dict:
    return {**{name: tree_digest(out / name) for name in step.exact},
            **{name: numbers_of(out / name) for name in step.close}}


def compare(observed: dict, expected: dict) -> list[str]:
    """Mismatches between a step's observed outputs and its reference."""
    problems = []
    for name, want in expected.items():
        got = observed.get(name)
        if isinstance(want, str):
            if got != want:
                problems.append(f"{name}: digest differs from the reference")
            continue
        if got is None or got["words"] != want["words"] or len(got["values"]) != len(want["values"]):
            problems.append(f"{name}: layout differs from the reference")
            continue
        bad = sum(not math.isclose(a, b, rel_tol=FLOAT_TOLERANCE["rel"],
                                   abs_tol=FLOAT_TOLERANCE["abs"])
                  for a, b in zip(got["values"], want["values"]))
        if bad:
            problems.append(f"{name}: {bad} numbers outside the tolerance")
    return problems


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(WORK)
    return env


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@dataclass
class Finished:
    code: int
    wall_s: float
    cpu_s: float  # user + system time of the child, to tell host noise from work
    max_rss_mb: float


def spawn(argv: list[str], log: Path, deadline: float) -> Finished:
    """Run a child to completion; kill it if it outlives ``deadline``."""
    done = threading.Event()

    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out, preexec_fn=_limit_memory)

        def kill() -> None:
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def time_setup(work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter importing flowgraph.cli."""
    done = spawn([sys.executable, "-c", "import flowgraph.cli"], work / "setup.log", deadline)
    if done.code != 0:
        raise BenchmarkError("a fresh interpreter cannot import flowgraph.cli:\n"
                             + (work / "setup.log").read_text(errors="replace")[-2000:])
    return done.wall_s


# ---------------------------------------------------------------------------
# iterations

@dataclass
class Command:
    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    spans: list
    observed: dict
    problems: list[str]


@dataclass
class Iteration:
    mode: str
    commands: list[Command] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.problems)

    @property
    def complete(self) -> bool:
        return not self.failed

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def spans(self) -> list:
        """All commands' spans in one list, parent indices shifted to match."""
        merged = []
        for command in self.commands:
            offset = len(merged)
            merged += [[n, p + offset if p >= 0 else -1, s, e, c]
                       for n, p, s, e, c in command.spans]
        return merged


def run_iteration(workload: Workload, input_path: Path, work: Path, mode: str,
                  expected: list[dict] | None, deadline: float) -> Iteration:
    """All of a workload's commands in a fresh out-dir, checked after each."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    iteration = Iteration(mode)
    for index, step in enumerate(workload.steps):
        args = [a.format(input=input_path, out=out) for a in step.args]
        record, log = work / f"spans_{index}.json", work / f"command_{index}.log"
        record.unlink(missing_ok=True)
        done = spawn([sys.executable, str(PERFBENCH / "tracer.py"), "--mode", mode,
                      "--record", str(record), "--", *args], log, deadline)
        observed, problems = {}, []
        if done.code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"exit code {done.code}: {' | '.join(tail)}")
        else:
            observed = observe(out, step)
            if expected is not None:
                problems += compare(observed, expected[index])
        spans = json.loads(record.read_text()) if record.is_file() else []
        iteration.commands.append(Command(args, done.code, done.wall_s, done.cpu_s,
                                          done.max_rss_mb, spans, observed, problems))
        if problems:
            break
    return iteration


def iteration_metrics(iteration: Iteration, flows: int) -> dict[str, float]:
    """End-to-end values of one iteration.

    A single-stage command's wall time is its stage's time. ``run-all`` is
    split by its stage spans; its start-up and the rest outside the spans
    count to ``graph_s``, the stage the user waits on first.
    """
    stage_s = {f"{s}_s": 0.0 for s in ("graph", "cluster", "train", "report")}
    for command in iteration.commands:
        if command.args[0] != "run-all":
            stage_s[f"{command.args[0]}_s"] += command.wall_s
            continue
        inside = 0.0
        for name, _, start, end, _ in command.spans:
            if name.startswith("cli."):
                stage_s[f"{name[4:]}_s"] += end - start
                inside += end - start
        stage_s["graph_s"] += command.wall_s - inside
    return {"flows_per_s": flows / iteration.wall_s, **stage_s,
            "peak_rss_mb": max(c.max_rss_mb for c in iteration.commands)}


# ---------------------------------------------------------------------------
# one run

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "memory_limit_bytes": MEMORY_LIMIT,
    }


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, or its inputs no longer match the references."""


@dataclass
class Run:
    workload: str
    seed: int
    case: int
    trace: bool
    flows: int
    input_sha256: str
    environment: dict
    setup_s: list[float]
    iterations: list[Iteration]

    @property
    def attempted(self) -> int:
        return sum(len(it.commands) for it in self.iterations)

    @property
    def failed(self) -> int:
        return sum(it.failed for it in self.iterations)

    def samples(self) -> dict[str, list[float]]:
        """Per-iteration end-to-end values of the untraced, complete iterations."""
        out: dict[str, list[float]] = {}
        for it in self.iterations:
            if it.mode == "stages" and it.complete:
                for name, value in iteration_metrics(it, self.flows).items():
                    out.setdefault(name, []).append(value)
        out["setup_s"] = list(self.setup_s)
        return out

    def values(self) -> dict[str, float]:
        """The run's end-to-end values.

        ``flows_per_s`` is all flows the untraced, complete iterations
        processed over all their wall time. On a shared host whose speed
        switches between two levels in phases of seconds to minutes, this
        mean follows the share of the run spent in each phase smoothly,
        where a median jumps from one level to the other once that share
        passes a half. Every other metric is the median of its samples.
        """
        values = {name: statistics.median(v) for name, v in self.samples().items() if v}
        complete = [it for it in self.iterations if it.mode == "stages" and it.complete]
        if complete:
            values["flows_per_s"] = (self.flows * len(complete)
                                     / sum(it.wall_s for it in complete))
        return values

    def layer_samples(self) -> dict[str, list[float]]:
        """Per-traced-iteration per-layer values, with the tracing overhead."""
        untraced = [it.wall_s for it in self.iterations if it.mode == "stages" and it.complete]
        out: dict[str, list[float]] = {}
        for it in self.iterations:
            if it.mode == "full" and it.complete:
                values = tracer.layer_metrics(it.spans())
                values["trace.overhead_ratio"] = (it.wall_s / statistics.median(untraced)
                                                  if untraced else 0.0)
                for name, value in values.items():
                    out.setdefault(name, []).append(value)
        return out

    def to_json(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "case": self.case,
            "trace": self.trace, "flows": self.flows, "input_sha256": self.input_sha256,
            "environment": self.environment, "setup_s": self.setup_s,
            "iterations": [{"mode": it.mode, "commands": [
                {"args": c.args, "code": c.code, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                 "max_rss_mb": c.max_rss_mb, "problems": c.problems}
                for c in it.commands]} for it in self.iterations],
            "samples": self.samples(),
            "layer_samples": self.layer_samples(),
        }


def check_checkout() -> None:
    if not (ROOT / "src" / "flowgraph" / "cli.py").is_file():
        raise BenchmarkError(f"no flowgraph sources under {ROOT / 'src'}; run from a checkout")


def prepare(workload: Workload, seed: int, work: Path, references: dict) -> tuple:
    """Generate the input of ``seed``'s case and match it to the references."""
    case = seed % CASES
    reference = references["workloads"].get(workload.name, {}).get(str(case))
    if reference is None:
        raise BenchmarkError(f"no reference outputs for {workload.name} case {case}")
    input_path = work / workload.input_name
    flows = workload.make_input(input_path, case)
    digest = sha256_file(input_path)
    if digest != reference["input_sha256"]:
        raise BenchmarkError(
            f"{workload.name} case {case}: generated input {digest[:12]} is not the input "
            f"{reference['input_sha256'][:12]} the references were recorded from")
    return case, input_path, flows, digest, reference["steps"]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        references: dict) -> Run:
    """Untraced iterations for ``seconds`` (trace: one untraced, then traced ones)."""
    check_checkout()
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        case, input_path, flows, digest, expected = prepare(workload, seed, work, references)
        time_setup(work, deadline)  # fills the .pyc cache; not counted
        setup, iterations = [], []
        if trace:
            iterations.append(run_iteration(workload, input_path, work, "stages",
                                            expected, deadline))
        mode = "full" if trace else "stages"
        start = time.perf_counter()
        while not iterations or iterations[-1].complete:
            # spread over the run, like the iterations, so both meet the same host phases
            setup += [time_setup(work, deadline) for _ in range(SETUP_PER_ITERATION)]
            iterations.append(run_iteration(workload, input_path, work, mode,
                                            expected, deadline))
            elapsed = time.perf_counter() - start
            measured = sum(1 for it in iterations if it.mode == mode)
            if elapsed * (measured + 1) / measured > seconds:
                break
        return Run(workload.name, seed, case, trace, flows, digest, env, setup, iterations)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_references() -> dict:
    """Run every workload once per case and keep its observed outputs."""
    check_checkout()
    references = {"workloads": {}}
    for workload in WORKLOADS.values():
        for case in range(CASES):
            work = WORK / f"record-{workload.name}-{case}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                input_path = work / workload.input_name
                workload.make_input(input_path, case)
                iteration = run_iteration(workload, input_path, work, "stages", None,
                                          time.monotonic() + 3600.0)
                if not iteration.complete:
                    raise BenchmarkError(f"{workload.name} case {case} failed: "
                                         f"{iteration.commands[-1].problems}")
                references["workloads"].setdefault(workload.name, {})[str(case)] = {
                    "input_sha256": sha256_file(input_path),
                    "steps": [c.observed for c in iteration.commands]}
                print(f"recorded {workload.name} case {case}", file=sys.stderr)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return references
