"""The uavmarket benchmark: one seeded workload per call, one JSON line out.

    python3 benchmarks/run.py --workload direct --seed 1 --seconds 25 --trace 0

Workloads (see NOTES.md): ``direct``, ``ties`` and ``physical-sparse``
run ``load_scenario`` plus ``run_match(..., out_dir)`` in one worker
process over a pool of generated scenarios; ``cli`` runs a fixed cycle
of ``python -m uavmarket.cli`` subprocesses. ``--workload all`` runs
every workload in turn. Each run is a closed loop with one client: a job
starts when the previous one has ended and been checked.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from a traced run (see
tracing.py). The run exits non-zero without a result line when the
uavmarket sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import clear_dir, cli_problems, median

ROOT = workloads.ROOT
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# cli first: its peak_rss_mb reads RUSAGE_CHILDREN, the largest child
# this process has waited for, so with --workload all no library worker
# may run before it.
WORKLOADS = ["cli", *workloads.LIBRARY]
# Set-up repeats per run; setup_s is their median.
SETUPS = 3
# Tail percentile: the highest one with at least ten jobs above it when
# the workload with the fewest jobs (cli, 60 or more) runs for 25 s.
TAIL, TAIL_NAME = 0.8, "job_s.p80"
CHILD_TIMEOUT_S = 170
# Per-layer times that are not self times of a layer.
NOT_SELF_TIMES = {"contract.build_s", "cli.startup_s", "cli.overhead_s", "trace.overhead_s"}
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = str(workloads.SRC)
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child to completion; ``subprocess.run`` kills it on timeout and waits."""
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1:3]} ran past {timeout} s") from exc


def worker(name: str, seed: int, seconds: float, mode: str, work: Path) -> dict:
    clear_dir(work)
    result_path = work / "result.json"
    proc = run_child([sys.executable, str(WORKER), name, str(seed), str(seconds), mode, str(work), str(result_path)])
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share ``q`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(job_s: list[float], wall_s: float, peak_rss_mb: float, setups: list[float]) -> dict:
    """The gated metrics. The median job time is printed beside them but not
    gated: a shared virtual machine can flip between two speeds about 1.5x
    apart for seconds at a time, and when both are about equally common the
    median jumps from one to the other between runs (see NOTES.md, "Noise")."""
    return {
        TAIL_NAME: {"value": percentile(job_s, TAIL), "unit": "s"},
        "jobs_per_s": {"value": len(job_s) / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": median(setups), "unit": "s"},
    }


def library_time(name: str, seed: int, seconds: float, work: Path) -> dict:
    setups = [worker(name, seed, seconds, "setup", work / f"setup{i}") for i in range(SETUPS - 1)]
    timed = worker(name, seed, seconds, "time", work / "time")
    runs = setups + [timed]
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "numpy": timed["numpy"],
        "metrics": end_to_end(timed["job_s"], timed["wall_s"], timed["peak_rss_mb"], [r["setup_s"] for r in runs]),
        "p50_s": percentile(timed["job_s"], 0.5),
    }


class CliClient:
    """Runs ``cli`` jobs as subprocesses, one at a time, and checks each."""

    def __init__(self, cycle: list[workloads.Command], work: Path):
        self.cycle = cycle
        self.out = work / "out"
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def job(self, k: int) -> float:
        cmd = self.cycle[k]
        clear_dir(self.out)
        self.attempted += 1
        start = perf_counter()
        proc = run_child([sys.executable, "-m", "uavmarket.cli", *cmd.argv(self.out)])
        elapsed = perf_counter() - start
        try:
            problems = cli_problems(cmd, proc.returncode, proc.stdout + proc.stderr, self.out, k, self.digests)
        except (OSError, ValueError, IndexError, KeyError) as exc:  # e.g. an output file is missing
            problems = [f"{cmd.kind} {cmd.scenario.name}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed


def cli_setup(seed: int, work: Path) -> tuple[float, CliClient]:
    """Generate and write the cycle's scenarios, then warm up on one fixture."""
    start = perf_counter()
    clear_dir(work)
    cycle = workloads.cli_commands(seed, work)
    client = CliClient(cycle, work)
    client.job(next(k for k, c in enumerate(cycle) if c.kind == "match"))
    return perf_counter() - start, client


def cli_time(seed: int, seconds: float, work: Path) -> dict:
    setups, clients = [], []
    for i in range(SETUPS):
        took, client = cli_setup(seed, work / f"setup{i}")
        setups.append(took)
        clients.append(client)
    client = clients[-1]
    job_s: list[float] = []
    start = perf_counter()
    while len(job_s) % len(client.cycle) or len(job_s) < workloads.MIN_JOBS or perf_counter() - start < seconds:
        job_s.append(client.job(len(job_s) % len(client.cycle)))
    wall_s = perf_counter() - start
    # the largest child: every child here is a uavmarket.cli process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "attempted": sum(c.attempted for c in clients),
        "failed": sum(c.failed for c in clients),
        "problems": [p for c in clients for p in c.problems],
        "numpy": importlib.metadata.version("numpy"),
        "metrics": end_to_end(job_s, wall_s, peak_rss_mb, setups),
        "p50_s": percentile(job_s, 0.5),
    }


def startup_s() -> float:
    """A fresh interpreter up to ``import uavmarket.cli``; median of three."""
    walls = []
    for _ in range(3):
        start = perf_counter()
        proc = run_child([sys.executable, "-c", "import uavmarket.cli"])
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"import uavmarket.cli failed:\n{proc.stderr[-2000:]}")
    return median(walls)


def traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    result = worker(name, seed, seconds, "trace", work / "trace")
    in_process = result["median_by_index"]
    # the same jobs as subprocesses: the first pool scenario three times
    # for a library workload, the whole command cycle once for cli
    if name == "cli":
        client = CliClient(workloads.cli_commands(seed, work / "trace" / "scn"), work / "probe")
        indices = range(len(client.cycle))
    else:
        doc_path = work / "trace" / "scn" / "0.scn"
        client = CliClient([workloads.Command("match", doc_path)], work / "probe")
        indices = [0, 0, 0]
    overheads = [client.job(k) - in_process[k] for k in indices]
    layers = dict(result["layers"])
    layers["cli.startup_s"] = {"value": startup_s(), "unit": "s"}
    layers["cli.overhead_s"] = {"value": sum(overheads) / len(overheads), "unit": "s"}
    layers["trace.overhead_s"] = {
        "value": (result["traced_s"] - result["untraced_s"]) / result["jobs"],
        "unit": "s",
    }
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    shutil.move(work / "trace" / "trace.json", trace_file)
    return {
        "attempted": result["attempted"] + client.attempted,
        "failed": result["failed"] + client.failed,
        "problems": result["problems"] + client.problems,
        "numpy": result["numpy"],
        "metrics": layers,
        "missing": result["missing"],
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    try:
        if trace:
            outcome = traced(name, seed, seconds, work)
        elif name == "cli":
            outcome = cli_time(seed, seconds, work)
        else:
            outcome = library_time(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": outcome.pop("numpy"),
        "blas_threads": 1,
        "seed": seed,
        "seconds": seconds,
        "workload": name,
        "trace": int(trace),
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(outcome, indent=1) + "\n", encoding="utf-8"
    )
    return outcome


def report(name: str, outcome: dict) -> None:
    print("machine: " + " ".join(f"{k}={v}" for k, v in outcome["machine"].items()))
    for metric, m in outcome["metrics"].items():
        flag = "  (missing)" if m.get("missing") else ""
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}{flag}")
    if "p50_s" in outcome:
        print(f"{name} job_s.p50 = {outcome['p50_s']:.6g} s  (printed, not gated)")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{name} failed_ratio = {failed / attempted:.6g} 1  ({failed} of {attempted} jobs)")
    for problem in outcome["problems"][:5]:
        print(f"{name} FAILED: {problem}")
    if outcome.get("trace_file"):
        selfs = {k: m["value"] for k, m in outcome["metrics"].items() if k not in NOT_SELF_TIMES and m["unit"] == "s"}
        top = sorted(selfs, key=selfs.get, reverse=True)[:3]
        print(f"{name} largest self times per job: " + ", ".join(f"{k} {selfs[k]:.4g} s" for k in top))
        print(f"{name} trace written to {outcome['trace_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "uavmarket" / "cli.py").is_file():
        print(f"error: no uavmarket sources under {workloads.SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, outcomes[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {f"{n}/{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()}
    else:
        metrics = outcomes[args.workload]["metrics"]
    failed = sum(o["failed"] for o in outcomes.values())
    line = {
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
