"""The process that does a run's work: set-up, timed jobs, traced jobs.

Started by run.py, one at a time, as

    python3 benchmarks/worker.py <workload> <seed> <seconds> <mode> <work dir> <result file>

with ``mode`` one of ``setup`` (set up, then stop), ``time`` (set up, then
run jobs for ``seconds``) and ``trace`` (set up, then for ``seconds`` run
each job twice, untraced and traced). The result is one JSON file.
``cli`` jobs run here only in ``trace`` mode, in process through
``uavmarket.cli.main``; timed ``cli`` jobs are subprocesses started by
run.py.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import check
import gen
import workloads

MAX_PROBLEMS = 5


def clear_dir(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


class LibraryJobs:
    """``load_scenario`` plus ``run_match(..., out_dir)`` over a scenario pool."""

    def __init__(self, name: str, seed: int, work: Path):
        import uavmarket.pipeline
        import uavmarket.scenario

        self.pipeline = uavmarket.pipeline
        self.scenario = uavmarket.scenario
        self.spec = workloads.LIBRARY[name]
        self.docs = self.spec.documents(seed)
        (work / "scn").mkdir(parents=True)
        self.paths = [work / "scn" / f"{i}.scn" for i in range(len(self.docs))]
        for doc, path in zip(self.docs, self.paths):
            gen.write(doc, path)
        self.out = work / "out"
        self.digests: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.paths)

    def run(self, i: int) -> float:
        clear_dir(self.out)
        start = perf_counter()
        # looked up at call time, so that installed trace wrappers are used
        scenario = self.scenario.load_scenario(self.paths[i])
        self.pipeline.run_match(scenario, self.out)
        return perf_counter() - start

    def check(self, i: int) -> list[str]:
        doc = self.docs[i]
        problems, assignment = check.match_outputs(self.out, doc)
        if not problems and self.spec.family == "direct":  # tie-free: no calibration
            problems += check.blocking_pairs(doc, assignment)
        files = [self.out / n for n in ("assignment.csv", "calibration.csv", "stability.csv")]
        digest = check.digest(files)
        if self.digests.setdefault(i, digest) != digest:
            problems.append("outputs differ from an earlier run of the same scenario")
        return problems


class CliJobs:
    """The ``cli`` command cycle, run in process through ``uavmarket.cli.main``."""

    def __init__(self, seed: int, work: Path):
        import uavmarket.cli

        self.cli = uavmarket.cli
        (work / "scn").mkdir(parents=True)
        self.cycle = workloads.cli_commands(seed, work / "scn")
        self.out = work / "out"
        self.digests: dict[int, str] = {}
        self.stdout = ""
        self.code = 0

    def __len__(self) -> int:
        return len(self.cycle)

    def run(self, i: int) -> float:
        clear_dir(self.out)
        buffer = io.StringIO()
        start = perf_counter()
        with redirect_stdout(buffer), redirect_stderr(buffer):
            self.code = self.cli.main(self.cycle[i].argv(self.out))
        elapsed = perf_counter() - start
        self.stdout = buffer.getvalue()
        return elapsed

    def check(self, i: int) -> list[str]:
        return cli_problems(self.cycle[i], self.code, self.stdout, self.out, i, self.digests)


def cli_problems(cmd: workloads.Command, code: int, stdout: str, out: Path, key: int, digests: dict) -> list[str]:
    """Checks shared by in-process and subprocess ``cli`` jobs."""
    if code != 0:
        return [f"{cmd.kind} {cmd.scenario.name}: exit code {code}: {stdout[-300:]}"]
    if cmd.kind == "contract":
        n = len(cmd.doc["uavs"])
        return check.contract_stdout(stdout) + check.ic_matrix_rows(out, n, len(cmd.doc["subregions"]))
    if cmd.kind == "verify":
        problems = check.verify_outputs(out)
        if len(cmd.doc["uavs"]) <= 8 and "gs_subregion_optimal" not in (out / "verify.csv").read_text():
            problems.append("verify: stable-matching enumeration did not run")
        return problems
    if cmd.kind == "match":
        doc = json.loads(cmd.scenario.read_text(encoding="utf-8"))
        problems, _ = check.match_outputs(out, doc)
        files = [out / n for n in ("assignment.csv", "calibration.csv", "stability.csv")]
    else:
        problems = check.sweep_outputs(out, workloads.SWEEP_STEPS)
        files = [out / "sweep.csv"]
    digest = check.digest(files)
    if digests.setdefault(key, digest) != digest:
        problems.append(f"{cmd.kind} {cmd.scenario.name}: outputs differ from an earlier run")
    return problems


class Loop:
    """Runs jobs in pool order, times each one and checks its outputs."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0

    def one(self, index: int) -> None:
        i = index % len(self.jobs)
        self.attempted += 1
        try:
            self.times.append(self.jobs.run(i))
            started = perf_counter()
            problems = self.jobs.check(i)
            self.check_s += perf_counter() - started
        except Exception as exc:  # a failing job is counted; the run goes on
            problems = [f"job {i}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def for_seconds(self, seconds: float) -> float:
        """Run jobs for ``seconds`` (and at least MIN_JOBS); returns the wall time outside the checks."""
        start = perf_counter()
        index = 0
        while index < workloads.MIN_JOBS or perf_counter() - start < seconds:
            self.one(index)
            index += 1
        return perf_counter() - start - self.check_s


def median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]


def main(argv: list[str]) -> int:
    started = perf_counter()
    name, seed, seconds, mode, work, result_path = argv
    seed, seconds, work = int(seed), float(seconds), Path(work)
    sys.path.insert(0, str(workloads.SRC))
    jobs = CliJobs(seed, work) if name == "cli" else LibraryJobs(name, seed, work)
    # the cli cycle mixes commands, so every one of them is warmed up
    warm = Loop(jobs)
    for i in range(len(jobs) if name == "cli" else 1):
        warm.one(i)
    result = {"setup_s": perf_counter() - started}
    if mode == "setup":
        loops = [warm]
    elif mode == "time":
        loop = Loop(jobs)
        result["wall_s"] = loop.for_seconds(seconds)
        result["job_s"] = loop.times
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = [warm, loop]
    else:
        import tracing

        # Each job runs untraced and then at once traced, so that both
        # runs see the same machine; the spans of the first traced job
        # are kept for the trace file.
        plain, traced, tracer = Loop(jobs), Loop(jobs), tracing.Tracer()
        start, index = perf_counter(), 0
        while index == 0 or (name == "cli" and index % len(jobs)) or perf_counter() - start < seconds:
            plain.one(index)
            tracer.install()
            tracer.recording = index == 0
            tracer.span("job", traced.one, index)
            tracer.uninstall()
            index += 1
        n = traced.attempted
        result["jobs"] = n
        result["untraced_s"] = sum(plain.times)
        result["traced_s"] = sum(traced.times)
        # per pool index, to compare with the same command run as a subprocess
        result["median_by_index"] = [median(plain.times[i :: len(jobs)]) for i in range(min(n, len(jobs)))]
        result["layers"] = tracing.layer_metrics(tracer, n)
        result["missing"] = tracer.missing
        tracer.dump(work / "trace.json", {"workload": name, "seed": seed, "jobs": n})
        loops = [warm, plain, traced]
    result["attempted"] = sum(l.attempted for l in loops)
    result["failed"] = sum(l.failed for l in loops)
    result["problems"] = [p for l in loops for p in l.problems][:MAX_PROBLEMS]
    result["numpy"] = sys.modules["numpy"].__version__
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
