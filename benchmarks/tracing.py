"""Outside-in tracing of the uavmarket layers.

``Tracer.install`` replaces public functions of the package with
wrappers, at the names their callers look them up under (for example
``uavmarket.pipeline.build_schedule``, not ``uavmarket.contract``'s own
binding, because ``prepare`` calls it through the pipeline module). The
package source is not touched. Each wrapped call becomes a span with a
name, a start, an end and a parent; a span's self time is its duration
minus the time its wrapped children cover. Self and inclusive times are
summed per span name on the fly; the spans themselves are kept in memory
only while ``recording`` is set (the first job of a run) and written
out with ``dump``.

A wrapped name that no longer exists is listed in ``missing``, and every
metric that depends on it is reported as missing instead of failing.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


def _count_rows(tracer: "Tracer", rows):
    for row in rows:
        tracer.counts["emit_rows"] += 1
        yield row


# (owner, attribute, span name, hook). The owner is a module or a class
# given by dotted path. A hook runs after the call as
# hook(tracer, args, result); a span name of None only counts calls.
def _hooks():
    def bytes_read(t, args, result):
        t.counts["scenario_bytes"] += os.path.getsize(args[0])

    def schedule_built(t, args, result):
        t.counts["menus"] += 1
        t.counts["rungs"] += len(result.ladder)

    def screened(t, args, result):
        t.counts["screen_pass"] += bool(result.feasible)

    def matched(t, args, result):
        t.counts["calibration_events"] += len(result.calibration_log)

    def audited(t, args, result):
        t.counts["blocking_pairs"] += len(result)

    def enumerated(t, args, result):
        t.counts["stable_found"] += len(result)

    def verified(t, args, result):
        t.counts["checks_skipped"] += sum(c.detail.startswith("skipped") for c in result.checks)

    def swept(t, args, result):
        t.counts["sweep_points"] += len(args[2])

    def emitted(t, args, result):
        t.counts["emit_bytes"] += os.path.getsize(args[0])

    return [
        ("uavmarket.scenario", "load_scenario", "scenario.load", bytes_read),
        ("uavmarket.cli", "load_scenario", "scenario.load", bytes_read),
        ("uavmarket.scenario", "scenario_from_dict", "scenario.validate", None),
        ("uavmarket.pipeline", "scenario_from_dict", "scenario.validate", None),
        ("uavmarket.pipeline", "derive_cost_vector", "core.derive", None),
        ("uavmarket.pipeline", "check_feasibility", "core.screen", screened),
        ("uavmarket.pipeline", "build_schedule", "contract.build", schedule_built),
        ("uavmarket.contract", "sort_ladder", "contract.sort", None),
        ("uavmarket.matching", "sort_ladder", "contract.sort", None),
        ("uavmarket.contract", "optimal_coverage", "contract.coverage", None),
        ("uavmarket.pipeline", "optimal_coverage", "contract.coverage", None),
        ("uavmarket.contract", "iron_schedule", "contract.iron", None),
        ("uavmarket.contract", "reward_schedule", "contract.reward", None),
        ("uavmarket.contract.ContractSchedule", "with_coverage_rewards", "contract.reaudit", None),
        ("uavmarket.pipeline", "build_subregion_preferences", "matching.sub_prefs", None),
        ("uavmarket.pipeline", "build_uav_preferences", "matching.uav_prefs", None),
        ("uavmarket.pipeline", "gs_match", "matching.da", matched),
        ("uavmarket.matching", "rewards_calibration", "matching.calibration", None),
        ("uavmarket.matching.Market", "utility", None, None),
        ("uavmarket.matching.Market", "final_schedules", "matching.final_schedules", None),
        ("uavmarket.pipeline", "stability_audit", "matching.stability", audited),
        ("uavmarket.pipeline", "grid_oracle_coverage", "verification.grid", None),
        ("uavmarket.pipeline", "ic_matrix", "verification.ic_matrix", None),
        ("uavmarket.pipeline", "enumerate_stable_matchings", "verification.enum", enumerated),
        ("uavmarket.pipeline", "prepare", "pipeline.prepare", None),
        ("uavmarket.pipeline", "run_contract", "pipeline.run", None),
        ("uavmarket.pipeline", "run_match", "pipeline.run", None),
        ("uavmarket.pipeline", "run_verify", "pipeline.run", verified),
        ("uavmarket.pipeline", "run_sweep", "pipeline.run", swept),
        ("uavmarket.cli", "run_contract", "pipeline.run", None),
        ("uavmarket.cli", "run_match", "pipeline.run", None),
        ("uavmarket.cli", "run_verify", "pipeline.run", verified),
        ("uavmarket.cli", "run_sweep", "pipeline.run", swept),
        ("uavmarket.pipeline", "_write_contract_csvs", "pipeline.emit", None),
        ("uavmarket.pipeline", "_write_match_csvs", "pipeline.emit", None),
        ("uavmarket.pipeline", "_write_csv", "pipeline.emit", emitted),
    ]


def _resolve(owner: str):
    """Import a module, or a class inside one, by dotted path; None if gone."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Span recorder for one process.

    ``install`` and ``uninstall`` may alternate; totals and counters keep
    accumulating across them until the tracer is read.
    """

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns)
        self.recording = False
        self._stack: list[list] = []  # [span id, start_ns, child_ns]
        self._next_id = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for owner_path, attr, name, hook in _hooks():
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if attr == "_write_csv":
                wrapped = self._emit_wrapper(fn, name, hook)
            elif name is None:
                wrapped = self._count_wrapper(fn, f"{owner_path}.{attr}")
            else:
                wrapped = self.wrap(fn, name, hook)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span that is not a wrapped package function."""
        return self.wrap(fn, name, None)(*args, **kwargs)

    def wrap(self, fn, name: str, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                self.total_ns[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if self.recording:
                    self.spans.append((span_id, parent, name, frame[1], end))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _emit_wrapper(self, fn, name: str, hook):
        traced = self.wrap(fn, name, hook)

        def emit(path, header, rows):
            return traced(path, header, _count_rows(self, rows))

        return emit

    def dump(self, path: Path, extra: dict) -> None:
        """Write the recorded spans and per-name totals as one JSON file."""
        doc = dict(extra)
        doc["missing"] = self.missing
        doc["totals"] = {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_ns[name] / 1e9,
                "total_s": self.total_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["spans"] = [
            {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
            for i, p, n, s, e in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# Per-layer metrics: name -> (unit, span names it reads, value function).
# Times are self times in seconds per job, counts are per job, ratios are
# taken over the whole traced run. A metric is missing when none of its
# span names could be wrapped.
def _per_job_self(*names):
    return lambda t, jobs: sum(t.self_ns[n] for n in names) / 1e9 / jobs


def _per_job_calls(name):
    return lambda t, jobs: t.calls[name] / jobs


def _per_job_count(key):
    return lambda t, jobs: t.counts[key] / jobs


def _ratio(num, den):
    return lambda t, jobs: num(t) / den(t) if den(t) else 0.0


LAYER_METRICS = {
    "scenario.load_s": ("s", ("scenario.load",), _per_job_self("scenario.load")),
    "scenario.validate_s": ("s", ("scenario.validate",), _per_job_self("scenario.validate")),
    "scenario.load_calls": ("count", ("scenario.load",), _per_job_calls("scenario.load")),
    "scenario.bytes": ("B", ("scenario.load",), _per_job_count("scenario_bytes")),
    "core.derive_s": ("s", ("core.derive",), _per_job_self("core.derive")),
    "core.derive_calls": ("count", ("core.derive",), _per_job_calls("core.derive")),
    "core.screen_s": ("s", ("core.screen",), _per_job_self("core.screen")),
    "core.screen_calls": ("count", ("core.screen",), _per_job_calls("core.screen")),
    "core.screen_pass_ratio": (
        "1", ("core.screen",), _ratio(lambda t: t.counts["screen_pass"], lambda t: t.calls["core.screen"])
    ),
    "core.derive_useful_ratio": (
        "1",
        ("core.screen", "core.derive"),
        _ratio(lambda t: t.counts["screen_pass"], lambda t: t.calls["core.derive"]),
    ),
    "contract.build_s": (
        "s", ("contract.build",), lambda t, jobs: t.total_ns["contract.build"] / 1e9 / jobs
    ),
    "contract.menus": ("count", ("contract.build",), _per_job_count("menus")),
    "contract.rungs": ("count", ("contract.build",), _per_job_count("rungs")),
    "contract.sort_s": ("s", ("contract.sort",), _per_job_self("contract.sort")),
    "contract.sort_calls": ("count", ("contract.sort",), _per_job_calls("contract.sort")),
    "contract.coverage_s": ("s", ("contract.coverage",), _per_job_self("contract.coverage")),
    "contract.iron_s": ("s", ("contract.iron",), _per_job_self("contract.iron")),
    "contract.reward_s": ("s", ("contract.reward",), _per_job_self("contract.reward")),
    "contract.audit_s": (
        "s", ("contract.build", "contract.reaudit"), _per_job_self("contract.build", "contract.reaudit")
    ),
    "contract.reaudits": ("count", ("contract.reaudit",), _per_job_calls("contract.reaudit")),
    "matching.sub_prefs_s": ("s", ("matching.sub_prefs",), _per_job_self("matching.sub_prefs")),
    "matching.uav_prefs_s": ("s", ("matching.uav_prefs",), _per_job_self("matching.uav_prefs")),
    "matching.uav_prefs_calls": ("count", ("matching.uav_prefs",), _per_job_calls("matching.uav_prefs")),
    "matching.da_s": ("s", ("matching.da",), _per_job_self("matching.da")),
    "matching.calibration_s": ("s", ("matching.calibration",), _per_job_self("matching.calibration")),
    "matching.calibration_calls": (
        "count", ("matching.calibration",), _per_job_calls("matching.calibration")
    ),
    "matching.calibration_events": ("count", ("matching.da",), _per_job_count("calibration_events")),
    "matching.calibration_useful_ratio": (
        "1",
        ("matching.da", "matching.calibration"),
        _ratio(lambda t: t.counts["calibration_events"], lambda t: t.calls["matching.calibration"]),
    ),
    "matching.utility_calls": (
        "count", ("uavmarket.matching.Market.utility",), _per_job_count("uavmarket.matching.Market.utility")
    ),
    "matching.final_schedules_s": (
        "s", ("matching.final_schedules",), _per_job_self("matching.final_schedules")
    ),
    "matching.stability_s": ("s", ("matching.stability",), _per_job_self("matching.stability")),
    "matching.blocking_pairs": ("count", ("matching.stability",), _per_job_count("blocking_pairs")),
    "verification.grid_s": ("s", ("verification.grid",), _per_job_self("verification.grid")),
    "verification.grid_calls": ("count", ("verification.grid",), _per_job_calls("verification.grid")),
    "verification.ic_matrix_s": (
        "s", ("verification.ic_matrix",), _per_job_self("verification.ic_matrix")
    ),
    "verification.enum_s": ("s", ("verification.enum",), _per_job_self("verification.enum")),
    "verification.enum_calls": ("count", ("verification.enum",), _per_job_calls("verification.enum")),
    "verification.stable_found": ("count", ("verification.enum",), _per_job_count("stable_found")),
    "verification.checks_skipped": ("count", ("pipeline.run",), _per_job_count("checks_skipped")),
    "pipeline.prepare_self_s": ("s", ("pipeline.prepare",), _per_job_self("pipeline.prepare")),
    "pipeline.run_self_s": ("s", ("pipeline.run",), _per_job_self("pipeline.run")),
    "pipeline.emit_s": ("s", ("pipeline.emit",), _per_job_self("pipeline.emit")),
    "pipeline.emit_rows": ("count", ("pipeline.emit",), _per_job_count("emit_rows")),
    "pipeline.emit_bytes": ("B", ("pipeline.emit",), _per_job_count("emit_bytes")),
    "pipeline.sweep_points": ("count", ("pipeline.run",), _per_job_count("sweep_points")),
}


def _span_names(tracer: Tracer) -> set[str]:
    """Span (or counter) names with at least one installed wrapper."""
    missing = set(tracer.missing)
    names = set()
    for owner, attr, name, _ in _hooks():
        if f"{owner}.{attr}" not in missing:
            names.add(name or f"{owner}.{attr}")
    return names


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Every per-layer metric as {"value", "unit"}, or with "missing": true."""
    present = _span_names(tracer)
    out = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if all(n in present for n in needs):
            out[name] = {"value": value(tracer, jobs), "unit": unit}
        else:
            out[name] = {"value": 0.0, "unit": unit, "missing": True}
    return out
