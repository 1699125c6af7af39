"""Outside-in correctness checks on the files a job leaves behind.

Nothing here imports uavmarket: every check reads the CSV artefacts (or
the printed summary) and, for tie-free declared-type scenarios, recomputes
the market from the scenario document itself. Each function returns a
list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

# Relative slack when comparing payoffs recomputed here with the ones the
# program used; both follow the same formulas in a different float order.
PAYOFF_SLACK = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def match_outputs(out_dir: Path, doc: dict) -> tuple[list[str], dict[str, str]]:
    """Structure and stability certificate of one ``match`` run.

    Returns the problems found and the assignment read back (uav ->
    subregion, matched UAVs only).
    """
    problems: list[str] = []
    header, rows = read_csv(out_dir / "assignment.csv")
    if header != ["uav", "subregion", "rtilde_version"]:
        return [f"assignment.csv: bad header {header}"], {}
    uav_ids = [u["id"] for u in doc["uavs"]]
    sub_ids = {s["id"] for s in doc["subregions"]}
    if [r[0] for r in rows] != uav_ids:
        problems.append("assignment.csv: rows do not list every UAV once, in order")
    assignment = {r[0]: r[1] for r in rows if r[1] != "UNMATCHED"}
    unknown = set(assignment.values()) - sub_ids
    if unknown:
        problems.append(f"assignment.csv: unknown subregion(s) {sorted(unknown)}")
    if len(set(assignment.values())) != len(assignment):
        problems.append("assignment.csv: a subregion holds two UAVs")
    header, rows = read_csv(out_dir / "stability.csv")
    if header != ["uav", "subregion"]:
        problems.append(f"stability.csv: bad header {header}")
    if rows:
        problems.append(f"stability.csv: {len(rows)} blocking pair(s) reported")
    return problems, assignment


def _value(entry: dict, name: str, sub_id: str) -> float:
    v = entry.get(name, 0.0)
    return float(v[sub_id]) if isinstance(v, dict) else float(v)


def _reward_hat(doc: dict, sub_id: str) -> float:
    policy = doc.get("reward_hat_policy", {"mode": "fixed", "value": 0.0})
    if policy.get("mode") == "reference":
        return doc["economy"]["phi"] * (policy.get("psi_ref", 0.0) + policy.get("zeta_ref", 0.0))
    if "values" in policy:
        return float(policy["values"][sub_id])
    return float(policy.get("value", 0.0))


def declared_payoffs(doc: dict) -> tuple[dict, dict]:
    """Recompute a tie-free declared-type market from the paper's formulas.

    Per subregion: the ladder in ascending ``upsilon = phi * (alpha +
    beta)``, the closed-form coverage ``(sigma / (N * upsilon) - 1) / (mu
    * D)`` clamped to [0, 1], and the backward reward recursion that
    leaves the costliest rung at break-even. Returns (upsilon, payoff),
    both keyed by (uav, subregion); the payoff is reward plus fixed reward
    minus the whole energy bill.
    """
    econ = doc["economy"]
    phi, mu, sigma = econ["phi"], econ["mu"], econ["sigma"]
    n_subs = len(doc["subregions"])
    upsilon: dict = {}
    payoff: dict = {}
    for sub in doc["subregions"]:
        sid = sub["id"]
        rungs = []
        for uav in doc["uavs"]:
            if uav.get("mode") != "direct" or "psi" not in uav:
                raise ValueError("declared_payoffs needs direct UAVs with psi")
            a, b = _value(uav, "alpha", sid), _value(uav, "beta", sid)
            rungs.append((phi * (a + b), uav["id"], a, b, _value(uav, "psi", sid), _value(uav, "zeta", sid)))
        rungs.sort(key=lambda r: r[0])
        if len({r[0] for r in rungs}) != len(rungs):
            raise ValueError(f"subregion {sid}: marginal costs tie")
        thetas = [
            min(1.0, max(0.0, (sigma / (n_subs * r[0]) - 1.0) / (mu * sub["data_volume"])))
            for r in rungs
        ]
        rewards = [0.0] * len(rungs)
        rewards[-1] = rungs[-1][0] * thetas[-1]
        for k in range(len(rungs) - 2, -1, -1):
            rewards[k] = rewards[k + 1] + rungs[k][0] * (thetas[k] - thetas[k + 1])
        hat = _reward_hat(doc, sid)
        for (ups, uid, a, b, psi, zeta), theta, reward in zip(rungs, thetas, rewards):
            upsilon[uid, sid] = ups
            payoff[uid, sid] = reward + hat - phi * (a * theta + b * theta + psi + zeta)
    return upsilon, payoff


def blocking_pairs(doc: dict, assignment: dict[str, str]) -> list[str]:
    """Independent stability check of a declared-type assignment.

    A matched pair must pay the UAV at least zero. A pair (u, s) blocks
    when u would rather serve s than its current outcome (unmatched pays
    zero) and s would rather have u than its partner: lower marginal
    cost, or any acceptable UAV while s is unmatched.
    """
    upsilon, payoff = declared_payoffs(doc)
    partner = {s: u for u, s in assignment.items()}
    problems = []
    for uid, sid in assignment.items():
        if payoff[uid, sid] < -PAYOFF_SLACK * (1.0 + abs(payoff[uid, sid])):
            problems.append(f"{uid} at {sid} is paid below break-even")
    for sub in doc["subregions"]:
        sid = sub["id"]
        holder = partner.get(sid)
        for uav in doc["uavs"]:
            uid = uav["id"]
            if uid == holder or payoff[uid, sid] < 0.0:
                continue
            if holder is not None and upsilon[uid, sid] >= upsilon[holder, sid]:
                continue
            current = payoff[uid, assignment[uid]] if uid in assignment else 0.0
            if payoff[uid, sid] > current + PAYOFF_SLACK * (1.0 + abs(current)):
                problems.append(f"blocking pair ({uid}, {sid})")
    return problems


def contract_stdout(text: str) -> list[str]:
    """Every menu the ``contract`` command prints must pass all three audits."""
    lines = [l for l in text.splitlines() if l.startswith("contract[")]
    if not lines:
        return ["contract: no menu reported"]
    flags = ("ir_ok=True", "ic_ok=True", "monotone_ok=True")
    return [f"contract: {l}" for l in lines if not all(f in l for f in flags)]


def ic_matrix_rows(out_dir: Path, n_uavs: int, n_subs: int) -> list[str]:
    """A full-fleet ladder per subregion gives ``n_subs * n_uavs**2`` rows."""
    with open(out_dir / "ic_matrix.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    want = n_subs * n_uavs * n_uavs
    return [] if rows == want else [f"ic_matrix.csv: {rows} rows, expected {want}"]


def verify_outputs(out_dir: Path) -> list[str]:
    """Every row of ``verify.csv`` must read ``pass``."""
    header, rows = read_csv(out_dir / "verify.csv")
    if header != ["check", "status", "magnitude", "detail"]:
        return [f"verify.csv: bad header {header}"]
    if not rows:
        return ["verify.csv: no checks"]
    return [f"verify.csv: {r[0]} is {r[1]}" for r in rows if r[1] != "pass"]


def sweep_outputs(out_dir: Path, steps: int) -> list[str]:
    header, rows = read_csv(out_dir / "sweep.csv")
    if header != ["param_value", "metric", "value"]:
        return [f"sweep.csv: bad header {header}"]
    points = {r[0] for r in rows}
    return [] if len(points) == steps else [f"sweep.csv: {len(points)} points, expected {steps}"]
