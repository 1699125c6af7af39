"""Metamorphic relations of the whole market pass, on every bundled file.

Each test changes a scenario document in a way whose effect on the
outcome is known without knowing the outcome, runs both documents
through ``run_match`` and compares the two results:

(a) Doubling every money-valued input (sigma, each declared alpha, beta,
    psi, zeta and cruise power, the fixed rewards, and an absolute
    calibration step) is a change of currency unit. Coverage depends only
    on ratios of these, and each is scaled by an exact power of two, so
    the assignment stays and the owner's profit doubles exactly.
(b) The order in which UAVs are listed carries no meaning. Reversing it
    keeps the assignment, up to the ids of exact twins (UAVs declared
    identically, whose order in a tie is their announcement order), and
    the owner's profit.
(d) A physical UAV that fails every screen announces nowhere. Listing
    one first adds one UNMATCHED row to ``assignment.csv`` and changes
    nothing else: not the menus, the assignment, the calibration log,
    the blocking pairs or the owner's profit.
(e') The reward recursion runs up the ladder from its costliest rung, and
    each closed-form coverage depends on its own marginal cost only.
    Removing one UAV therefore keeps every remaining rung's theta, bit
    for bit, and the reward of every rung costlier than the removed one.
    (e') also runs on ``benchmarks/gen.py``'s direct and physical families.

A file whose ties stay unresolved must stay unresolved, with the same
message.
"""

import copy
import json
from pathlib import Path

import pytest

from conftest import load_benchmark
from uavmarket.errors import UnresolvedTieError
from uavmarket.pipeline import prepare, run_match
from uavmarket.scenario import fixture_path, scenario_from_dict

CORPUS = Path(__file__).resolve().parent / "corpus"
FIXTURES = ("demo_grid.scn", "fig6.scn", "fig7.scn", "fig8.scn", "physical.scn", "table3.scn")
FILES = sorted(CORPUS.glob("*.scn")) + [fixture_path(name) for name in FIXTURES]
# benchmark family documents, as (family, n_uavs, n_subs, seed)
GENERATED = [("direct", 40, 40, seed) for seed in (0, 1)]
GENERATED += [("physical", 30, 30, seed) for seed in (0, 1)]


def document(path: Path | tuple) -> dict:
    """A bundled file's document, or a generated one for a ``GENERATED`` case."""
    if isinstance(path, tuple):
        family, *args = path
        return load_benchmark("gen").FAMILIES[family](*args)
    return json.loads(path.read_text(encoding="utf-8"))


def outcome(doc: dict):
    """The report of one market pass, or the message of its unresolved tie."""
    try:
        return run_match(scenario_from_dict(doc))
    except UnresolvedTieError as exc:
        return str(exc)


def twice(value):
    return {key: 2 * v for key, v in value.items()} if isinstance(value, dict) else 2 * value


def in_doubled_currency(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["economy"]["sigma"] *= 2
    for uav in doc["uavs"]:
        for name in ("alpha", "beta", "psi", "zeta", "power"):
            if name in uav:
                uav[name] = twice(uav[name])
    policy = doc.get("reward_hat_policy", {})
    for name in ("value", "values", "psi_ref", "zeta_ref"):
        if name in policy:
            policy[name] = twice(policy[name])
    calibration = doc.get("calibration", {})
    if calibration.get("delta_mode") == "absolute":
        calibration["delta_value"] *= 2
    return doc


def declared_only(path: Path) -> bool:
    return all(uav.get("mode") == "direct" for uav in document(path)["uavs"])


DIRECT_FILES = [path for path in FILES if declared_only(path)]
PHYSICAL_FILES = [path for path in FILES if not declared_only(path)]


def test_the_relations_cover_the_corpus_and_the_fixtures():
    assert len(FILES) == 37
    # physical UAVs derive their costs from hardware constants that (a)
    # leaves alone, so (a) runs on the declared-type files only
    assert len(DIRECT_FILES) == 28
    # (d) copies a physical UAV, so it runs where there is one
    assert len(PHYSICAL_FILES) == 9
    assert {p.name for p in DIRECT_FILES} >= {
        *(f"{family}-{i}.scn" for family in ("direct", "hetero") for i in range(5)),
        *(f"values-{i}.scn" for i in range(3)),
        "fig6.scn",
        "table3.scn",
    }


@pytest.mark.parametrize("path", DIRECT_FILES, ids=lambda p: p.name)
def test_doubling_the_currency_keeps_the_assignment_and_doubles_the_profit(path):
    doc = document(path)
    before, after = outcome(doc), outcome(in_doubled_currency(doc))
    if isinstance(before, str):
        assert after == before
        return
    assert after.match.assignment == before.match.assignment
    assert after.owner_profit == 2 * before.owner_profit
    assert len(after.match.calibration_log) == len(before.match.calibration_log)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_reversing_the_uavs_keeps_the_assignment_up_to_twins_and_the_profit(path):
    doc = document(path)
    reversed_doc = copy.deepcopy(doc)
    reversed_doc["uavs"].reverse()
    before, after = outcome(doc), outcome(reversed_doc)
    if isinstance(before, str):
        assert after == before
        return
    # a UAV's declaration without its id: exact twins share it
    kind = {
        uav["id"]: json.dumps({k: v for k, v in uav.items() if k != "id"}, sort_keys=True)
        for uav in doc["uavs"]
    }

    def up_to_twins(report):
        return {sub: kind[uav] for sub, uav in report.match.subregion_assignment().items()}

    assert up_to_twins(after) == up_to_twins(before)
    assert after.owner_profit == before.owner_profit


SCREENED_OUT = "screened-out"


def with_a_uav_that_fails_every_screen(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    assert SCREENED_OUT not in {uav["id"] for uav in doc["uavs"]}
    physical = next(uav for uav in doc["uavs"] if uav.get("mode", "physical") == "physical")
    doc["uavs"].insert(0, dict(physical, id=SCREENED_OUT, energy_capacity=1e-9))
    return doc


@pytest.mark.parametrize("path", PHYSICAL_FILES, ids=lambda p: p.name)
def test_a_uav_that_fails_every_screen_adds_one_unmatched_row_and_nothing_else(path, tmp_path):
    doc = document(path)
    reports = {}
    for name, variant in (("before", doc), ("after", with_a_uav_that_fails_every_screen(doc))):
        try:
            reports[name] = run_match(scenario_from_dict(variant), tmp_path / name)
        except UnresolvedTieError as exc:
            reports[name] = str(exc)
    before, after = reports["before"], reports["after"]
    if isinstance(before, str):
        assert after == before
        return
    assert not any(after.feasibility[SCREENED_OUT].passes)
    assert after.published == before.published
    assert after.schedules == before.schedules
    assert after.match.assignment == before.match.assignment
    assert after.match.calibration_log == before.match.calibration_log
    assert after.blocking_pairs == before.blocking_pairs
    assert after.owner_profit == before.owner_profit

    def lines(name, file):
        return (tmp_path / name / file).read_text(encoding="utf-8").splitlines()

    header, *rows = lines("before", "assignment.csv")
    assert lines("after", "assignment.csv") == [header, f"{SCREENED_OUT},UNMATCHED,", *rows]
    for file in ("calibration.csv", "stability.csv"):
        assert lines("after", file) == lines("before", file)


@pytest.mark.parametrize(
    "path",
    FILES + [pytest.param(case, id="gen.{}-{}x{}-{}".format(*case)) for case in GENERATED],
    ids=lambda p: p.name,
)
def test_removing_a_uav_keeps_every_theta_and_the_rewards_of_the_costlier_rungs(path):
    doc = document(path)
    before = prepare(scenario_from_dict(doc)).published
    for i, removed in enumerate(doc["uavs"][:4]):
        reduced = copy.deepcopy(doc)
        del reduced["uavs"][i]
        after = prepare(scenario_from_dict(reduced)).published
        assert after.keys() <= before.keys()
        for sub_id, menu in before.items():
            rest = after.get(sub_id)
            if rest is None:  # the removed UAV was the only announcer
                assert menu.ladder == (removed["id"],)
                continue
            assert rest.ladder == tuple(uav for uav in menu.ladder if uav != removed["id"])
            # a UAV that did not announce here is cheaper than no rung
            removed_rank = menu.rank_of(removed["id"]) or 0
            for uav, theta, reward in zip(rest.ladder, rest.thetas, rest.coverage_rewards):
                rank = menu.rank_of(uav)
                assert repr(theta) == repr(menu.thetas[rank - 1]), (removed["id"], sub_id, uav)
                if rank > removed_rank:
                    expected = menu.coverage_rewards[rank - 1]
                    assert repr(reward) == repr(expected), (removed["id"], sub_id, uav)
