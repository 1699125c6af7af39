"""Every public function and class of the package has a caller inside it.

A public module-level name that nothing in ``src/uavmarket`` reads,
apart from its own definition and the re-export in ``__init__.py``, is
an API only tests use; it is deleted rather than kept for them. The
scan reads the source with ``ast``, so a mention in a docstring or a
comment is not a reference.

Each argument guard of the public API that no other test reaches raises
its exception with its message here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import uavmarket
from conftest import demo_econ, demo_subregion, grid_announcements
from uavmarket.contract import ContractSchedule, build_schedule, reward_schedule
from uavmarket.economics import model_accuracy
from uavmarket.errors import UnresolvedTieError
from uavmarket.matching import MatchState, PreferenceList, gs_match

PACKAGE = Path(uavmarket.__file__).parent

# Entry points for library users that no module of the package calls
# itself; each is documented in the README.
ENTRY_POINTS = {"fixture_path"}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in ``tree``, as bare names, attributes or imports, outside ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_names() -> list[str]:
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ENTRY_POINTS:
                continue
            readers = [
                referenced_names(other, skip=node if other is tree else None)
                for other in modules.values()
            ]
            if not any(node.name in names for names in readers):
                unused.append(f"{name}:{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


def test_entry_points_are_exported():
    assert ENTRY_POINTS <= set(dir(uavmarket))


def two_rung_menu() -> ContractSchedule:
    announcements = dict(list(grid_announcements().items())[:2])
    return build_schedule(announcements, demo_subregion(), demo_econ())


def menu_with_one_theta_too_few():
    menu = two_rung_menu()
    return dataclasses.replace(menu, thetas=menu.thetas[:1])


def tied_head_without_a_market():
    tied = PreferenceList("s1", ("a", "b"), (13.5, 13.5))
    uav_prefs = {uav: PreferenceList(uav, ("s1",), (1.0,)) for uav in ("a", "b")}
    return gs_match({"s1": tied}, uav_prefs)


GUARDS = {
    "schedule_columns": (
        menu_with_one_theta_too_few, ValueError, "menu columns must have equal length"
    ),
    "with_coverage_rewards_length": (
        lambda: two_rung_menu().with_coverage_rewards([1.0]),
        ValueError,
        "menu columns must have equal length",
    ),
    "reward_schedule_columns": (
        lambda: reward_schedule([13.5, 20.0], [0.5]),
        ValueError,
        "upsilons and coverages must have equal length",
    ),
    "preference_list_columns": (
        lambda: PreferenceList("u1", ("s1", "s2"), (1.0,)),
        ValueError,
        "ranked and scores must have equal length",
    ),
    "two_uavs_on_one_subregion": (
        lambda: MatchState({"a": "s1", "b": "s1"}).subregion_assignment(),
        ValueError,
        "two UAVs assigned to subregion 's1'",
    ),
    "tied_head_without_a_market": (
        tied_head_without_a_market,
        UnresolvedTieError,
        "subregion 's1': tie unresolved after 0 calibration rounds",
    ),
    "accuracy_theta_above_one": (
        lambda: model_accuracy([(1.5, 10.0)], 1.0), ValueError, "theta must be in [0, 1], got 1.5"
    ),
    "accuracy_theta_below_zero": (
        lambda: model_accuracy([(-0.5, 10.0)], 1.0), ValueError, "theta must be in [0, 1], got -0.5"
    ),
    "accuracy_data_volume_zero": (
        lambda: model_accuracy([(0.5, 0.0)], 1.0), ValueError, "data volume must be > 0"
    ),
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS)
def test_public_argument_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
