"""The README's scenario-format example is a scenario the package runs.

The ``jsonc`` block documents every field. With its ``//`` comments
stripped it must load and go through one market pass, so that the
format documentation cannot drift from the loader.
"""

import json
import re
from pathlib import Path

from uavmarket.pipeline import run_match
from uavmarket.scenario import scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_scenario() -> dict:
    (block,) = re.findall(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_readme_scenario_loads_and_matches():
    scenario = scenario_from_dict(readme_scenario())
    assert [uav.id for uav in scenario.uavs] == ["u1", "u2"]
    assert scenario.reward_hats == {"s1": 35.0}
    report = run_match(scenario)
    assert report.blocking_pairs == []
    assert report.match.assignment == {"u2": "s1"}  # u1 fails the deadline screen
