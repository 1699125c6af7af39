"""The README's examples are a scenario the package runs and code that runs.

The ``jsonc`` block documents every field. With its ``//`` comments
stripped it must load and go through one market pass, so that the
format documentation cannot drift from the loader. The ``python`` block
is the library example; it is executed, so that it cannot drift from
the ``RunReport`` it reads. An inline signature such as
``grid_oracle_coverage(upsilons, data_volume, econ, grid_points=10001)``
must name the leading parameters of the package callable it shows.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import re
from pathlib import Path

import uavmarket
from uavmarket.pipeline import run_match
from uavmarket.scenario import scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [uavmarket] + [
    importlib.import_module(f"uavmarket.{info.name}")
    for info in pkgutil.iter_modules(uavmarket.__path__)
]


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


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    assert "{'u1': 's6', 'u2': 's1'" in out.getvalue()


def public_callable(name: str):
    """The package's own public function or class called ``name``, or None."""
    if name.startswith("_"):
        return None
    for module in MODULES:
        obj = getattr(module, name, None)
        if callable(obj) and getattr(obj, "__module__", "").startswith("uavmarket"):
            return obj
    return None


def signature_drift(span: str) -> list[str] | None:
    """How an inline ``name(arg, key=default, ...)`` span disagrees with ``name``'s signature.

    None when the span is not such a signature: its name is not a public
    callable of the package, or its arguments are not all bare names,
    ``name=literal`` or a closing ``...``.
    """
    match = re.fullmatch(r"(?:\w+\.)*(\w+)\((.*)\)", " ".join(span.split()))
    obj = match and public_callable(match[1])
    if obj is None:
        return None
    shown = []
    for arg in filter(None, (part.strip() for part in match[2].split(","))):
        if arg == "...":
            break
        key, eq, default = arg.partition("=")
        if not key.isidentifier():
            return None
        try:
            shown.append((key, ast.literal_eval(default) if eq else inspect.Parameter.empty))
        except ValueError:
            return None
    params = list(inspect.signature(obj).parameters.values())
    if [key for key, _ in shown] != [p.name for p in params[: len(shown)]]:
        return [f"`{span}`: the parameters begin {[p.name for p in params]}"]
    return [
        f"`{span}`: {p.name} defaults to {p.default!r}"
        for (_, default), p in zip(shown, params)
        if default is not inspect.Parameter.empty and default != p.default
    ]


def readme_spans() -> list[str]:
    """The README's inline code spans, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    return re.findall(r"`([^`]+)`", text)


def test_drift_check_reads_signatures():
    good = "grid_oracle_coverage(upsilons, data_volume, econ, grid_points=10001)"
    assert signature_drift(good) == []
    assert signature_drift("grid_oracle_coverage(upsilons, ...)") == []
    assert signature_drift("grid_oracle_coverage(ladder, sub, econ, reward_hat=0.0, ...)")
    assert signature_drift("grid_oracle_coverage(upsilons, data_volume, econ, grid_points=3)")
    assert signature_drift("fixture_path(\"fig6.scn\")") is None  # a call, not a signature
    assert signature_drift("ln(1 + mu * theta * D)") is None
    assert signature_drift("verification.random_coverage_draw(rng, seed)")


def test_readme_signatures_match_the_package():
    checked = {span: signature_drift(span) for span in readme_spans()}
    checked = {span: drift for span, drift in checked.items() if drift is not None}
    assert len(checked) >= 5
    assert [problem for drift in checked.values() for problem in drift] == []
