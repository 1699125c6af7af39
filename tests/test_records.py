"""The validated named-tuple records against the dataclasses they replaced.

``CostVector`` and ``ContractItem`` are named tuples whose ``__new__``
validates. Held to the frozen dataclasses copied in
``dataclass_records.py``, each must accept and refuse the same inputs
with the same message, except where the dataclasses let a value through
that no menu can use (a NaN total reward). An accepted record holds the
very objects it was given and agrees with the dataclass on ``==`` and
``hash`` within its type, ``repr``, pickling and deep copies; assigning
a field raises ``AttributeError``.

A menu, ``ContractSchedule``, holds each rung's upsilon, theta and
coverage reward as columns. It refuses an upsilon as the ladder rung
record did (``> 0``), and also NaN and inf, and a theta or a total
reward exactly as ``ContractItem`` does, so that ``item_for`` never
raises. Its audit is derived from those columns, never given.
"""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import dataclass_records as old
from uavmarket.contract import ContractSchedule
from uavmarket.core import CostVector
from uavmarket.economics import ContractItem

SPECIAL = [
    0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]

# finite values, +-0.0, negatives, NaN, +-inf, ints and subnormals
numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(-1e-300, 1e-300),
    st.integers(-3, 3),
)
valid_costs = st.tuples(*[st.floats(0.0, 1e300) | st.integers(0, 5)] * 4)


def construct(cls, args=(), **kwargs):
    """``cls(*args, **kwargs)``, or the message of the ``ValueError`` it raised."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


def assert_same_fields(new, ref):
    for name in new._fields:
        value, expected = getattr(new, name), getattr(ref, name)
        if isinstance(value, CostVector):
            assert_same_fields(value, expected)
        else:
            assert type(value) is type(expected) and repr(value) == repr(expected), name


def assert_like_reference(new_cls, ref_cls, new_args, ref_args, refused_since=None):
    """``new_cls(*new_args)`` behaves as ``ref_cls(*ref_args)``.

    ``refused_since`` is the message the record refuses with where the
    dataclass accepted the input.
    """
    new, ref = construct(new_cls, new_args), construct(ref_cls, ref_args)
    assert construct(new_cls, **dict(zip(new_cls._fields, new_args))) == new
    if refused_since is not None:
        assert isinstance(ref, ref_cls)
        assert new == refused_since
    elif isinstance(ref, str):
        assert new == ref
    else:
        assert type(new) is new_cls
        assert all(value is arg for value, arg in zip(new, new_args))  # the objects given
        assert_same_fields(new, ref)
        assert repr(new) == repr(ref)
        assert hash(new) == hash(ref)
        for twin in (pickle.loads(pickle.dumps(new)), copy.deepcopy(new)):
            assert type(twin) is new_cls and twin == new and repr(twin) == repr(new)
        for name in new._fields:
            with pytest.raises(AttributeError):
                setattr(new, name, getattr(new, name))


@settings(max_examples=400, deadline=None)
@given(args=st.tuples(numbers, numbers, numbers, numbers))
def test_cost_vector_is_the_dataclass(args):
    assert_like_reference(CostVector, old.CostVector, args, args)


def one_rung_menu(upsilon=1.0, theta=0.5, coverage_reward=1.0, fixed_reward=0.0, costs=None):
    costs = CostVector(1.0, 1.0, 0.0, 0.0) if costs is None else costs
    return ContractSchedule(
        "s1", ("u",), (upsilon,), (costs,), (theta,), (coverage_reward,), fixed_reward
    )


@settings(max_examples=400, deadline=None)
@given(uav_id=st.text(max_size=3), upsilon=numbers, costs=valid_costs)
def test_a_menu_refuses_an_upsilon_as_the_rung_did_and_nan_and_inf(uav_id, upsilon, costs):
    # the rung record refused an upsilon <= 0 and let NaN and inf through
    if upsilon <= 0:
        expected = "upsilon must be > 0"
    elif upsilon != upsilon or upsilon == math.inf:
        expected = f"upsilon must be finite, got {upsilon}"
    else:
        expected = None
    vector = CostVector(*costs)
    menu = construct(
        ContractSchedule, ("s1", (uav_id,), (upsilon,), (vector,), (0.5,), (1.0,), 0.0)
    )
    if expected is not None:
        assert menu == expected
    else:
        assert menu.ladder == (uav_id,) and menu.rank_of(uav_id) == 1
        assert menu.upsilons[0] is upsilon and menu.costs[0] is vector


@settings(max_examples=400, deadline=None)
@given(args=st.tuples(numbers, numbers) | st.tuples(numbers, numbers, numbers))
def test_a_menu_refuses_a_theta_and_a_total_reward_as_the_item_does(args):
    item = construct(ContractItem, args)
    menu = construct(one_rung_menu, (1.0, *args))
    if isinstance(item, str):
        assert menu == item
    else:
        assert menu.item_for("u") == item
        assert all(value is arg for value, arg in zip(menu.item_for("u"), args))


@settings(max_examples=400, deadline=None)
@given(args=st.tuples(numbers, numbers) | st.tuples(numbers, numbers, numbers))
def test_item_is_the_dataclass_but_refuses_a_nan_total(args):
    theta, *rewards = args
    fixed = 0.0 <= theta <= 1.0 and math.isnan(sum(rewards))
    since = "total reward must be >= 0" if fixed else None
    assert_like_reference(ContractItem, old.ContractItem, args, args, since)


# each entry holds values that are equal but not the same: a sign, a type
VALUE_CLASSES = [(0.0, -0.0), (1, 1.0), (0.5,), (2.0,)]
value_classes = st.lists(st.sampled_from(VALUE_CLASSES), min_size=4, max_size=4)


def twins(kind, values):
    """The record of ``kind`` made from ``values`` and its dataclass twin, or their messages."""
    new_cls = CostVector if kind == "CostVector" else ContractItem
    args = values[: len(new_cls._fields)]
    return construct(new_cls, args), construct(getattr(old, kind), args)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["CostVector", "ContractItem"]), data=st.data())
def test_equality_and_hash_within_a_type_are_the_dataclass(kind, data):
    # half the time the second record is equal in value to the first
    first = data.draw(value_classes)
    second = first if data.draw(st.booleans()) else data.draw(value_classes)
    pair = [tuple(data.draw(st.sampled_from(c)) for c in classes) for classes in (first, second)]
    (a, a_ref), (b, b_ref) = (twins(kind, values) for values in pair)
    if not any(isinstance(r, str) for r in (a, a_ref, b, b_ref)):
        assert (a == b) == (a_ref == b_ref)
        assert (a != b) == (a_ref != b_ref)
        assert (hash(a) == hash(b)) == (hash(a_ref) == hash(b_ref))


@pytest.mark.parametrize("upsilon", [math.nan, math.inf, -math.inf])
def test_a_menu_refuses_an_upsilon_of_nan_or_inf(upsilon):
    with pytest.raises(ValueError) as err:
        one_rung_menu(upsilon)
    shown = "> 0" if upsilon < 0 else f"finite, got {upsilon}"
    assert str(err.value) == f"upsilon must be {shown}"


@pytest.mark.parametrize("rewards", [(math.nan,), (0.5, math.nan), (math.inf, -math.inf)])
def test_an_item_refuses_a_nan_total_reward(rewards):
    with pytest.raises(ValueError) as err:
        ContractItem(0.5, *rewards)
    assert str(err.value) == "total reward must be >= 0"


def test_an_item_and_a_menu_keep_an_inf_total_reward():
    # so that pipeline.prepare can report it at $.reward_hat_policy
    assert ContractItem(0.5, math.inf, 1.0).total_reward == math.inf
    assert one_rung_menu(coverage_reward=math.inf).item_for("u").total_reward == math.inf


def test_a_menu_takes_no_audit():
    # the audit is derived from the columns, so none can contradict them
    costs = CostVector(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        ContractSchedule(
            "s1", ("u",), (1.0,), (costs,), (0.5,), (1.0,), 0.0, audit=one_rung_menu().audit
        )


def test_replace_and_make_go_through_the_checks():
    costs = CostVector(1.0, 2.0, 0.0, 0.0)
    assert costs._replace(psi=3.0) == CostVector(1.0, 2.0, 3.0, 0.0)
    for record, change in (
        (costs, {"beta": -1.0}),
        (ContractItem(0.5, 1.0), {"theta": 2.0}),
    ):
        with pytest.raises(ValueError):
            record._replace(**change)
        with pytest.raises(ValueError):
            type(record)._make({**record._asdict(), **change}.values())
    menu = one_rung_menu(costs=costs)
    for change in ({"upsilons": (0.0,)}, {"thetas": (2.0,)}, {"fixed_reward": -2.0}):
        with pytest.raises(ValueError):
            dataclasses.replace(menu, **change)
