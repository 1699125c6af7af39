"""The validated named-tuple records against the dataclasses they replaced.

``CostVector``, ``AuxiliaryType`` and ``ContractItem`` are named tuples
whose ``__new__`` validates. Held to the frozen dataclasses copied in
``dataclass_records.py``, each must accept and refuse the same inputs
with the same message, except where the dataclasses let a value through
that no menu can use (an upsilon of NaN or inf, a NaN total reward). An
accepted record holds the very objects it was given and agrees with the
dataclass on ``==`` and ``hash`` within its type, ``repr``, pickling and
deep copies; assigning a field raises ``AttributeError``.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import dataclass_records as old
from uavmarket.contract import AuxiliaryType
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


@settings(max_examples=400, deadline=None)
@given(rank=st.integers(-1, 60), uav_id=st.text(max_size=3), upsilon=numbers, costs=valid_costs)
def test_rung_is_the_dataclass_but_refuses_nan_and_inf(rank, uav_id, upsilon, costs):
    new_args = (rank, uav_id, upsilon, CostVector(*costs))
    ref_args = (rank, uav_id, upsilon, old.CostVector(*costs))
    fixed = upsilon != upsilon or upsilon == math.inf
    since = f"upsilon must be finite, got {upsilon}" if fixed else None
    assert_like_reference(AuxiliaryType, old.AuxiliaryType, new_args, ref_args, since)


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
    if kind == "AuxiliaryType":
        # a valid rung: a positive finite upsilon and valid costs
        upsilon, *costs = (v if 0 < v < math.inf else 1.0 for v in values)
        return (
            AuxiliaryType(1, "u", upsilon, CostVector(*costs, 0.0)),
            old.AuxiliaryType(1, "u", upsilon, old.CostVector(*costs, 0.0)),
        )
    new_cls = CostVector if kind == "CostVector" else ContractItem
    args = values[: len(new_cls._fields)]
    return construct(new_cls, args), construct(getattr(old, kind), args)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["CostVector", "AuxiliaryType", "ContractItem"]), data=st.data())
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


@pytest.mark.parametrize("upsilon", [math.nan, math.inf])
def test_a_rung_refuses_an_upsilon_of_nan_or_inf(upsilon):
    with pytest.raises(ValueError) as err:
        AuxiliaryType(1, "u", upsilon, CostVector(1.0, 1.0, 0.0, 0.0))
    assert str(err.value) == f"upsilon must be finite, got {upsilon}"


@pytest.mark.parametrize("rewards", [(math.nan,), (0.5, math.nan), (math.inf, -math.inf)])
def test_an_item_refuses_a_nan_total_reward(rewards):
    with pytest.raises(ValueError) as err:
        ContractItem(0.5, *rewards)
    assert str(err.value) == "total reward must be >= 0"


def test_an_item_keeps_an_inf_total_reward():
    # so that pipeline.prepare can report it at $.reward_hat_policy
    assert ContractItem(0.5, math.inf, 1.0).total_reward == math.inf


def test_replace_and_make_go_through_the_checks():
    costs = CostVector(1.0, 2.0, 0.0, 0.0)
    assert costs._replace(psi=3.0) == CostVector(1.0, 2.0, 3.0, 0.0)
    for record, change in (
        (costs, {"beta": -1.0}),
        (AuxiliaryType(1, "u", 1.0, costs), {"upsilon": 0.0}),
        (ContractItem(0.5, 1.0), {"theta": 2.0}),
    ):
        with pytest.raises(ValueError):
            record._replace(**change)
        with pytest.raises(ValueError):
            type(record)._make({**record._asdict(), **change}.values())
