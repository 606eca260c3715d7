"""``dump_json`` against its oracle, ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``.

For every plain JSON value (dicts with str keys, lists, and exact float, str,
int, bool and None) ``dump_json`` must give the oracle's text plus a final
newline; for every value the oracle refuses, the same exception type.  What
the oracle accepts beyond plain JSON (subclasses, tuples, numpy floats,
non-str keys) is a ``TypeError`` naming its type.
"""

import enum
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from straindec.campaign import dump_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def outcome(encode, obj):
    """The text ``encode`` gives for ``obj``, or the type of what it raises."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


def value_at(obj, path: str):
    """The value a path such as ``fixtures[3].recorded.energy`` names."""
    for key, index in re.findall(r"\.?([^.\[\]]+)|\[(\d+)\]", path):
        obj = obj[int(index)] if index else obj[key]
    return obj


# Floats whose repr changes form nearby: the exponent switch at 1e16 and
# 1e-4, the subnormal range, the extremes, and signed zero.
EDGE_FLOATS = [
    -0.0, 0.0, 1e16, 9999999999999998.0, 1e-5, 1e-4, 0.0001234, 5e-324,
    -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e22, 1e21,
]
NON_FINITE = [math.nan, math.inf, -math.inf]
EDGE_TEXTS = ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "  ", "😀", ""]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
texts = st.text() | st.sampled_from(EDGE_TEXTS)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**80) | st.integers(max_value=-(2**64)),
    finite,
    texts,
)


def json_values(leaves, keys=texts):
    """Nested lists and dicts with ``keys`` for keys."""
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(keys, children, max_size=5),
        ),
        max_leaves=30,
    )


# Values the oracle refuses: a TypeError, or a ValueError for NaN and inf.
bad_leaves = st.sampled_from(
    NON_FINITE + [{1, 2}, b"bytes", np.int64(3), object(), np.bool_(True)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values(scalars))
def test_same_text_as_json_dumps(value):
    assert dump_json(value) == oracle(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values(scalars | bad_leaves))
def test_refused_values_raise_the_same_type(value):
    assert outcome(dump_json, value) == outcome(oracle, value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(json_values(scalars), max_size=4),
    st.lists(finite, max_size=4),
    json_values(scalars),
)
def test_one_list_at_several_depths(shared, flat, other):
    # The memo is keyed by object and indent level, so the same list object
    # must be reformatted at every new depth.
    doc = [shared, flat, {"a": shared, "b": [[shared, flat]], "c": other}, flat, [shared]]
    assert dump_json(doc) == oracle(doc)
    assert dump_json({"x": doc, "y": [doc]}) == oracle({"x": doc, "y": [doc]})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.dictionaries(texts, json_values(scalars), max_size=4),
    st.lists(json_values(scalars), max_size=4),
    json_values(scalars),
)
def test_shared_dicts_and_lists_at_one_level_and_at_several(table, row, other):
    # Every container below the top is memoized by object and indent level:
    # the same dict or list, at the same level inside lists and inside dicts,
    # and again at other levels, must give the oracle's text each time.
    twins = [{"kind": "a", "recorded": table, "row": row},
             {"kind": "b", "recorded": table, "row": row}]
    doc = {
        "in_a_list": [table, table, row, row, other],
        "in_a_dict": {"p": table, "q": table, "r": row, "s": row},
        "deeper": [{"t": table, "u": [row, {"t": table, "r": row}]}, [table, row]],
        "twins": twins,
    }
    assert dump_json(doc) == oracle(doc)
    nested = [doc, {"again": doc, "twins": twins}, [doc], twins]
    assert dump_json(nested) == oracle(nested)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_in_a_shared_dict_names_its_first_path(bad):
    shared = {"energy": bad, "ok": True}
    # Insertion order meets "z" first; output order meets "b" first.
    doc = {"z": [shared], "b": [{"r": shared}, shared], "a": {"ok": [1.0]}}
    with pytest.raises(ValueError):
        oracle(doc)
    with pytest.raises(ValueError, match=re.escape(" at b[0].r.energy")):
        dump_json(doc)
    with pytest.raises(ValueError, match=re.escape(" at [0][0].energy")):
        dump_json([[shared], shared, {"x": shared}])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_values_raise_value_error_naming_the_path(bad):
    doc = {"b": [1.0, {"c": bad}], "a": {"z": 1.5}, "d": bad}
    with pytest.raises(ValueError):
        oracle(doc)
    with pytest.raises(ValueError, match=re.escape(" at b[1].c")):
        dump_json(doc)
    with pytest.raises(ValueError, match="at the top level"):
        dump_json(bad)
    with pytest.raises(ValueError, match=re.escape(" at [2]")):
        dump_json([0.0, [1.0], bad])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    json_values(scalars, keys=st.from_regex(r"[a-z_]{1,4}", fullmatch=True)),
    st.data(),
)
def test_the_named_path_holds_the_first_non_finite_value(value, data):
    bad = data.draw(st.sampled_from(NON_FINITE))
    # Sorted keys put "a" first, so the path must lead past it to "b".
    doc = {"c": [bad, value], "a": value, "b": {"x": value, "y": [0.5, bad]}}
    with pytest.raises(ValueError) as err:
        dump_json(doc)
    path = str(err.value).rsplit(" at ", 1)[1]
    assert path == "b.y[1]"
    assert not math.isfinite(value_at(doc, path))


def _nested(wrap, depth: int):
    value = 0.5
    for _ in range(depth):
        value = wrap(value)
    return value


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"a": v}, lambda v: [1, v]])
def test_nesting_past_the_recursion_limit_raises_recursion_error(wrap):
    # A level of nesting costs each encoder about one stack frame, so half
    # the limit formats and the limit itself overflows the stack.
    shallow = _nested(wrap, sys.getrecursionlimit() // 2)
    assert dump_json(shallow) == oracle(shallow)
    deep = _nested(wrap, sys.getrecursionlimit())
    with pytest.raises(RecursionError):
        oracle(deep)
    with pytest.raises(RecursionError):
        dump_json(deep)


def _cycles():
    looped_list = [1.0]
    looped_list.append(looped_list)
    looped_dict = {"a": 1}
    looped_dict["self"] = looped_dict
    inner = [2.0]
    outer = {"inner": inner}
    inner.append(outer)
    return [looped_list, looped_dict, outer, [[0.0], inner]]


def _cycles_past_formatted_dicts():
    """Cycles met after a dict on or next to them was formatted at another level."""
    shared = {"v": 1.0}
    loop = {"shared": shared}
    loop["self"] = [shared, loop]
    node = {"v": 2.0}
    back = [node]
    node["back"] = back
    twin = {"x": [1.0]}
    ring = {"twin": twin}
    ring["ring"] = {"twin": twin, "again": ring}
    return [
        [shared, {"deep": {"loop": loop}}],
        {"a": shared, "b": [[shared]], "c": loop},
        {"first": {"twin": twin}, "second": [ring]},
        [twin, [twin], back],
    ]


@pytest.mark.parametrize("value", _cycles() + _cycles_past_formatted_dicts())
def test_cycles_nest_until_recursion_error(value):
    # The oracle keeps a set of the containers it is in; dump_json does not,
    # so a cycle is nesting past the recursion limit.
    with pytest.raises(ValueError):
        oracle(value)
    with pytest.raises(RecursionError):
        dump_json(value)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", np.int64(3), object(), [np.bool_(False)],
    {"a": [1.0, {(1, 2): 3}]}, {1: 0, "a": 0}, {None: 0, "a": 0},
])
def test_values_json_cannot_hold_raise_type_error(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        dump_json(value)


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value, name", [
    (np.float64(0.5), "float64"),
    (Text("a"), "Text"),
    (Level.LOW, "Level"),
    ((1.0, 2.0), "tuple"),
    ({1: 0}, "int"),
    ({1.5: "a"}, "float"),
    ({Text("a"): 0}, "Text"),
])
def test_values_outside_plain_json_raise_type_error_naming_the_type(value, name):
    oracle(value)  # json.dumps writes each of them
    for doc in (value, [1.0, value], {"a": {"b": [value]}}):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            dump_json(doc)
