"""``experiments.export.jsonable`` against a frozen copy of its old form.

``jsonable`` writes every run-all export, the committed golden and every
served payload, so a faster implementation must produce the same JSON
for every input. ``_reference_jsonable`` below is the isinstance-chain
implementation it replaced, kept verbatim as the oracle.
"""

import collections
import dataclasses
import enum
import json
import urllib.request
from typing import Any

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.export import jsonable
from repro.server import create_server
from repro.server import state as state_mod


def _reference_jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _reference_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, tuple):
                key = "|".join(str(part) for part in key)
            elif not isinstance(key, str):
                key = str(key)
            out[key] = _reference_jsonable(value)
        return out
    if isinstance(obj, (list, tuple, set)):
        return [_reference_jsonable(item) for item in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return str(obj)
        return obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"


@dataclasses.dataclass(frozen=True)
class Point:
    x: float
    y: int
    color: Color = Color.RED


@dataclasses.dataclass
class Box:
    payload: Any
    level: Level
    tag: Tag = Tag.ALPHA
    marker: dataclasses.InitVar[int] = 0

    def __post_init__(self, marker: int) -> None:
        pass


class Opaque:
    """Falls through every branch to ``str``."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __str__(self) -> str:
        return f"opaque<{self.label}>"


class StrSub(str):
    pass


class FloatSub(float):
    pass


ENUMS = st.sampled_from(list(Color) + list(Level) + list(Tag))
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**12, max_value=10**12),
    FLOATS,
    st.text(max_size=6),
    ENUMS,
    FLOATS.map(numpy.float64),
    st.integers(min_value=-10**9, max_value=10**9).map(numpy.int64),
    st.text(max_size=4).map(StrSub),
    FLOATS.map(FloatSub),
    st.builds(Point, FLOATS, st.integers(-99, 99), st.sampled_from(list(Color))),
    st.sampled_from([Point, Color, Level]),
)
LEAVES = st.one_of(HASHABLE, st.text(max_size=6).map(Opaque))
KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(-50, 50),
    st.booleans(),
    st.none(),
    ENUMS,
    FLOATS,
    st.tuples(st.integers(-5, 5), st.text(max_size=3)),
    st.tuples(ENUMS, ENUMS, st.booleans()),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(HASHABLE, max_size=4).map(set),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=3).map(
            collections.OrderedDict
        ),
        st.builds(Box, children, st.sampled_from(list(Level)),
                  st.sampled_from(list(Tag))),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_jsonable_matches_the_reference_conversion(value):
    assert _dumps(jsonable(value)) == _dumps(_reference_jsonable(value))


@pytest.mark.parametrize("value", [
    True, 1, 1.0, float("nan"), float("inf"), float("-inf"), None,
    {True: 1, 1: "one", "1": "str-one", (1, "a"): Level.LOW},
    {Level.HIGH: Color.BLUE, Tag.BETA: [Point(0.5, 3)]},
    numpy.float64("nan"), numpy.int64(7), {1, 2, 3},
    Box(payload=(1, [2.5, float("-inf")]), level=Level.LOW),
    Point, Color, Opaque("x"),
])
def test_jsonable_matches_on_edge_values(value):
    assert _dumps(jsonable(value)) == _dumps(_reference_jsonable(value))


def test_bool_stays_bool_and_int_stays_int():
    assert jsonable([True, 1, False, 0]) == [True, 1, False, 0]
    assert [type(item) for item in jsonable([True, 1])] == [bool, int]


@pytest.fixture(scope="module")
def server():
    srv = create_server(scale=0.05, warm_artefacts=()).start()
    assert srv.state.ready.wait(timeout=180), srv.state.warm_error
    yield srv
    srv.stop()


@pytest.mark.parametrize("path, kind, kwargs", [
    ("/query?kind=traceroute&records=10", "traceroute",
     {"records": 10}),
    ("/query?kind=speedtest&group_by=country&records=10", "speedtest",
     {"group_by": ("country",), "records": 10}),
    ("/query?kind=web&records=10", "web", {"records": 10}),
])
def test_served_records_are_byte_identical_to_the_reference(
    server, monkeypatch, path, kind, kwargs
):
    with urllib.request.urlopen(f"{server.url}{path}", timeout=30) as resp:
        served = resp.read()
    monkeypatch.setattr(state_mod, "jsonable", _reference_jsonable)
    expected = server.state.query(kind, where={}, **kwargs)
    assert expected.get("records")
    assert served == _dumps(expected).encode("utf-8")
