import json
import math
from dataclasses import dataclass, field

import pytest

from latscale.reader import read
from latscale.scaler import PlanAction, ScalingPlan


@dataclass
class Inner:
    count: int
    share: float = 0.5


@dataclass
class Outer:
    name: str
    flag: bool
    inner: Inner
    pairs: tuple[tuple[int, float], ...] = ()
    items: list[float] = field(default_factory=list)
    table: dict[str, Inner] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    note: str | None = None


DOC = {"name": "a", "flag": False, "inner": {"count": 2.0}, "pairs": [[1, 2]], "items": [1, 2.5],
       "table": {"k": {"count": 1, "share": 1}}, "raw": {"x": [None]}, "note": None}


def test_reads_every_rule():
    out = read(Outer, DOC)
    assert out == Outer("a", False, Inner(2), ((1, 2.0),), [1.0, 2.5], {"k": Inner(1, 1.0)},
                        {"x": [None]}, None)
    assert type(out.inner.count) is int and type(out.pairs[0][1]) is float
    assert type(out.items) is list and type(out.pairs) is tuple


@pytest.mark.parametrize("edit, says", [
    ({"name": 3}, "name: expected a string, got 3"),
    ({"flag": 1}, "flag: expected true or false, got 1"),
    ({"inner": {"count": "3"}}, "inner count: expected an integer, got \"3\""),
    ({"inner": {"count": True}}, "inner count: expected an integer, got true"),
    ({"inner": {"count": 1.5}}, "inner count: expected an integer, got 1.5"),
    ({"inner": {"count": 1, "share": "0.5"}}, "inner share: expected a number, got \"0.5\""),
    ({"inner": {"count": 1, "share": math.nan}}, "inner share: nan is not a finite number"),
    ({"inner": {"count": 10**400}}, "inner count: 1000"),
    ({"inner": {}}, "inner: missing key(s) 'count'"),
    ({"inner": {"count": 1, "extra": 0}}, "inner: unknown key(s) 'extra'"),
    ({"pairs": [[1, 2, 3]]}, "pairs 0: expected a list of 2, got [1, 2, 3]"),
    ({"items": {"a": 1}}, "items: expected a list, got {\"a\": 1}"),
    ({"table": {"k": {"count": None}}}, "table 'k' count: expected an integer, got null"),
    ({"raw": []}, "raw: expected an object, got []"),
    ({"note": 5}, "note: expected a string, got 5"),
], ids=["str", "bool", "numeric-string", "boolean-int", "fraction-int", "string-float", "nan",
        "huge-int", "missing", "unknown", "fixed-tuple", "list", "dict-value", "bare-dict",
        "optional"])
def test_refuses_naming_the_key(edit, says):
    with pytest.raises(ValueError) as exc:
        read(Outer, {**DOC, **edit}, "doc")
    assert str(exc.value).startswith(f"doc {says}")


def test_unknown_annotation_is_a_type_error():
    @dataclass
    class Odd:
        values: set[int]

    with pytest.raises(TypeError, match="no rule reads"):
        read(Odd, {"values": [1]})


def test_plan_round_trips_with_lists():
    plan = ScalingPlan("green", 100.0, 0.2, [1.0, 2.0], True, 3.5,
                       [PlanAction("cart", "pods", 2.0, 1.5, 3.0)], [])
    back = ScalingPlan.from_json(plan.to_json())
    assert back == plan and type(back.theta) is list and type(back.actions) is list
    with pytest.raises(ValueError, match="actions 0 current: expected a number"):
        doc = json.loads(plan.to_json())
        doc["actions"][0]["current"] = "2"
        ScalingPlan.from_json(json.dumps(doc))
