"""The schema compiler on a schema of its own, held to jsonschema: its second user beside scenarios."""

from __future__ import annotations

import copy
from functools import reduce

import jsonschema
import pytest

from taskweave._schema import _Fault, _at, compile_schema

from test_scenario_builder import apply, mutations

POINT = {
    "type": "object",
    "required": ["x"],
    "additionalProperties": False,
    "properties": {
        "x": {"type": "integer", "minimum": 0, "maximum": 9},
        "y": {"type": "number", "default": 0.0},
    },
}
SHAPE = {  # a closed object, an enum, an array of closed objects by `$ref`, a map
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "points"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["line", "ring"]},
        "points": {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/point"}},
        "labels": {"type": "object", "additionalProperties": {"type": "string", "minLength": 1}},
    },
    "$defs": {"point": POINT},
}
BUILT = {"#/$defs/point": "(x, y)"}  # a point is built as a tuple, on the generated fast path
VALID = {"kind": "line", "points": [{"x": 1}, {"x": 9, "y": -2.5}], "labels": {"a": "start", "odd key": "end"}}
# (path, schema node) of each node of VALID
SITES = [
    ((), SHAPE),
    (("kind",), SHAPE["properties"]["kind"]),
    (("points",), SHAPE["properties"]["points"]),
    *((("points", i), POINT) for i in range(2)),
    *((("points", i, "x"), POINT["properties"]["x"]) for i in range(2)),
    (("points", 1, "y"), POINT["properties"]["y"]),
    (("labels",), SHAPE["properties"]["labels"]),
    *((("labels", key), SHAPE["properties"]["labels"]["additionalProperties"]) for key in VALID["labels"]),
]
VALIDATOR = jsonschema.Draft202012Validator(SHAPE)
CHECK = compile_schema(SHAPE, BUILT, {})


def schema_verdict(doc):
    errors = sorted(VALIDATOR.iter_errors(doc), key=lambda e: str(e.json_path))
    return (errors[0].json_path, errors[0].message) if errors else None


def compiled_verdict(doc):
    try:
        CHECK(doc)
    except _Fault as fault:
        return (reduce(_at, reversed(fault.keys), "$"), str(fault))
    return None


def test_a_valid_document_builds_its_forms():
    assert schema_verdict(VALID) is None
    built = {"kind": "line", "points": ((1, 0.0), (9, -2.5)), "labels": {"a": "start", "odd key": "end"}}
    assert CHECK(copy.deepcopy(VALID)) == built
    assert CHECK({**VALID, "points": [{"x": 1.0}]})["points"] == ((1, 0.0),)  # the slow path builds too


def test_the_check_of_one_node_by_its_pointer():
    point = compile_schema(SHAPE, BUILT, {}, "#/$defs/point")
    assert point({"x": 3}) == (3, 0.0)
    with pytest.raises(_Fault, match="10 is greater than the maximum of 9"):
        point({"x": 10})


def test_a_marked_node_passes_the_value_its_mark_holds():
    # a decoder hook builds a point ahead of the document, in a type only that node passes
    made = type("Made", (tuple,), {"__slots__": ()})
    checks = {}
    check = compile_schema(SHAPE, BUILT, {}, marks={"#/$defs/point": made}, checks=checks)
    assert list(checks) == ["#/$defs/point"]
    point = checks["#/$defs/point"]
    assert point(made(((4, 1.0),))) == (4, 1.0) == point({"x": 4, "y": 1.0})
    assert check({"kind": "ring", "points": [made(((4, 1.0),)), {"x": 2}]})["points"] == ((4, 1.0), (2, 0.0))
    with pytest.raises(_Fault, match="is not of type 'object'"):
        point((4, 1.0))  # the same value in a plain tuple is no point
    with pytest.raises(_Fault, match="is not of type 'object'"):
        CHECK({"kind": "ring", "points": [made(((4, 1.0),))]})  # nor is it where no caller lets it through


def single_faults():
    for path, schema in SITES:
        node = reduce(lambda value, key: value[key], path, VALID)
        for mutation in mutations(node, schema):
            yield apply(VALID, path, mutation)


def test_single_faults_get_jsonschemas_path_and_message():
    docs = list(single_faults())
    verdicts = [schema_verdict(doc) for doc in docs]
    assert sum(verdict is not None for verdict in verdicts) > 100
    for doc, verdict in zip(docs, verdicts):
        assert compiled_verdict(doc) == verdict, doc
