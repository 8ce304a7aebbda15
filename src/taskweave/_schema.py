"""A JSON schema compiled into checks that build their value as they check it.

`compile_schema` turns each schema node into a check: a function that takes the
node's value and returns the value to build from (an integer node's integral
float as an int, an array as a tuple) or raises `_Fault` with jsonschema's message.
The fast path is Python source generated from the schema and `exec`ed once:
string and number nodes test their value inline, and each hot node (a key of
`built`) inlines its key-set test and its properties' tests, then builds its
form or tuple. A number passes only as an int or float (an integer node: an int)
inside its bounds and ±inf, so NaN, ±inf and bools never pass. Any other
value takes the slow path: each rule of the node in keyword order, with
jsonschema's message, then each property's check, then the built form's
constructors, which reject the NaN and inf the schema admits. A closed object
runs its rules only if its key-set test, which covers them all, fails. A fault
collects its keys as it unwinds, so only a reported fault gets a path. A
closed object that holds a fault is walked again in property-name order, the
order of jsonschema's errors sorted by path; arrays and maps report their
first bad item. An absent property of a hot node takes its `default`.
"""

from __future__ import annotations

import math
import re
from functools import cache, reduce
from types import CodeType
from typing import Any, Callable

Check = Callable[[Any], Any]
_KEYWORDS = {  # by the node's type; a `$ref` stands alone, the root adds annotations
    None: {"enum", "const"},
    "string": {"type", "minLength"},
    "number": {"type", "minimum", "maximum"},
    "integer": {"type", "minimum", "maximum"},
    "array": {"type", "items", "minItems", "maxItems"},
    "object": {"type", "required", "properties", "additionalProperties"},
}
_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "default"}
_TYPES = dict(object=dict, array=list, string=str, number=(int, float), integer=(int, float))
_IDENTIFIER = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


class _Fault(Exception):
    """A schema rule a value breaks; `keys` leads from the value up to the root."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.keys: list[str | int] = []


def _at(path: str, key: str | int) -> str:
    """JSON path of `key` under `path`: `$.a[0].b`, or `$['a b']` for other names."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if _IDENTIFIER.match(key):
        return f"{path}.{key}"
    escaped = key.replace("\\", "\\\\").replace("'", "\\'")
    return f"{path}['{escaped}']"


def _is_type(value: object, name: str) -> bool:
    """jsonschema's types: a bool is no number, an integral float is an integer."""
    return (
        isinstance(value, _TYPES[name])
        and not isinstance(value, bool)
        and (name != "integer" or isinstance(value, int) or value.is_integer())
    )


def _equal(a: object, b: object) -> bool:
    """jsonschema's equality of scalars: a bool equals only a bool."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _unexpected(value: dict, names: dict) -> str | None:
    extras = sorted((key for key in value if key not in names), key=str)
    listed = ", ".join(repr(key) for key in extras)
    verb = "was" if len(extras) == 1 else "were"
    return extras and f"Additional properties are not allowed ({listed} {verb} unexpected)"


# jsonschema's words for a size under (over) its bound; the second for a bound of 1 (0)
_FEW, _MANY = ("is too short", "should be non-empty"), ("is too long", "is expected to be empty")
# jsonschema's message when value `v` breaks the rule `a` of node `s`; falsy if it keeps it
_RULES: dict[str, Callable[[Any, Any, dict], str | None]] = {
    "type": lambda v, a, s: None if _is_type(v, a) else f"{v!r} is not of type {a!r}",
    "minimum": lambda v, a, s: (
        f"{v!r} is less than the minimum of {a!r}" if _is_type(v, "number") and v < a else None
    ),
    "maximum": lambda v, a, s: (
        f"{v!r} is greater than the maximum of {a!r}" if _is_type(v, "number") and v > a else None
    ),
    "minLength": lambda v, a, s: isinstance(v, str) and len(v) < a and f"{v!r} {_FEW[a == 1]}",
    "minItems": lambda v, a, s: isinstance(v, list) and len(v) < a and f"{v!r} {_FEW[a == 1]}",
    "maxItems": lambda v, a, s: isinstance(v, list) and len(v) > a and f"{v!r} {_MANY[a == 0]}",
    "enum": lambda v, a, s: None if any(_equal(v, x) for x in a) else f"{v!r} is not one of {a!r}",
    "const": lambda v, a, s: None if _equal(v, a) else f"{a!r} was expected",
    "required": lambda v, a, s: isinstance(v, dict) and next(
        (f"{key!r} is a required property" for key in a if key not in v), None
    ),
    "additionalProperties": lambda v, a, s: (
        a is False and isinstance(v, dict) and _unexpected(v, s["properties"])
    ),
}


def _held_to_rules(schema: dict, value: object) -> object:
    """The slow path of a node: each of its rules, in the schema's keyword order."""
    for keyword, arg in schema.items():
        message = keyword in _RULES and _RULES[keyword](value, arg, schema)
        if message:
            raise _Fault(message)
    return int(value) if schema.get("type") == "integer" else value


def _off(value: object) -> object:
    """The slow path of a hot child called from its parent's fast path: the parent's."""
    raise _Fault("off the fast path")


def _construct(cls: type, values: tuple) -> object:
    return cls(*values)


def compile_schema(root: dict, built: dict[str, str], names: dict, at: str = "#") -> Check:
    """The check of the node at the JSON pointer `at` of `root`. `built` maps a hot node's
    pointer to its built form, an expression over its property names and `names`. A form's
    `new(C, values)` makes the record C: as a bare tuple on the fast path, whose tests must
    cover every rule C's constructor checks, and through that constructor on the slow path."""
    return _compile({"$ref": at}, at, (root, built, names))


def _compile(schema: dict, at: str = "#", scope: tuple | None = None) -> Check:
    """The check of one schema node; `at`, its JSON pointer, picks a built form.
    `scope` holds the root, for `$ref`, the built forms and their names."""
    root, built, names = scope = scope or (schema, {}, {})
    if schema.keys() == {"$ref"}:
        pointer = schema["$ref"]
        return _compile(reduce(dict.__getitem__, pointer.split("/")[1:], root), pointer, scope)
    kind = schema.get("type")
    unsupported = schema.keys() - _ANNOTATIONS - _KEYWORDS.get(kind, set())
    if unsupported:
        raise ValueError(f"unsupported schema keywords at {at}: {sorted(unsupported)}")
    slow = lambda value: _held_to_rules(schema, value)  # noqa: E731
    test = _test(schema, "v")
    if test:
        return eval(_leaf(test), {"slow": slow, "inf": math.inf})
    if kind == "array":
        return _array(schema, _compile(schema["items"], at + "/items", scope), slow)
    if kind != "object":
        return slow
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict) and "properties" not in schema:
        return _map(_compile(extra, at + "/additionalProperties", scope), slow)
    if extra is not False or "properties" not in schema:
        raise ValueError(f"unsupported object node at {at}: neither a closed object nor a map")
    properties = schema["properties"]
    checks = {key: _compile(properties[key], f"{at}/properties/{key}", scope) for key in properties}
    allowed, required = frozenset(checks), frozenset(schema.get("required", ()))
    build = None  # a hot node's build from checked values, generated below

    def walk(value: object) -> object:
        """A closed object: its rules if its key set fails, then each property's check."""
        if not (type(value) is dict and required <= value.keys() <= allowed):
            slow(value)
        try:
            checked = {key: checks[key](each) for key, each in value.items()}
            return build(checked) if build else checked
        except _Fault:
            for key in sorted(value):  # the first fault by property name
                try:
                    checks[key](value[key])
                except _Fault as fault:
                    fault.keys.append(key)
                    raise fault from None
            raise
        except (ValueError, ArithmeticError) as exc:  # a value the schema admits: NaN, inf
            raise _Fault(str(exc)) from exc

    if at in built:
        namespace = dict(names, inf=math.inf, _Fault=_Fault, _off=_off, new=tuple.__new__, construct=_construct)
        namespace.update(walk=walk, allowed=allowed, required=required)
        namespace.update((f"check_{key}", check) for key, check in checks.items())
        exec(_source(schema, built, at), namespace)
        build = namespace["build"]
        return namespace["fast"]
    return walk


def _test(schema: dict, x: str) -> str | None:
    """Source of the fast test of `x` against a string or number node; None for others."""
    kind = schema.get("type")
    if kind == "string":
        shortest = schema.get("minLength", 0)
        return f"type({x}) is str" + (f" and len({x}) >= {shortest}" if shortest else "")
    if kind not in ("number", "integer"):
        return None
    classes = "is int" if kind == "integer" else "in (int, float)"
    low = f"{schema['minimum']!r} <=" if "minimum" in schema else "-inf <"
    high = f"<= {schema['maximum']!r}" if "maximum" in schema else "< inf"
    return f"type({x}) {classes} and {low} {x} {high}"


@cache
def _leaf(test: str) -> CodeType:
    """The fast path of a string or number node, compiled once per distinct test."""
    return compile(f"lambda v: v if {test} else slow(v)", "<schema>", "eval")


def _tests(schema: dict, x: str, hot: bool) -> list[str]:
    """Statements that return `slow(v)` unless the local `x` is on `schema`'s fast path."""
    test, each = _test(schema, x), _test(schema.get("items", {}), "each")
    if test:
        return [f"if not ({test}): return slow(v)"]
    if each and not schema.keys() & {"minItems", "maxItems"}:
        return [
            f"if type({x}) is not list: return slow(v)",
            f"for each in {x}:",
            f"    if not ({each}): return slow(v)",
        ]
    call = f"check_{x}({x}, _off)" if hot else f"check_{x}({x})"
    return ["try:", f"    {x} = {call}", "except _Fault:", "    return slow(v)"]


def _source(schema: dict, built: dict[str, str], at: str) -> str:
    """A hot node's `fast` path and the slow path's `build`, with each property in
    the local named after it. `fast` calls a hot child on its fast path alone
    (`_off`), so all it builds from has passed its tests; `build` gets checked values."""
    required = schema.get("required", ())
    fast = [
        "def fast(v, slow=walk):",
        "    if type(v) is not dict or not required <= v.keys() <= allowed:",
        "        return slow(v)",
    ]
    build = ["def build(d):", "    new = construct"]
    for key, node in schema["properties"].items():
        default, pad = node.get("default"), " " * (4 if key in required else 8)
        build.append(f"    {key} = d.get({key!r}, {default!r})")
        fast += [] if key in required else [f"    if {key!r} in v:"]
        fast.append(f"{pad}{key} = v[{key!r}]")
        fast += [pad + line for line in _tests(node, key, f"{at}/properties/{key}" in built)]
        fast += [] if key in required else ["    else:", f"        {key} = {default!r}"]
    tail = ["    try:", f"        return {built[at]}", "    except (ValueError, ArithmeticError):"]
    return "\n".join([*fast, *tail, "        return slow(v)", *build, f"    return {built[at]}"])


def _array(schema: dict, item: Check, slow: Check) -> Check:
    fewest, most = schema.get("minItems", 0), schema.get("maxItems", math.inf)

    def check(value: object) -> tuple:
        if not (type(value) is list and fewest <= len(value) <= most):
            slow(value)
        out: list = []
        append = out.append
        try:
            for each in value:
                append(item(each))
        except _Fault as fault:
            fault.keys.append(len(out))
            raise
        return tuple(out)

    return check


def _map(item: Check, slow: Check) -> Check:
    def check(value: object) -> dict:
        if type(value) is not dict:
            slow(value)
        out: dict = {}
        try:
            for key, each in value.items():
                out[key] = item(each)
        except _Fault as fault:
            fault.keys.append(key)
            raise
        return out

    return check
