"""The in-house config check against jsonschema's Draft 2020-12 validator."""

import ast
import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lame_edge.cli import CONFIG_SCHEMA, ConfigError, check_schema

jsonschema = pytest.importorskip("jsonschema")

REPO = Path(__file__).resolve().parent.parent
BUNDLED = {name: json.loads((REPO / "configs" / f"{name}.json").read_text())
           for name in ("gradient", "homogeneous")}
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
# one value of every JSON type, integral floats, bools and non-finite numbers included
RETYPED = [None, True, False, 0, 1, 7, -3, 0.0, 1.0, 2.0, 96.0, 0.5, -1e-300,
           math.inf, math.nan, "", "e3", [], [1.0, 0.0], {}, {"kind": "bump"}]


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _subschema(path):
    schema = CONFIG_SCHEMA
    for key in path:
        schema = (schema.get("items", {}) if isinstance(key, int)
                  else schema.get("properties", {}).get(key, {}))
    return schema


def _value_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _is_integer_only(schema) -> bool:
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    return "integer" in types and "number" not in types


def _stepped(schema):
    """Values at and on either side of each bound of ``schema``."""
    out = []
    for key in BOUNDS:
        if key in schema:
            b = schema[key]
            if _is_integer_only(schema):
                out += [b - 1, b, b + 1]
            else:
                b = float(b)
                out += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    return out


@st.composite
def mutated(draw):
    cfg = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(cfg))
        kind = draw(st.sampled_from(["drop", "add", "retype", "step", "resize"]))
        if kind == "drop":
            path = draw(st.sampled_from([p for p, _ in nodes if p and isinstance(p[-1], str)]))
            del _value_at(cfg, path[:-1])[path[-1]]
        elif kind == "add":
            target = draw(st.sampled_from([v for _, v in nodes if isinstance(v, dict)]))
            key = draw(st.sampled_from(["extra", "kinds", "sigma", "nodes"]))
            target[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif kind == "retype":
            path = draw(st.sampled_from([p for p, _ in nodes if p]))
            _value_at(cfg, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif kind == "step":
            sites = [(p, _stepped(_subschema(p))) for p, v in nodes
                     if p and isinstance(v, (int, float)) and not isinstance(v, bool)]
            sites = [(p, vals) for p, vals in sites if vals]
            if sites:
                path, values = draw(st.sampled_from(sites))
                _value_at(cfg, path[:-1])[path[-1]] = draw(st.sampled_from(values))
        else:
            lists = [v for _, v in nodes if isinstance(v, list) and v]
            target = draw(st.sampled_from(lists))
            if draw(st.booleans()):
                target.pop()
            else:
                target.append(copy.deepcopy(target[-1]))
    return cfg


def _accepts(cfg):
    try:
        check_schema(cfg, CONFIG_SCHEMA)
    except ConfigError as e:
        return False, str(e)
    return True, ""


def test_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_bundled_configs_accepted_by_both():
    for cfg in BUNDLED.values():
        assert _accepts(cfg) == (True, "") and VALIDATOR.is_valid(cfg)


@pytest.mark.parametrize("version", [True, False, "1", 2, 1.5, None])
def test_version_must_be_one(version):
    cfg = dict(BUNDLED["gradient"], version=version)
    assert not _accepts(cfg)[0] and not VALIDATOR.is_valid(cfg)


def test_unknown_keyword_raises():
    with pytest.raises(NotImplementedError, match="pattern"):
        check_schema("x", {"type": "string", "pattern": "^x$"})


@settings(max_examples=250, deadline=None)
@given(mutated())
def test_same_verdict_as_jsonschema(cfg):
    ours, message = _accepts(cfg)
    theirs = VALIDATOR.is_valid(cfg)
    if ours != theirs:
        # the one deliberate difference: an integral float in an integer field
        assert theirs and "is not of type 'integer'" in message
        where = message.removeprefix("schema violation at ").split(": ", 1)[0]
        path = tuple(ast.literal_eval(where))
        value = _value_at(cfg, path)
        assert isinstance(value, float) and value.is_integer()
        assert _is_integer_only(_subschema(path))
