"""Fuzzing the JSON format: `formats.parse` answers every document with a
`Negotiation` or a `ParseError`, and serialization is a fixed point of
parsing. The examples are derandomized, so every run checks the same ones."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negotiations import cli
from negotiations.errors import ParseError
from negotiations.formats import parse, serialize
from negotiations.generate import GenParams, generate
from negotiations.model import Negotiation

import fixtures

FIXTURES = [
    "ping", "fork", "fork_unsound", "fork_split", "loop2", "mod15",
    "two_period", "forked_periods", "ping_over_mod15", "editorial",
]
DOCS = {name: json.loads(serialize(getattr(fixtures, name)())) for name in FIXTURES}


def fields(obj, path=()):
    """The path to every value inside `obj`, containers and `obj` included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from fields(value, path + (key,))


def names(doc):
    """Every process, action and node name of a document."""
    return sorted(set(doc["processes"]) | set(doc["actions"]) | set(doc["nodes"]))


def json_values(known):
    """Small JSON values; the document's own names make substitutions that
    get past the shape checks likely."""
    leaves = (st.none() | st.booleans() | st.integers(-2, 2)
              | st.floats(allow_nan=False, allow_infinity=False)
              | st.text(max_size=2) | st.sampled_from(known))
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2) | st.sampled_from(known), inner, max_size=3),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_single_field_substitution_parses_or_raises_parse_error(data):
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(FIXTURES), label="fixture")])
    path = data.draw(st.sampled_from(list(fields(doc))), label="path")
    value = data.draw(json_values(names(doc)), label="value")
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        got = parse(json.dumps(doc))
    except ParseError:
        return
    assert isinstance(got, Negotiation)


def test_deeply_nested_field_is_a_parse_error(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit is malformed input,
    not a RecursionError; `neg` exits 2 with a message."""
    text = serialize(fixtures.fork()).replace('"init":"n0"', '"init":' + "[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match="invalid JSON"):
        parse(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["sound", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", FIXTURES)
def test_serialize_is_a_fixed_point_of_parse(name):
    text = serialize(getattr(fixtures, name)())
    assert serialize(parse(text)) == text


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 10_000))
def test_generated_serialization_is_a_fixed_point_of_parse(procs, nodes, seed):
    text = serialize(generate(GenParams(procs, nodes, 0.2, 0.3, seed=seed)))
    assert serialize(parse(text)) == text
