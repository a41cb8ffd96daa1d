"""Exact-rational JSON/CSV document handling and canonical output."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltahull.errors import DimensionMismatch, DuplicateRow, NotPointed, ParseError
from deltahull.serialize import (
    canonical_dumps,
    dump_fan,
    dump_instance,
    load_instance_csv,
    load_instance_json,
    load_instance_path,
    parse_rational,
    rational_str,
)
from deltahull.model import make_polyhedron
from deltahull.subdivision import SubdivisionFan, build_subdivision_fans

from conftest import square
from helpers import load_fan_json, long_rational_text, rationalize


def test_parse_rational_accepted_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


def test_parse_rational_rejections():
    with pytest.raises(ParseError):
        parse_rational(1.5)
    with pytest.raises(ParseError):
        parse_rational(True)
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(None)


def test_parse_rational_rejects_exponent_notation():
    # Fraction would expand the exponent into its digits, with no bound.
    with pytest.raises(ParseError, match="exponent"):
        parse_rational("1e400")
    assert parse_rational("0.5") == Fraction(1, 2)


def test_rational_str_lowest_terms():
    assert rational_str(Fraction(14, 6)) == "7/3"
    assert rational_str(Fraction(-4, 2)) == "-2"
    assert rational_str(Fraction(0)) == "0"
    assert rational_str(7) == "7"


@pytest.mark.parametrize(
    "x",
    [Fraction(10**8000 + 7, 3), Fraction(-(10**9000) - 1), Fraction(1, 7**6000)],
    ids=["zero-padded-chunk", "negative-three-chunks", "long-denominator"],
)
def test_rational_str_past_the_int_digit_limit(x):
    assert rational_str(x) == long_rational_text(x)


def test_rationalize_handles_nested_structures():
    obj = {"x": [Fraction(1, 2), {"y": Fraction(3)}], "z": "keep"}
    assert rationalize(obj) == {"x": ["1/2", {"y": "3"}], "z": "keep"}


def test_instance_round_trip_is_byte_identical():
    p = square()
    text = dump_instance(p, feasible_point=[Fraction(1, 2), Fraction(1, 2)])
    doc = load_instance_json(text)
    assert doc.polyhedron.a == p.a
    assert doc.polyhedron.b == p.b
    assert doc.feasible_point == [Fraction(1, 2), Fraction(1, 2)]
    again = dump_instance(doc.polyhedron, feasible_point=doc.feasible_point)
    assert again == text
    # Re-serializing the parsed JSON object canonically is also identical.
    assert canonical_dumps(json.loads(text)) == text


def test_instance_json_rejects_floats_and_missing_keys():
    with pytest.raises(ParseError):
        load_instance_json('{"A": [[0.5, 1]], "b": [1]}')
    with pytest.raises(ParseError):
        load_instance_json('{"A": [[1, 0]]}')
    with pytest.raises(ParseError):
        load_instance_json('["not", "an", "object"]')
    with pytest.raises(ParseError):
        load_instance_json("{bad json")
    with pytest.raises(ParseError):
        load_instance_json('{"A": "rows", "b": [1]}')


def test_instance_csv_round_trip(tmp_path):
    text = "# unit box\n1,0,1\n0,1,1\n-1,0,0\n0,-1,0\n"
    doc = load_instance_csv(text)
    assert doc.polyhedron.m == 4
    assert doc.polyhedron.a == square().a
    path = tmp_path / "box.csv"
    path.write_text(text, encoding="utf-8")
    from_path = load_instance_path(str(path))
    assert from_path.polyhedron.a == doc.polyhedron.a


def test_instance_csv_rejects_ragged_and_empty_input():
    with pytest.raises(ParseError):
        load_instance_csv("1,0,1\n0,1\n")
    with pytest.raises(ParseError):
        load_instance_csv("# only a comment\n")
    with pytest.raises(ParseError):
        load_instance_csv("5\n")


def test_instance_path_json(tmp_path):
    p = square()
    path = tmp_path / "box.json"
    path.write_text(dump_instance(p), encoding="utf-8")
    doc = load_instance_path(str(path))
    assert doc.polyhedron.b == p.b


def test_fan_round_trip():
    fan = build_subdivision_fans(2, 2)[2]
    text = dump_fan(fan)
    loaded = load_fan_json(text)
    assert loaded.n == fan.n
    assert loaded.depth == fan.depth
    assert loaded.rays == fan.rays
    assert loaded.cones == fan.cones
    assert loaded.parent == fan.parent
    assert dump_fan(loaded) == text


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
row_scales = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def scaled_systems(draw):
    """Up to 8 rows in up to 4 variables: row i is an integer row times a
    row scale p/q, so the stored scale need not be an integer; b_i and the
    feasible point are any small rationals."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 8))
    rows = []
    for _ in range(m):
        ints = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        scale = draw(row_scales)
        rows.append([v * scale for v in ints])
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    point = draw(st.none() | st.lists(rationals, min_size=n, max_size=n))
    return rows, b, point


@settings(max_examples=200, deadline=None)
@given(scaled_systems(), st.sampled_from(["", "drawn"]))
def test_instance_documents_round_trip(system, name):
    rows, b, point = system
    try:
        p = make_polyhedron(rows, b, name=name)
    except (DimensionMismatch, DuplicateRow, NotPointed):
        assume(False)
    text = dump_instance(p, feasible_point=point)
    doc = load_instance_json(text)
    assert doc.polyhedron == p
    assert doc.feasible_point == point
    assert dump_instance(doc.polyhedron, feasible_point=doc.feasible_point) == text
    # the rows rebuilt from the integer form are the given Fractions
    assert len(p.a) == len(rows) and len(p.b) == len(b)
    for got, want in zip(p.a, rows):
        assert len(got) == len(want)
        assert all(type(x) is Fraction and x == y for x, y in zip(got, want))
    assert all(type(x) is Fraction and x == y for x, y in zip(p.b, b))


@st.composite
def fans(draw):
    """Rational rays in n = 2..4 and cones of n distinct sorted ray indices."""
    n = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[rationals] * n), min_size=n, max_size=8))
    cone = st.lists(st.integers(0, len(rays) - 1), min_size=n, max_size=n, unique=True)
    cones = draw(st.lists(cone.map(lambda c: tuple(sorted(c))), max_size=10))
    parent = draw(st.lists(st.integers(-1, 20), min_size=len(cones), max_size=len(cones)))
    return SubdivisionFan(n, draw(st.integers(0, 6)), rays, cones, parent)


@settings(max_examples=200, deadline=None)
@given(fans())
def test_fan_documents_round_trip(fan):
    text = dump_fan(fan)
    loaded = load_fan_json(text)
    assert loaded == fan
    assert dump_fan(loaded) == text


def test_fan_document_validation():
    with pytest.raises(ParseError):
        load_fan_json('{"rays": [[1, 0], [0, 1]], "cones": [[0, 5]]}')
    with pytest.raises(ParseError):
        load_fan_json('{"cones": [[0, 1]]}')
    with pytest.raises(ParseError):
        load_fan_json("not json at all")


def test_canonical_dumps_sorts_keys_and_compacts():
    out = canonical_dumps({"b": Fraction(1, 3), "a": 2})
    assert out == '{"a":2,"b":"1/3"}'
