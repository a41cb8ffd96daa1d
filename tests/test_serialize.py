"""Exact-rational JSON/CSV document handling and canonical output."""

import csv
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull import serialize
from deltahull.errors import DeltahullError, DimensionMismatch, DuplicateRow, NotPointed, ParseError
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

from conftest import BENCH_DATA, square
from helpers import (
    a_of,
    b_of,
    fraction_parse_rational,
    fractions_built,
    load_fan_json,
    long_rational_text,
    pairs,
    rationalize,
)


def test_parse_rational_accepted_forms():
    assert parse_rational(3) == (3, 1)
    assert parse_rational("-2") == (-2, 1)
    assert parse_rational("7/3") == (7, 3)
    assert parse_rational(" 5/10 ") == (1, 2)
    assert parse_rational("-.25") == (-1, 4)
    assert parse_rational("+1_0.") == (10, 1)


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
    assert parse_rational("0.5") == (1, 2)


# Tokens from the grammar Fraction parses, and from around it: signs,
# whitespace (Unicode too), digits with underscores, non-ASCII digits
# (Arabic-Indic three, fullwidth five), decimals such as ".5" and "5.",
# denominators (zero among them), exponents, and tokens past int()'s
# 4,300-digit limit in each part.
spaces = st.text(alphabet=" \t\n\u3000\x1c", max_size=2)
digit_runs = st.text(alphabet="0123456789__\u0663\uff15", max_size=5)
tails = st.one_of(
    st.just(""),
    digit_runs.map("/".__add__),
    digit_runs.map(".".__add__),
    st.sampled_from(["e5", "E-3", "e+2", ".5e1", "/ 3", "/-3", "/2/3", ".d", "x"]),
)
string_tokens = st.builds(
    lambda *parts: "".join(parts),
    spaces, st.sampled_from(["", "+", "-", "--"]), digit_runs, tails, spaces,
)
long_tokens = st.sampled_from(
    ["1" * 4301, "-1/" + "7" * 4301, "0." + "3" * 4301, "8" * 4300 + "/6", "9" * 3000 + "." + "9" * 3000]
)
text_tokens = st.one_of(string_tokens, long_tokens, st.text(max_size=4))
tokens = st.one_of(
    text_tokens, st.integers(-(10**30), 10**30), st.booleans(), st.floats(), st.none()
)


def parsed(parse, token):
    """A parser's (num, den) for the token, or its ParseError text."""
    try:
        got = parse(token)
    except ParseError as exc:
        return str(exc)
    return got.as_integer_ratio() if isinstance(got, Fraction) else got


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tokens)
def test_pair_parser_matches_the_fraction_parser(token):
    want = parsed(fraction_parse_rational, token)
    got = parsed(parse_rational, token)
    assert got == want
    if isinstance(got, tuple):
        assert all(type(v) is int for v in got)


def loaded_csv(text):
    """The system load_instance_csv builds from text, or its error's text."""
    try:
        return load_instance_csv(text).polyhedron
    except DeltahullError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text_tokens, text_tokens)
def test_csv_loader_matches_the_fraction_parser(entry, rhs):
    """The same system or the same error from either parser, with two drawn
    cells in a unit-square CSV."""
    text = f"{entry},0,1\n0,1,{rhs}\n-1,0,0\n0,-1,0\n"

    def oracle(token):
        return fraction_parse_rational(token).as_integer_ratio()

    with mock.patch.object(serialize, "parse_rational", oracle):
        want = loaded_csv(text)
    assert loaded_csv(text) == want


def test_loading_a_dual_builds_one_fraction_per_row():
    """The tokens of dual-n2k5 become integer pairs with no Fraction; the
    one Fraction a row builds is its scale."""
    with fractions_built() as built:
        doc = load_instance_path(str(BENCH_DATA / "dual-n2k5.instance.json"))
    assert doc.polyhedron.m == 96 and doc.feasible_point == [(0, 1), (0, 1)]
    assert len(built) == doc.polyhedron.m


def test_rational_str_lowest_terms():
    assert rational_str(Fraction(14, 6)) == "7/3"
    assert rational_str(Fraction(-4, 2)) == "-2"
    assert rational_str(Fraction(0)) == "0"
    assert rational_str(7) == "7"
    assert rational_str(-14, 6) == "-7/3"
    assert rational_str(Fraction(2, 3), 4) == "1/6"


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
    assert a_of(doc.polyhedron) == a_of(p)
    assert b_of(doc.polyhedron) == b_of(p)
    assert doc.feasible_point == [(1, 2), (1, 2)]
    again = dump_instance(doc.polyhedron, feasible_point=[Fraction(*x) for x in doc.feasible_point])
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
    assert a_of(doc.polyhedron) == a_of(square())
    path = tmp_path / "box.csv"
    path.write_text(text, encoding="utf-8")
    from_path = load_instance_path(str(path))
    assert a_of(from_path.polyhedron) == a_of(doc.polyhedron)


def test_instance_csv_rejects_ragged_and_empty_input():
    with pytest.raises(ParseError):
        load_instance_csv("1,0,1\n0,1\n")
    with pytest.raises(ParseError):
        load_instance_csv("# only a comment\n")
    with pytest.raises(ParseError):
        load_instance_csv("5\n")


@pytest.mark.parametrize(
    "text,record",
    [
        ("1,0,,1\n0,1,1\n-1,0,0\n0,-1,0\n", 1),
        ("# box\n1,0,1\n0,1,1\n-1,0,0\n,0,-1,0\n", 5),
    ],
    ids=["inner-empty-field", "leading-empty-field"],
)
def test_instance_csv_empty_field_before_the_last_is_a_parse_error(text, record):
    """An empty field is not dropped: each text would read as the unit square."""
    with pytest.raises(ParseError, match=f"^CSV record {record} has an empty field$"):
        load_instance_csv(text)


def test_instance_csv_accepts_trailing_commas():
    text = "1,0,1,\n0,1,1, ,\n-1,0,0\n0,-1,0,,\n"
    assert a_of(load_instance_csv(text).polyhedron) == a_of(square())


@pytest.mark.parametrize(
    "text,message",
    [
        ("\r,0,1\n0,1,1\n", "new-line character seen in unquoted field"),
        ("1," + "1" * (csv.field_size_limit() + 1) + "\n", "field larger than field limit"),
    ],
    ids=["bare-carriage-return", "field-past-size-limit"],
)
def test_instance_csv_reader_errors_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=f"^invalid CSV: {message}"):
        load_instance_csv(text)


def test_instance_path_json(tmp_path):
    p = square()
    path = tmp_path / "box.json"
    path.write_text(dump_instance(p), encoding="utf-8")
    doc = load_instance_path(str(path))
    assert b_of(doc.polyhedron) == b_of(p)


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
    assert doc.feasible_point == (None if point is None else pairs(point))
    assert dump_instance(doc.polyhedron, feasible_point=point) == text
    # the rows rebuilt from the integer form are the given Fractions
    assert len(a_of(p)) == len(rows) and len(b_of(p)) == len(b)
    for got, want in zip(a_of(p), rows):
        assert len(got) == len(want)
        assert all(type(x) is Fraction and x == y for x, y in zip(got, want))
    assert all(type(x) is Fraction and x == y for x, y in zip(b_of(p), b))


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
