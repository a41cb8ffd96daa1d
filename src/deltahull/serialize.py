"""Instance, fan, and report documents: exact-rational JSON and CSV forms.

Rationals travel as strings in lowest terms ("7/3", "-2"), parsed once into
integer pairs (num, den) and written from integers by rational_str, so no
matrix or point entry becomes a Fraction on the way in or out. Binary floats
are rejected on input and appear on output only in fields named as float
renderings, null past the float range. JSON output is canonical: sorted keys,
compact separators, so re-serializing a parsed document is byte-identical.
"""

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite

from .errors import ParseError
from .model import HPolyhedron, make_system
from .subdivision import SubdivisionFan

SCHEMA_VERSION = 1
EXPONENT = re.compile(r"[eE][-+]?\d")  # Fraction's exponent suffix
# Fraction's string grammar without its exponent: sign, digits, '/' digits or '.' digits
RATIONAL = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|\.(\d+(?:_\d+)*)?)?\s*"
)


def parse_rational(token) -> tuple[int, int]:
    """(num, den) in lowest terms, den > 0, of a JSON int or of a string that
    Fraction accepts, such as '7/3', '-2', ' 0.5' or '1_000', built without a
    Fraction. Exponent notation ('1e5') is rejected: it would expand with no
    bound on the digits. A refused string gets the message Fraction gives it."""
    match = RATIONAL.fullmatch(token) if isinstance(token, str) else None
    if match:
        sign, whole, over, decimal = match.groups()
        try:  # int() refuses more than 4,300 digits
            num, den = int(whole or "0"), int(over or "1")
            if decimal:
                den = 10 ** len(decimal.replace("_", ""))
                num = num * den + int(decimal)
        except ValueError:
            den = 0
        if den:
            g = gcd(num, den)
            return (-num if sign == "-" else num) // g, den // g
    elif isinstance(token, int) and not isinstance(token, bool):
        return token, 1
    elif isinstance(token, float):
        raise ParseError(f"binary float {token!r} not accepted; use 'p/q'")
    if not isinstance(token, str):
        raise ParseError(f"not a rational: {token!r}")
    if EXPONENT.search(token):
        raise ParseError(f"bad rational {token!r}: exponent notation not accepted")
    try:
        Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}: {exc}") from None
    raise ParseError(f"bad rational {token!r}")


def _long_int_str(v: int) -> str:
    """str(v) in 4,000-digit chunks, below Python's 4,300-digit limit on it."""
    if abs(v) < 10**4000:
        return str(v)
    head, low = divmod(abs(v), 10**4000)
    return "-" * (v < 0) + _long_int_str(head) + str(low).zfill(4000)


def rational_str(x, den: int = 1) -> str:
    """x / den in lowest terms as 'p/q', or 'p' when q = 1, for an int or
    Fraction x and an int den > 0: the one writer of rationals."""
    num, den = x.numerator, x.denominator * den
    g = gcd(num, den)
    if g > 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past Python's 4,300-digit limit on str(int)
        return _long_int_str(num) if den == 1 else f"{_long_int_str(num)}/{_long_int_str(den)}"


def rows_as_given(p: HPolyhedron) -> tuple[list[list[str]], list[str]]:
    """The rows A and right-hand sides b as given, as text, written from the
    integer form: ints_i Q / P and rhs_num_i Q / (rhs_den_i P), scales[i] = P / Q."""
    scales = [s.as_integer_ratio() for s in p.scales]
    a = [[rational_str(v * q, s) for v in row] for row, (s, q) in zip(p.ints, scales)]
    return a, [rational_str(r * q, d * s) for r, d, (s, q) in zip(p.rhs_num, p.rhs_den, scales)]


def display_float(x, scale: float = 1.0) -> float | None:
    """float(x) * scale for a report's float rendering, or None where that
    passes the float range, so that no report carries Infinity."""
    try:
        value = float(x) * scale
    except OverflowError:
        return None
    return value if isfinite(value) else None


def canonical_dumps(obj) -> str:
    """Sorted keys, compact separators, each Fraction as its rational_str.
    Keys must be strings: json would sort int keys as numbers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=rational_str)


@dataclass
class InstanceDocument:
    polyhedron: HPolyhedron
    feasible_point: list[tuple[int, int]] | None


def parse_json(text: str):
    """Decoded JSON; malformed text, an integer literal past Python's digit
    limit for int conversion, or nesting past the recursion limit is a ParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from None


def parse_point(raw, n: int) -> list[tuple[int, int]]:
    """A point of n-space from a decoded JSON array of n rationals, as pairs."""
    if not isinstance(raw, list):
        raise ParseError(f"a point must be a JSON array, not {type(raw).__name__}")
    if len(raw) != n:
        raise ParseError(f"point has {len(raw)} coordinates, expected {n}")
    return [parse_rational(x) for x in raw]


def load_instance_json(text: str) -> InstanceDocument:
    doc = parse_json(text)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        raw_a = doc["A"]
        raw_b = doc["b"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc}") from None
    if not isinstance(raw_a, list) or not all(isinstance(r, list) for r in raw_a):
        raise ParseError("A must be an array of arrays")
    if not isinstance(raw_b, list):
        raise ParseError("b must be an array")
    a = [[parse_rational(x) for x in row] for row in raw_a]
    b = [parse_rational(x) for x in raw_b]
    p = make_system(a, b, name=str(doc.get("name", "")))
    feasible = doc.get("feasible_point")
    if feasible is not None:
        feasible = parse_point(feasible, p.n)
    return InstanceDocument(p, feasible)


def load_instance_csv(text: str) -> InstanceDocument:
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # a bare carriage return, a field past csv.field_size_limit()
        raise ParseError(f"invalid CSV: {exc}") from None
    rows = []
    for number, record in enumerate(records, 1):
        cells = [c.strip() for c in record]
        while cells and not cells[-1]:  # trailing commas
            cells.pop()
        if cells and not cells[0].startswith("#"):
            if not all(cells):
                raise ParseError(f"CSV record {number} has an empty field")
            rows.append([parse_rational(c) for c in cells])
    if not rows:
        raise ParseError("empty CSV instance")
    width = len(rows[0])
    if width < 2 or any(len(r) != width for r in rows):
        raise ParseError("CSV rows must all have n+1 columns")
    a = [r[:-1] for r in rows]
    b = [r[-1] for r in rows]
    return InstanceDocument(make_system(a, b), None)


def read_text(path: str) -> str:
    """A file's text; a file that is not UTF-8 is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None


def load_instance_path(path: str) -> InstanceDocument:
    text = read_text(path)
    if path.endswith(".csv"):
        return load_instance_csv(text)
    return load_instance_json(text)


def dump_instance(p: HPolyhedron, feasible_point=None) -> str:
    a, b = rows_as_given(p)
    doc = {"schema": SCHEMA_VERSION, "A": a, "b": b}
    if p.name:
        doc["name"] = p.name
    if feasible_point is not None:
        doc["feasible_point"] = [rational_str(x) for x in feasible_point]
    return canonical_dumps(doc)


def dump_fan(fan: SubdivisionFan) -> str:
    return canonical_dumps(
        {
            "schema": SCHEMA_VERSION,
            "n": fan.n,
            "depth": fan.depth,
            "rays": [list(ray) for ray in fan.rays],
            "cones": [list(c) for c in fan.cones],
            "parent": list(fan.parent),
        }
    )
