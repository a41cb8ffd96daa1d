"""Exact linear algebra over Python ints, plus Fraction vector helpers.

A rational row becomes integers once, in `integer_row`: its primitive
integer multiple and the positive scale between the two. Rank and
adjugate then come from one fraction-free (Bareiss) elimination over
Python ints, whose every division is exact, so `rank_of`, `adjugate` and
`solve` take integer matrices and never see a denominator.
A basis is carried as the pair (det, adj) and a row swap updates that pair
in integers (`basis_inverse_update`); the pivot kernel in `model` builds a
`Fraction` only where a result leaves it. No floating point is used
anywhere.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import SingularMatrix, SingularUpdate

Vec = list[Fraction]
Mat = list[list[Fraction]]
IntRows = tuple[tuple[int, ...], ...]
Basis = tuple[int, list[list[int]]]  # (det, adj) of a square integer matrix


def frac(x) -> Fraction:
    """Coerce ints, strings like '7/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass int/str")
    return Fraction(x)


def to_vector(entries) -> Vec:
    return [frac(x) for x in entries]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dot(u, v):
    """Inner product; an int when both vectors are integer."""
    return sum(map(mul, u, v))


def integer_row(row) -> tuple[tuple[int, ...], Fraction]:
    """The primitive integer multiple s * row of a rational row, and s > 0.

    The one place a rational row becomes integers. A zero row stays zero,
    with s = 1.
    """
    clear = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (clear // x.denominator) for x in row]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints), Fraction(clear, g)


def integer_rows(m) -> tuple[IntRows, tuple[Fraction, ...]]:
    """integer_row of each row of m: the integer rows, then their scales."""
    pairs = [integer_row(row) for row in m]
    return tuple(ints for ints, _ in pairs), tuple(s for _, s in pairs)


def _eliminate(a: list[list[int]], width: int, jordan: bool = False):
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Takes pivots from the first `width` columns in order, skipping a column
    with no nonzero entry at or below the current row. Each pivot step sets
    row_i <- (pivot * row_i - a_ic * pivot_row) / previous pivot for the rows
    below (and, when `jordan`, above) it, an exact division (Bareiss 1968).
    Returns the rank, the sign of the row swaps and the last pivot; for a
    nonsingular square matrix sign * pivot is its determinant.
    """
    rank, prev, sign = 0, 1, 1
    for col in range(width):
        r = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if r is None:
            continue
        if r != rank:
            a[rank], a[r] = a[r], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[col]
        for i in range(0 if jordan else rank + 1, len(a)):
            if i != rank:
                f = a[i][col]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
        rank += 1
    return rank, sign, prev


def rank_of(m) -> int:
    """Rank of an integer matrix."""
    if not m:
        return 0
    return _eliminate([list(row) for row in m], len(m[0]))[0]


def adjugate(m) -> tuple[int, list[list[int]]]:
    """(det m, adj m) of a nonsingular square integer matrix.

    A Jordan sweep over [m | I] leaves [d I | d m^-1], d being the last
    pivot, and det m = sign * d, so adj m = det(m) m^-1 is the right block
    times the sign of the row swaps. Raises SingularMatrix when m is
    singular.
    """
    n = len(m)
    a = [list(row) + unit for row, unit in zip(m, identity(n))]
    rank, sign, pivot = _eliminate(a, n, jordan=True)
    if rank < n:
        raise SingularMatrix("singular matrix")
    return sign * pivot, [[sign * x for x in row[n:]] for row in a]


def solve(m, rhs) -> Vec:
    """The x with m x = rhs, for a nonsingular integer m and rational rhs."""
    det, adj = adjugate(m)
    return [Fraction(dot(row, rhs)) / det for row in adj]


def isqrt_exact(v: int) -> int:
    """Integer square root of a perfect square; ValueError otherwise."""
    r = isqrt(v)
    if r * r != v:
        raise ValueError(f"{v} is not a perfect square")
    return r


def basis_inverse_update(basis: Basis, position: int, new_row) -> Basis:
    """(det B', adj B') where B' is B with row `position` replaced by new_row.

    Takes (det B, adj B), or both negated, and returns the pair scaled the
    same way. The fraction-free row swap: with W = new_row @ adj, det B' is
    W[position], column `position` of the adjugate stays, and every other
    column j becomes (W[position] adj_j - W[j] adj_position) / det B, an
    exact division. A zero W[position] means B' is singular (SingularUpdate).
    """
    det, adj = basis
    w = [dot(new_row, col) for col in zip(*adj)]
    pivot = w[position]
    if pivot == 0:
        raise SingularUpdate("basis_inverse_update: replacement row is dependent")
    out = []
    for row in adj:
        u = row[position]
        out.append([(pivot * x - wc * u) // det for x, wc in zip(row, w)])
        out[-1][position] = u
    return pivot, out
