"""Exact linear algebra over Python ints.

A rational row, given as (num, den) pairs, becomes integers in
`integer_row`: its primitive integer multiple and the positive scale
between the two, the one clearing rule of the package. Every independence
test is the integral Gram-Schmidt step `off_span`, run by the one loop
`independent`, and the adjugate comes from one fraction-free (Bareiss)
elimination, both over Python ints with exact divisions, so `rank_of` and
`adjugate` take integer matrices and never see a denominator.
A basis is carried as the pair (det, adj) and a row swap updates that pair
in integers (`basis_inverse_update`); the pivot kernel in `model` builds a
`Fraction` only where a result leaves it. No floating point is used
anywhere.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import SingularMatrix, SingularUpdate

Basis = tuple[int, list[list[int]]]  # (det, adj) of a square integer matrix


def frac(x) -> Fraction:
    """Coerce ints, strings like '7/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass int/str")
    return Fraction(x)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dot(u, v):
    """Inner product; an int when both vectors are integer."""
    return sum(map(mul, u, v))


def integer_row(row) -> tuple[tuple[int, ...], Fraction]:
    """The primitive integer multiple s * row of a row of (num, den) pairs,
    den > 0, and s > 0. A zero row stays zero, with s = 1."""
    clear = lcm(*(q for _, q in row))
    ints = [v * (clear // q) for v, q in row]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints), Fraction(clear, g)


def off_span(v, ortho) -> list[int]:
    """A positive multiple of v less its projection on the span of `ortho`,
    mutually orthogonal integer vectors with their square norms, in lowest
    terms: v <- |o|^2 v - (v o) o for each (integral Gram-Schmidt)."""
    for o, norm in ortho:
        c = dot(v, o)
        if c:
            v = [norm * x - c * y for x, y in zip(v, o)]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def independent(rows, ortho: list) -> list[int]:
    """The positions of the integer `rows` with a nonzero part off the span
    of `ortho` (as off_span takes it) and of the rows kept before them, each
    kept row's part joining `ortho`; it stops once `ortho` holds as many
    vectors as a row has entries, a basis of the whole space."""
    kept = []
    for k, row in enumerate(rows):
        if len(ortho) == len(row):
            break
        o = off_span(row, ortho)
        if any(o):
            kept.append(k)
            ortho.append((o, dot(o, o)))
    return kept


def rank_of(m) -> int:
    """Rank of an integer matrix: the number of rows `independent` keeps."""
    return len(independent(m, []))


def adjugate(m) -> tuple[int, list[list[int]]]:
    """(det m, adj m) of a nonsingular square integer matrix.

    A fraction-free (Bareiss 1968) Jordan sweep over [m | I], each step
    row_i <- (pivot * row_i - a_ic * pivot_row) / previous pivot an exact
    division, leaves [d I | d m^-1], d the last pivot; det m = sign * d, so
    adj m = det(m) m^-1 is the right block times the sign of the row swaps.
    Raises SingularMatrix when m is singular.
    """
    n = len(m)
    a = [list(row) + unit for row, unit in zip(m, identity(n))]
    prev, sign = 1, 1
    for col in range(n):
        r = next((i for i in range(col, n) if a[i][col]), None)
        if r is None:
            raise SingularMatrix("singular matrix")
        if r != col:
            a[col], a[r] = a[r], a[col]
            sign = -sign
        top = a[col]
        pivot = top[col]
        for i in range(n):
            if i != col:
                f = a[i][col]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


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
