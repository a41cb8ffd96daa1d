"""Exact rational linear algebra kernels.

Matrices are plain lists of rows, vectors plain lists, entries
`fractions.Fraction`. No floating point is used anywhere in this module; the
determinant/rank cores clear denominators row-wise and run fraction-free
(Bareiss) integer elimination, so intermediate values stay integral and exact
for arbitrary magnitudes.
"""

from fractions import Fraction
from math import gcd

from .errors import SingularMatrix, SingularUpdate

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac(x) -> Fraction:
    """Coerce ints, strings like '7/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> Fraction coercion; pass int/str")
    return Fraction(x)


def to_matrix(rows) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def to_vector(entries) -> Vec:
    return [frac(x) for x in entries]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def _clear_denominators(m: Mat) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return (int matrix, product of scales).

    det(original) = det(int matrix) / product_of_scales.
    """
    out = []
    scale = Fraction(1)
    for row in m:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        scale *= lcm
        out.append([int(x * lcm) for x in row])
    return out, scale


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (destructive)."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                # exact division is the Bareiss invariant
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_exact(m: Mat) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    for row in m:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    ints, scale = _clear_denominators(m)
    return Fraction(_bareiss_det(ints)) / scale


def rank_of(m: Mat) -> int:
    """Rank via fraction-free elimination with full column scan."""
    if not m:
        return 0
    a, _ = _clear_denominators(m)
    rows, cols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot_row = None
        for i in range(row, rows):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        pivot = a[row][col]
        for i in range(row + 1, rows):
            factor = a[i][col]
            if factor != 0:
                a[i] = [a[i][j] * pivot - factor * a[row][j] for j in range(cols)]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def solve_linear(m: Mat, rhs: Vec) -> Vec:
    """Solve m x = rhs exactly (Cramer over Bareiss determinants).

    Raises SingularMatrix when det(m) = 0. Intended for the small square
    systems this package deals in (n <= 8 or so).
    """
    n = len(m)
    d = det_exact(m)
    if d == 0:
        raise SingularMatrix("solve_linear: singular system")
    out = []
    for j in range(n):
        mj = [row[:j] + [rhs[i]] + row[j + 1:] for i, row in enumerate(m)]
        out.append(det_exact(mj) / d)
    return out


def invert(m: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination on Fractions."""
    n = len(m)
    a = [row[:] + ident_row[:] for row, ident_row in zip(m, identity(n))]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrix("invert: singular matrix")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def isqrt_exact(v: int) -> int:
    """Integer square root of a perfect square; ValueError otherwise."""
    from math import isqrt

    r = isqrt(v)
    if r * r != v:
        raise ValueError(f"{v} is not a perfect square")
    return r


def minor_det(m: Mat, drop_row: int, drop_col: int) -> Fraction:
    sub = [
        [x for j, x in enumerate(row) if j != drop_col]
        for i, row in enumerate(m)
        if i != drop_row
    ]
    return det_exact(sub)


def adjugate_column(m: Mat, i: int) -> Vec:
    """Column i of adj(m): u with <row_j, u> = det(m) * [j == i].

    The returned vector is orthogonal to every row of m except row i, and
    pairs with row i to det(m). Useful as an exact normal to the hyperplane
    spanned by the other rows.
    """
    n = len(m)
    return [(-1) ** (i + j) * minor_det(m, i, j) for j in range(n)]


def basis_inverse_update(inv: Mat, position: int, new_row: Vec) -> Mat:
    """Inverse of B' where B' is B with row `position` replaced by new_row.

    Sherman-Morrison for a rank-1 row swap: with u = inv[:, position] and
    w = new_row @ inv, the pivot is w[position]; a zero pivot means B' is
    singular (SingularUpdate). Exact, so the result is identical to a fresh
    inversion.
    """
    n = len(inv)
    w = [dot(new_row, [inv[r][c] for r in range(n)]) for c in range(n)]
    pivot = w[position]
    if pivot == 0:
        raise SingularUpdate("basis_inverse_update: replacement row is dependent")
    out = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        u_r = inv[r][position]
        for c in range(n):
            if c == position:
                out[r][c] = u_r / pivot
            else:
                out[r][c] = inv[r][c] - u_r * w[c] / pivot
    return out
