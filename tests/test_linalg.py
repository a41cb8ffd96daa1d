"""Exact linear algebra: the integer kernel, solves, inverse updates.

The determinant oracle here is an independent cofactor expansion, so any
agreement with the fraction-free elimination in the package is meaningful.
The package's Gram-Schmidt rank is checked against the cofactor minors and
against the tests' forward Bareiss elimination (helpers.rank_exact).
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltahull.errors import SingularMatrix
from deltahull.linalg import (
    adjugate,
    basis_inverse_update,
    dot,
    frac,
    identity,
    independent,
    integer_row,
    isqrt_exact,
    rank_of,
)

from fraction_oracle import as_inverse, sherman_morrison
from helpers import det_exact, integer_rows, invert, mat_mul, rank_exact, solve


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def det_by_cofactors(m):
    """Recursive cofactor expansion along the first row (test oracle)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * det_by_cofactors(sub)
    return total


def random_matrix(rng, rows, cols, span=9, rational=False):
    """Integer entries, or Fractions when `rational`."""

    def entry():
        num = rng.randint(-span, span)
        if rational:
            return Fraction(num, rng.randint(1, 5))
        return num

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def test_det_small_fixed_values():
    assert det_exact([[Fraction(5)]]) == 5
    assert det_exact([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]) == 3
    assert det_exact(identity(4)) == 1
    upper = [
        [Fraction(2), Fraction(7), Fraction(-1)],
        [Fraction(0), Fraction(3), Fraction(5)],
        [Fraction(0), Fraction(0), Fraction(-4)],
    ]
    assert det_exact(upper) == -24


def test_det_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(4101)
    for trial in range(120):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, rational=trial % 3 == 0)
        # A rational matrix goes through its integer rows: det(S m) / det(S).
        ints, scales = integer_rows(m)
        assert Fraction(det_exact(ints)) / prod(scales) == det_by_cofactors(m)


def test_integer_row_is_the_primitive_positive_multiple():
    rng = random.Random(4109)
    for _ in range(200):
        row = random_matrix(rng, 1, rng.randint(1, 5), rational=True)[0]
        ints, scale = integer_row([x.as_integer_ratio() for x in row])
        assert scale > 0
        assert list(ints) == [scale * x for x in row]
        assert all(type(v) is int for v in ints)
        if any(ints):
            assert gcd(*ints) == 1
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert integer_row([(factor * x).as_integer_ratio() for x in row])[0] == ints
    assert integer_row([(0, 1), (0, 1)]) == ((0, 0), 1)


def test_det_multiplicative_and_transpose_invariant():
    rng = random.Random(4102)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)
        assert det_exact(transpose(a)) == det_exact(a)


def test_solve_linear_fixed_example():
    x = solve([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_linear_residual_is_zero_on_random_systems():
    rng = random.Random(4103)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        try:
            x = solve(a, rhs)
        except SingularMatrix:
            assert det_by_cofactors(a) == 0
            continue
        assert mat_vec(a, x) == rhs
        solved += 1


def test_solve_linear_rejects_singular_matrix():
    with pytest.raises(SingularMatrix):
        solve([[1, 2], [2, 4]], [Fraction(1), Fraction(1)])


def test_rank_of_examples():
    assert rank_of([]) == 0
    assert rank_of([[0, 0]]) == 0
    assert rank_of(identity(3)) == 3
    dup = [[1, 2], [2, 4], [0, 1]]
    assert rank_of(dup) == 2


def test_independent_keeps_the_positions_of_rows_off_the_span():
    ortho = []
    assert independent(iter([[0, 0], [1, 1], [2, 2], [0, 1], [1, 0]]), ortho) == [1, 3]
    assert ortho == [([1, 1], 2), ([-1, 1], 2)]
    # A row in the span of the `ortho` it is given is skipped too.
    assert independent([[3, 3], [0, 1]], [([1, 1], 2)]) == [1]


def test_rank_of_matches_independent_minor_scan():
    rng = random.Random(4104)
    from itertools import combinations

    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, span=3)
        best = 0
        for k in range(1, min(rows, cols) + 1):
            for ri in combinations(range(rows), k):
                for ci in combinations(range(cols), k):
                    sub = [[m[r][c] for c in ci] for r in ri]
                    if det_by_cofactors(sub) != 0:
                        best = max(best, k)
        assert rank_of(m) == best


@st.composite
def tall_integer_matrices(draw):
    """Up to 40 rows of width 1 to 5, entries up to 10^30, mixing fresh rows
    with zero rows, repeats, positive multiples and sums of earlier rows."""
    width = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "multiple", "sum"]))
        if kind == "fresh" or (kind != "zero" and not rows):
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
        elif kind == "zero":
            rows.append([0] * width)
        else:
            u = draw(st.sampled_from(rows))
            if kind == "repeat":
                rows.append(list(u))
            elif kind == "multiple":
                k = draw(st.integers(1, 10**12))
                rows.append([k * x for x in u])
            else:
                w = draw(st.sampled_from(rows))
                rows.append([x + y for x, y in zip(u, w)])
    return rows


@settings(max_examples=150, deadline=None)
@given(tall_integer_matrices())
def test_rank_of_matches_the_bareiss_oracle_on_tall_matrices(m):
    rank = rank_of(m)
    assert rank == rank_exact(m)
    assert all(rank_of(m[:k]) <= rank for k in range(len(m)))


def adjugate_column(m, i):
    return [row[i] for row in adjugate(m)[1]]


def test_adjugate_column_fixed_example():
    m = [[2, 1], [1, 2]]
    assert adjugate(m) == (3, [[2, -1], [-1, 2]])
    assert adjugate_column(m, 0) == [2, -1]
    assert adjugate_column(m, 1) == [-1, 2]


def test_adjugate_column_satisfies_matrix_identity():
    # m adj(m) = det(m) I, column by column; a singular m has no inverse to
    # read the adjugate from and is refused.
    rng = random.Random(4105)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        det = det_exact(m)
        if det == 0:
            with pytest.raises(SingularMatrix):
                adjugate(m)
            continue
        assert adjugate(m)[0] == det
        for i in range(n):
            image = mat_vec(m, adjugate_column(m, i))
            expected = [det if r == i else 0 for r in range(n)]
            assert image == expected


def test_minor_det_agrees_with_cofactor_oracle():
    # adj(m)[j][i] is the signed minor of m without row i and column j.
    rng = random.Random(4106)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, n)
        if det_by_cofactors(m) == 0:
            continue
        _, adj = adjugate(m)
        i = rng.randrange(n)
        j = rng.randrange(n)
        sub = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
        assert adj[j][i] == (-1) ** (i + j) * det_by_cofactors(sub)
        checked += 1


def test_invert_round_trip():
    rng = random.Random(4107)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        try:
            inv = invert(m)
        except SingularMatrix:
            continue
        assert mat_mul(m, inv) == identity(n)
        done += 1


def test_basis_inverse_update_fixed_example():
    basis = adjugate([[1, 0], [0, 1]])
    out = basis_inverse_update(basis, 1, [0, 2])
    assert out == (2, [[2, 0], [0, 1]])
    assert as_inverse(out) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]]


def test_basis_inverse_update_chain_matches_fresh_inversion():
    rng = random.Random(4108)
    n = 4
    m = identity(n)
    basis = adjugate(m)
    inv = invert(m)
    updates = 0
    while updates < 10:
        row = [rng.randint(-5, 5) for _ in range(n)]
        position = rng.randrange(n)
        candidate = [list(r) for r in m]
        candidate[position] = row
        try:
            out = basis_inverse_update(basis, position, row)
        except SingularMatrix:
            assert det_by_cofactors(candidate) == 0
            with pytest.raises(SingularMatrix):
                sherman_morrison(inv, position, row)
            continue
        m = candidate
        basis = out
        inv = sherman_morrison(inv, position, row)
        assert as_inverse(basis) == inv == invert(m)
        # The update carries the exact pair, signs included.
        assert basis == adjugate(m)
        assert basis[0] == det_exact(m) == det_by_cofactors(m)
        updates += 1


def test_basis_inverse_update_keeps_a_negated_pair_negated():
    m = [[2, 1, 0], [0, 1, 3], [1, 0, 1]]
    det, adj = adjugate(m)
    out = basis_inverse_update((-det, [[-x for x in r] for r in adj]), 2, [1, 1, 1])
    m[2] = [1, 1, 1]
    want_det, want_adj = adjugate(m)
    assert out == (-want_det, [[-x for x in r] for r in want_adj])


def test_basis_inverse_update_rejects_singular_replacement():
    basis = adjugate([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrix):
        basis_inverse_update(basis, 0, [0, 0])
    with pytest.raises(SingularMatrix):
        # New row lies in the span of the untouched one.
        basis_inverse_update(basis, 0, [0, 3])


def test_frac_accepts_exact_inputs_only():
    assert frac(3) == Fraction(3)
    assert frac("7/3") == Fraction(7, 3)
    assert frac(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        frac(0.5)


def test_isqrt_exact():
    assert isqrt_exact(0) == 0
    assert isqrt_exact(49) == 7
    assert isqrt_exact(144) == 12
    with pytest.raises(ValueError):
        isqrt_exact(2)
