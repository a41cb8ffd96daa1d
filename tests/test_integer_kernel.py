"""The integer pivot kernel against the Fraction formulas it replaced.

Tight sets, ratio tests and the InfeasiblePoint message are compared with
`fraction_oracle` on small random rational systems, at random points and
along random directions and basis edge directions. A chain of pivots is
compared with a fresh adjugate of each sorted basis. Points are checked to
be in lowest terms with the slacks of the per-row form, and the integers of
a subdivision dual's enumeration to stay near the width of its data.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull.errors import (
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    InfeasiblePoint,
    NotPointed,
    SingularMatrix,
)
from deltahull import hull, model, subdivision
from deltahull.linalg import adjugate, dot, rank_of
from deltahull.model import (
    basis_adjugate,
    basis_solution,
    find_initial_vertex,
    make_polyhedron,
    phase_one,
    pivot,
    rational_point,
    scaled_point,
    tight_set,
)

import fraction_oracle as oracle
from conftest import square
from helpers import b_of, det_exact, pairs, ratio_test, submatrix

# Mostly integers, so that ties between ratios and degenerate vertices occur.
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))


def far(n):
    """(2^202, 2^404, ...): a small system moved there has right-hand sides
    above 2^200, as a row's product with it is at least 2^202 / 3."""
    return [2 ** (202 * (j + 1)) for j in range(n)]


# c 2^202 + r for small c and r, c = 0 for about half: where the c parts
# cancel, a slack is short, so the ratio test's bit-length screen meets gaps
# 0, 1, 2 and wider; where c = 0, x may lie on a row's hyperplane.
wide = st.builds(lambda c, r: c * 2**202 + r, st.one_of(st.just(0), rationals), rationals)


@st.composite
def systems(draw):
    """A small system A x <= beta with rational entries, moved to far(n):
    b = A far(n) + beta, so its degenerate vertices, and zero steps at
    feasible points, occur as in the small one."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, n + 4))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    beta = draw(st.lists(rationals, min_size=m, max_size=m))
    return rows, [dot(a, far(n)) + v for a, v in zip(rows, beta)]


def build(rows, b):
    try:
        return make_polyhedron(rows, b)
    except (DimensionMismatch, DuplicateRow, NotPointed):
        assume(False)


def same_tight_set(p, x):
    """Integer and Fraction tight sets agree, raising the same message."""
    try:
        want = oracle.tight_set(p, x)
    except InfeasiblePoint as exc:
        with pytest.raises(InfeasiblePoint) as got:
            tight_set(p, rational_point(pairs(x)))
        assert str(got.value) == str(exc)
        return None
    assert tight_set(p, rational_point(pairs(x))) == want
    return want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.data())
def test_integer_kernel_matches_fraction_oracle(system, data):
    p = build(*system)
    n = p.n
    shift = data.draw(st.lists(wide, min_size=n, max_size=n))
    x = [c + v for c, v in zip(far(n), shift)]
    u = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    # The ratio test reads slacks only, so infeasible points count too.
    assert ratio_test(p, rational_point(pairs(x)), u) == oracle.ratio_test(p, (), x, u)
    same_tight_set(p, x)
    try:
        start = phase_one(p)
    except Infeasible:
        return
    pt, tight = find_initial_vertex(p, start)
    assert same_tight_set(p, pt.x) == tight
    basis = next(b for b in combinations(tight, n) if rank_of(submatrix(p, b)) == n)
    pair = basis_adjugate(p, basis)
    det, adj = pair
    # The basis solution, with its unreduced denominator, is the same point.
    at_basis = scaled_point(*basis_solution(p, basis, pair))
    assert at_basis == pt
    assert tight_set(p, at_basis) == tight
    for pos in range(n):
        edge = [-line[pos] for line in adj]
        # The oracle leaves the basis rows out; the kernel needs not, as
        # none has positive rate along an edge of the basis.
        step, blocking, hits = ratio_test(p, at_basis, edge)
        d = [Fraction(c, det) for c in edge]
        want_step, want_blocking, want_hits = oracle.ratio_test(p, basis, pt.x, d)
        assert (blocking, hits) == (want_blocking, want_hits)
        assert (step is None and want_step is None) or step * det == want_step


def normalized_adjugate(p, rows):
    """linalg.adjugate of the rows, negated if its det is negative."""
    det, adj = adjugate(submatrix(p, rows))
    sign = 1 if det > 0 else -1
    return sign * det, [[sign * x for x in line] for line in adj]


def test_pivot_chain_matches_fresh_adjugates():
    rng = random.Random(4206)
    pivots = 0
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n + 5)]
        b = [rng.randint(0, 9) for _ in range(n + 5)]
        try:
            p = make_polyhedron(rows, b)
            _, tight = find_initial_vertex(p, phase_one(p))
        except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
            continue
        basis = next(
            c for c in combinations(tight, n) if rank_of(submatrix(p, c)) == n
        )
        pair = basis_adjugate(p, basis)
        for _ in range(12):
            pt = scaled_point(*basis_solution(p, basis, pair))
            pos = rng.randrange(n)
            edge = [-line[pos] for line in pair[1]]
            step, blocking, _ = ratio_test(p, pt, edge)
            if step is None:
                continue
            basis, pair = pivot(p, basis, pair, basis[pos], rng.choice(blocking))
            assert list(basis) == sorted(basis)
            assert pair == normalized_adjugate(p, basis)
            assert pair[0] == abs(det_exact(submatrix(p, basis))) > 0
            pivots += 1
    assert pivots >= 200


def test_pivot_on_a_dependent_row_raises_singular_matrix():
    p = square()
    pair = basis_adjugate(p, (0, 1))
    # -y <= 0 in place of x <= 1 leaves two rows along y.
    with pytest.raises(SingularMatrix):
        pivot(p, (0, 1), pair, 0, 3)


@st.composite
def per_row_systems(draw):
    """A small system whose right-hand sides carry distinct denominators."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, n + 4))
    dens = draw(st.lists(st.integers(1, 10**9), min_size=m, max_size=m, unique=True))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = [Fraction(draw(st.integers(-(10**9), 10**9)), d) for d in dens]
    return rows, b


def assert_lowest_terms_point(p, pt, x):
    """pt is x over its lowest-terms denominator, and model.slacks gives the
    per-row slacks there."""
    assert pt.den > 0 and gcd(pt.den, *pt.num) == 1
    assert pt.x == tuple(x)
    slack = model.slacks(p, pt, range(p.m))
    for i, s in enumerate(slack):
        assert s == pt.den * p.rhs_num[i] - p.rhs_den[i] * dot(p.ints[i], pt.num)
    want = oracle.slacks(p, x)
    assert [Fraction(s, pt.den * q) / c for s, q, c in zip(slack, p.rhs_den, p.scales)] == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(per_row_systems(), st.data())
def test_points_are_in_lowest_terms_with_per_row_slacks(system, data):
    p = build(*system)
    for r, q, c, beta in zip(p.rhs_num, p.rhs_den, p.scales, b_of(p)):
        assert q > 0 and gcd(r, q) == 1 and Fraction(r, q) == c * beta
    x = data.draw(st.lists(rationals, min_size=p.n, max_size=p.n))
    assert_lowest_terms_point(p, rational_point(pairs(x)), x)
    # An unreduced num / den gives the same lowest-terms point.
    den = 6 * data.draw(st.integers(1, 12))  # 6 clears every `rationals` denominator
    scaled = scaled_point([v.numerator * den // v.denominator for v in x], den)
    assert_lowest_terms_point(p, scaled, x)
    try:
        pt, tight = find_initial_vertex(p, phase_one(p))
    except Infeasible:
        return
    assert_lowest_terms_point(p, pt, pt.x)  # the ray cast's own Point
    basis = next(b for b in combinations(tight, p.n) if rank_of(submatrix(p, b)) == p.n)
    at_basis = scaled_point(*basis_solution(p, basis, basis_adjugate(p, basis)))
    assert_lowest_terms_point(p, at_basis, pt.x)


def test_subdivision_dual_enumeration_stays_near_the_data_width(monkeypatch):
    """The n=2, k=5 dual: right-hand sides of at most 236 bits; no slack,
    vertex numerator or denominator of its enumeration above 600 bits (one
    denominator over all rows made them 2,604 bits wide). Each point is
    recorded as model.step_point builds it, (num (q / den) + s u) / q
    before its gcd is divided out, and in lowest terms; every slack is
    recorded as model.slacks computes it."""
    fans = subdivision.build_subdivision_fans(2, 5)
    p = subdivision.lift_polytope(fans).dual_polyhedron()
    assert (p.m, p.n) == (96, 2)
    assert max(abs(v).bit_length() for v in (*p.rhs_num, *p.rhs_den)) <= 236
    widest = []
    core_slacks = model.slacks

    def recording(num, den):
        widest.append(max(abs(v).bit_length() for v in (*num, den)))
        pt = scaled_point(num, den)
        widest.append(max(abs(v).bit_length() for v in (*pt.num, pt.den)))
        return pt

    def recording_slacks(p, pt, rows):
        slack = core_slacks(p, pt, rows)
        widest.append(max(abs(s).bit_length() for s in slack))
        return slack

    monkeypatch.setattr(model, "scaled_point", recording)
    monkeypatch.setattr(model, "slacks", recording_slacks)
    result = hull.run_enumeration(p, [(0, 1)] * 2)
    assert len(result.vertices) == 96
    assert len(widest) > 3 * 96
    assert max(widest) <= 600
