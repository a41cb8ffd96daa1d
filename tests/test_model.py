"""Instance validation, tight sets, vertex ray-cast, phase 1, redundancy."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from deltahull.errors import (
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    InfeasiblePoint,
    NotPointed,
    SingularMatrix,
)
from deltahull.hull import enumerate_all_bases_oracle
from deltahull.linalg import dot, rank_of
from deltahull.model import (
    basis_adjugate,
    drop_rows,
    find_initial_vertex,
    make_polyhedron,
    phase_one,
    pivot,
    rational_point,
    redundancy_scan,
    strict_interior_point,
    tight_set,
)

from conftest import cube, square, square_pyramid
from fraction_oracle import basis_vertex, is_feasible_basis, slacks
from helpers import a_of, b_of, contains, pairs, rank_exact, ratio_test, submatrix


def test_make_polyhedron_accepts_unit_square():
    p = square()
    assert p.m == 4
    assert p.n == 2
    assert contains(p, [Fraction(1, 2), Fraction(1, 2)])
    assert not contains(p, [Fraction(2), Fraction(0)])


def test_make_polyhedron_preserves_rational_entries_exactly():
    p = make_polyhedron([["3/7", 1], [-1, 0], [0, -1]], [1, 0, 0])
    assert a_of(p)[0][0] == Fraction(3, 7)
    assert a_of(p)[0][0] * 7 == 3


def test_make_polyhedron_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        make_polyhedron([[1, 0], [0, 1, 2]], [1, 1])
    with pytest.raises(DimensionMismatch):
        make_polyhedron([[1, 0], [0, 1]], [1])
    with pytest.raises(DimensionMismatch):
        make_polyhedron([[0, 0], [0, 1]], [1, 1])
    with pytest.raises(DimensionMismatch):
        make_polyhedron([], [])


def test_make_polyhedron_rejects_duplicate_rows_up_to_scaling():
    with pytest.raises(DuplicateRow):
        make_polyhedron([[1, 0], [2, 0], [0, 1]], [1, 2, 1])
    # Same normal but a genuinely different constraint is fine.
    p = make_polyhedron([[1, 0], [2, 0], [0, 1], [-1, 0], [0, -1]], [1, 4, 1, 0, 0])
    assert p.m == 5


def test_make_polyhedron_rejects_rank_deficient_systems():
    with pytest.raises(NotPointed):
        make_polyhedron([[1, 0], [-1, 0]], [1, 0])
    with pytest.raises(NotPointed):
        make_polyhedron([[1, 1, 0], [0, 1, 0], [1, 2, 0]], [1, 1, 2])


def test_basis_vertex_unit_square_examples():
    p = square()
    # Row order in the fixture: x<=1, y<=1, -x<=0, -y<=0.
    assert basis_vertex(p, (0, 1)) == [Fraction(1), Fraction(1)]
    assert basis_vertex(p, (0, 3)) == [Fraction(1), Fraction(0)]
    assert basis_vertex(p, (2, 3)) == [Fraction(0), Fraction(0)]


def test_basis_vertex_rejects_dependent_rows():
    p = square()
    with pytest.raises(SingularMatrix):
        basis_vertex(p, (0, 2))  # x<=1 and -x<=0 are parallel


def test_is_feasible_basis_matches_direct_definition():
    """The kernel's exhaustive oracle solves each basis once; its feasible
    bases and vertices are the Fraction oracle's, which match A x <= b."""
    rng = random.Random(4201)
    checked = 0
    while checked < 15:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(6)]
        rhs = [rng.randint(-4, 4) for _ in range(6)]
        try:
            p = make_polyhedron(rows, rhs)
        except (DimensionMismatch, DuplicateRow, NotPointed):
            continue
        checked += 1
        feasible, points = [], set()
        for sub in combinations(range(p.m), p.n):
            mat = submatrix(p, sub)
            if rank_of(mat) < p.n:
                assert not is_feasible_basis(p, sub)
                continue
            x = basis_vertex(p, sub)
            assert is_feasible_basis(p, sub) == contains(p, x)
            if contains(p, x):
                feasible.append(sub)
                points.add(tuple(x))
        got = enumerate_all_bases_oracle(p)
        assert got.feasible_bases == feasible
        assert got.vertex_points() == points
        for v in got.vertices:
            assert v.tight == tuple(i for i, s in enumerate(slacks(p, v.point)) if s == 0)


def test_tight_set_examples():
    p = square()
    assert tight_set(p, rational_point([(1, 1), (1, 1)])) == (0, 1)
    assert tight_set(p, rational_point([(1, 2), (1, 2)])) == ()
    assert tight_set(p, rational_point([(0, 1), (1, 1)])) == (1, 2)
    with pytest.raises(InfeasiblePoint):
        tight_set(p, rational_point([(2, 1), (0, 1)]))


def test_tight_set_at_degenerate_apex():
    p = square_pyramid()
    apex = [Fraction(0), Fraction(0), Fraction(1)]
    assert len(tight_set(p, rational_point(pairs(apex)))) == 4


def test_find_initial_vertex_walks_square_interior_to_corner():
    p = square()
    pt, tight = find_initial_vertex(p, rational_point([(1, 2), (1, 2)]))
    # Deterministic: first move follows +e1 to x=1, second +e2 to y=1.
    assert pt.x == (Fraction(1), Fraction(1))
    assert tight == (0, 1)


def test_find_initial_vertex_keeps_existing_vertex():
    p = cube()
    pt, _ = find_initial_vertex(p, rational_point([(0, 1)] * 3))
    assert pt.x == (Fraction(0), Fraction(0), Fraction(0))


def test_find_initial_vertex_on_unbounded_cone():
    p = make_polyhedron([[-1, 0], [0, -1]], [0, 0], name="quadrant")
    pt, tight = find_initial_vertex(p, rational_point([(3, 1), (5, 1)]))
    assert pt.x == (Fraction(0), Fraction(0))
    assert tight == (0, 1)


def test_find_initial_vertex_lands_on_vertex_for_random_instances():
    rng = random.Random(4202)
    built = 0
    while built < 40:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + 3)]
        rhs = [rng.randint(-4, 4) for _ in range(n + 3)]
        try:
            p = make_polyhedron(rows, rhs)
            x0 = phase_one(p)
        except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
            continue
        built += 1
        pt, tight = find_initial_vertex(p, x0)
        assert contains(p, list(pt.x))
        assert rank_exact(submatrix(p, tight)) == n
        # The returned Point is in lowest terms, as a fresh one is.
        assert pt == rational_point(pairs(pt.x))
        assert tight_set(p, pt) == tight


def test_pivot_kernel_walks_edges_with_exact_inverses():
    rng = random.Random(4205)
    pivots = 0
    while pivots < 40:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + 3)]
        rhs = [rng.randint(-4, 4) for _ in range(n + 3)]
        try:
            p = make_polyhedron(rows, rhs)
            pt, tight = find_initial_vertex(p, phase_one(p))
        except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
            continue
        basis = next(
            b for b in combinations(tight, n) if rank_of(submatrix(p, b)) == n
        )
        pair = basis_adjugate(p, basis)
        x = list(pt.x)
        for pos, leaving in enumerate(basis):
            d = [-line[pos] for line in pair[1]]
            step, blocking, hits = ratio_test(p, rational_point(pairs(x)), d)
            rising = [i for i, row in enumerate(a_of(p)) if i not in basis and dot(row, d) > 0]
            assert hits == len(rising)
            if step is None:
                assert not rising
                continue
            y = [xi + step * di for xi, di in zip(x, d)]
            assert contains(p, y)
            assert blocking == sorted(i for i in rising if slacks(p, y)[i] == 0)
            for entering in blocking:
                new_rows, new_pair = pivot(p, basis, pair, leaving, entering)
                assert new_rows == tuple(sorted(set(basis) - {leaving} | {entering}))
                assert new_pair == basis_adjugate(p, new_rows)
                pivots += 1


def test_phase_one_square_and_shifted_box():
    p = square()
    x = phase_one(p)
    assert contains(p, x.x)
    assert x == rational_point([(0, 1)] * 2)
    shifted = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [5, 6, -4, -5])
    x = phase_one(shifted)
    assert contains(shifted, x.x)
    assert x == rational_point(pairs(x.x))


def test_phase_one_detects_empty_system():
    p = make_polyhedron([[1], [-1]], [0, -1], name="x<=0 and x>=1")
    with pytest.raises(Infeasible):
        phase_one(p)
    p2 = make_polyhedron(
        [[1, 0], [0, 1], [-1, -1]], [0, 0, -1], name="negative orthant below x+y>=1"
    )
    with pytest.raises(Infeasible):
        phase_one(p2)


def test_phase_one_feasible_on_random_instances():
    rng = random.Random(4203)
    feasible = 0
    infeasible = 0
    while feasible < 30 or infeasible < 5:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + 4)]
        rhs = [rng.randint(-4, 4) for _ in range(n + 4)]
        try:
            p = make_polyhedron(rows, rhs)
        except (DimensionMismatch, DuplicateRow, NotPointed):
            continue
        try:
            x = phase_one(p)
        except Infeasible:
            infeasible += 1
            continue
        assert contains(p, x.x)
        assert x == rational_point(pairs(x.x))
        feasible += 1


def test_strict_interior_point_square_and_flat_slab():
    p = square()
    x = strict_interior_point(p)
    assert x is not None
    assert all(s > 0 for s in slacks(p, x.x))
    assert x == rational_point(pairs(x.x))
    flat = make_polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 0])
    assert strict_interior_point(flat) is None


def test_redundancy_scan_flags_dominated_rows_only():
    p = square()
    assert redundancy_scan(p, phase_one(p)) == []
    padded = make_polyhedron(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 5]
    )
    assert redundancy_scan(padded, phase_one(padded)) == [4]
    trimmed = drop_rows(padded, [4])
    assert trimmed.m == 4
    assert redundancy_scan(trimmed, phase_one(trimmed)) == []
    with pytest.raises(InfeasiblePoint):
        redundancy_scan(padded, rational_point([(2, 1), (0, 1)]))


def test_redundancy_scan_flags_tangent_rows():
    # x + y <= 2 touches the square only at (1,1); dropping it changes
    # nothing, so it counts as redundant even though it is tight somewhere.
    p = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 2])
    assert redundancy_scan(p, phase_one(p)) == [4]


def test_redundancy_scan_agrees_with_vertex_description():
    rng = random.Random(4204)
    done = 0
    while done < 10:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(6)]
        rhs = [rng.randint(-3, 3) for _ in range(6)]
        try:
            p = make_polyhedron(rows, rhs)
            x0 = phase_one(p)
        except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
            continue
        done += 1
        redundant = redundancy_scan(p, x0)
        # The verdict depends only on each LP's optimum, not on the start.
        starts = [find_initial_vertex(p, x0)[0]]
        interior = strict_interior_point(p)
        if interior is not None:
            starts.append(interior)
        for start in starts:
            assert redundancy_scan(p, start) == redundant
        slim = drop_rows(p, redundant) if redundant else p
        keep = [i for i in range(p.m) if i not in redundant]
        # The kept rows need no revalidation: the same system, built afresh.
        a, b = a_of(p), b_of(p)
        assert slim == make_polyhedron([a[i] for i in keep], [b[i] for i in keep])
        # Dropping redundant rows must not admit new points: probe along a
        # random grid and compare membership verdicts.
        for _ in range(200):
            x = [Fraction(rng.randint(-8, 8), 2) for _ in range(2)]
            assert contains(p, x) == contains(slim, x)
