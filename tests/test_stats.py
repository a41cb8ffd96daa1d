"""Determinant maxima, fan statistics, bounds, and distance certificates."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull import stats as dstats
from deltahull import subdivision
from deltahull.counting import estimate_counting_cost
from deltahull.errors import (
    BoundViolated,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    NotPointed,
    SingularMatrix,
)
from deltahull.hull import Triangulation, run_enumeration
from deltahull.linalg import rank_of
from deltahull.model import make_polyhedron
from deltahull.stats import (
    DEFAULT_BUDGET,
    check_fan_bounds,
    cone_distance_certificate,
    delta_max,
    triangulation_stats,
    unit_ball_volume,
    verify_bounds,
)
from deltahull.subdivision import base_simplex

from conftest import DEGENERATE_FAMILY, cube, square, square_pyramid
from helpers import (
    a_of,
    abs_det,
    cone_det_fractions,
    cone_dets,
    count_minors,
    det_exact,
    floor_holds,
    gram_delta_search,
    integer_rows,
    local_delta_distance,
    rows_of,
    submatrix,
    to_matrix,
    totally_unimodular_transform,
    verify_total_unimodularity,
)


def fraction_det(m):
    """Determinant by Gaussian elimination over Fractions (test oracle)."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def exhaustive_delta(a):
    """Independent all-subsets maximum over a's own rows (test oracle).

    A matrix of rank < n gives (0, (0, ..., n-1)), as delta_max does.
    """
    n = len(a[0])
    best = Fraction(0)
    witness = tuple(range(n))
    for rows in combinations(range(len(a)), n):
        d = abs(fraction_det([a[i] for i in rows]))
        if d > best:
            best, witness = d, rows
    return best, witness


def random_int_matrix(rng, m, n, span=4):
    return [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(m)]


def test_delta_max_box_is_one():
    p = cube()
    delta, witness = delta_max(*integer_rows(rows_of(p)))
    assert delta == 1
    assert witness == (0, 1, 2)


def test_delta_max_subdivision_generators():
    for n, expected in ((2, 3), (3, 16), (4, 125)):
        cols = base_simplex(n)
        delta, witness = delta_max(*integer_rows(to_matrix(cols)))
        assert delta == expected
        assert witness == tuple(range(n))


def test_delta_max_matches_exhaustive_oracle():
    rng = random.Random(4401)
    for _ in range(40):
        n = rng.choice([2, 3])
        m = rng.randint(n, 8)
        a = random_int_matrix(rng, m, n)
        want, _ = exhaustive_delta(a)
        got, witness = delta_max(*integer_rows(a))
        assert got == want
        if got > 0:
            assert abs(det_exact([a[i] for i in witness])) == got


def test_delta_max_witness_is_lexicographically_smallest():
    rng = random.Random(4402)
    for _ in range(30):
        n = 2
        m = rng.randint(3, 7)
        a = random_int_matrix(rng, m, n, span=2)
        delta, witness = delta_max(*integer_rows(a))
        if delta == 0:
            continue
        ties = [
            rows
            for rows in combinations(range(m), n)
            if abs(det_exact([a[i] for i in rows])) == delta
        ]
        assert witness == min(ties)


def test_delta_max_branch_bound_agrees_with_exhaustion():
    rng = random.Random(4403)
    scale_rng = random.Random(4413)
    for _ in range(25):
        n = rng.choice([2, 3])
        m = rng.randint(n, 9)
        a = random_int_matrix(rng, m, n)
        # The same rows times positive fractions: the integer forms are
        # unchanged, the determinants to maximize are not.
        scales = [Fraction(scale_rng.randint(1, 9), scale_rng.randint(1, 9)) for _ in a]
        rational = [[s * x for x in row] for s, row in zip(scales, a)]
        for matrix in (a, rational):
            # One search at every budget its node cap admits: C(m,n), one
            # per subset, and one below it.
            full_budget = math.comb(m, n)
            at_full = delta_max(*integer_rows(matrix), budget=full_budget)
            pruned = delta_max(*integer_rows(matrix), budget=max(full_budget - 1, 1))
            assert pruned == at_full
            assert at_full == exhaustive_delta(matrix)


def test_delta_max_respects_row_scaling():
    rng = random.Random(4404)
    for _ in range(20):
        a = random_int_matrix(rng, 6, 2)
        scales = [Fraction(rng.randint(1, 5)) for _ in range(6)]
        scaled = [[s * x for x in row] for s, row in zip(scales, a)]
        want, _ = exhaustive_delta(scaled)
        got, _ = delta_max(*integer_rows(scaled))
        assert got == want


@pytest.mark.parametrize("budget", [1, 6, None], ids=["1", "6", "default"])
def test_delta_max_rank_deficient_is_zero_at_every_budget(budget):
    a = to_matrix([[1, 0], [2, 0], [3, 0], [4, 0]])
    kwargs = {} if budget is None else {"budget": budget}
    assert delta_max(*integer_rows(a), **kwargs) == (0, (0, 1))


def test_delta_max_fewer_rows_than_columns_has_no_witness():
    # No 3-row submatrix exists, so there is no row to name.
    assert delta_max(*integer_rows(to_matrix([[1, 2, 3]]))) == (0, ())
    assert delta_max(*integer_rows(to_matrix([[1, 0, 0], [0, 1, 0]]))) == (0, ())


@st.composite
def wide_row_matrices(draw):
    """Small integer rows, each times a positive rational from a pool of
    three whose numerators and denominators reach 2^40: the rows carry
    different denominators, and equal scales leave ties to break."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n, 7))
    big = st.integers(1, 2**40)
    pool = [Fraction(draw(big), draw(big)) for _ in range(2)] + [Fraction(1)]
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=m, max_size=m))
    scales = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return [[s * x for x in row] for s, row in zip(scales, rows)]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_row_matrices())
def test_delta_max_matches_exhaustion_on_wide_row_denominators(a):
    assert delta_max(*integer_rows(a)) == exhaustive_delta(a)


def test_delta_max_branch_bound_node_cap():
    rng = random.Random(4405)
    a = random_int_matrix(rng, 14, 4)
    with pytest.raises(BudgetExceeded):
        delta_max(*integer_rows(a), budget=1)


def search_outcome(search, ints, scales, budget):
    """(Delta, witness), or "raised" on BudgetExceeded."""
    try:
        return search(ints, scales, budget)
    except BudgetExceeded:
        return "raised"


@st.composite
def dependent_rational_matrices(draw):
    """Matrices with n in 1..5 whose largest rows are often dependent: up to
    three large combinations of fewer than n small generators, which lead the
    search's norm order as a rank-deficient prefix, then small random rows,
    up to two repeated rows, and a positive rational scale on every row."""
    n = draw(st.integers(1, 5))
    small = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = draw(st.lists(small, min_size=1, max_size=max(n - 1, 1)))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    rows = [
        [4 * sum(c * g[t] for c, g in zip(cs, gens)) for t in range(n)]
        for cs in draw(st.lists(coeffs, max_size=3))
    ]
    rows += draw(st.lists(small, min_size=n, max_size=n + 3))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    pool = st.sampled_from([Fraction(1), Fraction(1), Fraction(2, 3), Fraction(5, 7)])
    scales = draw(st.lists(pool, min_size=len(rows), max_size=len(rows)))
    return [[s * x for x in row] for s, row in zip(scales, rows)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dependent_rational_matrices())
def test_delta_search_matches_the_gram_oracle(a):
    """The recurrence gives the per-node Gram determinants' (Delta, witness),
    and raises at the same budgets: the node count and prune are unchanged."""
    ints, scales = integer_rows(a)
    for budget in (1, 2, 3, 4, 5, DEFAULT_BUDGET):
        got = search_outcome(delta_max, ints, scales, budget)
        assert got == search_outcome(gram_delta_search, ints, scales, budget), budget


def test_delta_search_walks_a_dependent_prefix():
    # Rows 1 and 0 lead the norm order and are parallel: d_2 = 0 while the
    # best value is still 0, so the subtree below them is walked with d = 0.
    a = to_matrix(
        [[5, 5, 0, 0], [10, 10, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    ints, scales = integer_rows(a)
    want = (Fraction(10), (1, 2, 4, 5))
    assert delta_max(ints, scales) == exhaustive_delta(a) == want
    for budget in range(1, 6):
        got = search_outcome(delta_max, ints, scales, budget)
        assert got == search_outcome(gram_delta_search, ints, scales, budget)


def test_delta_search_matches_the_gram_oracle_on_corpora(bench_duals, fuzz_corpus):
    """The frozen bench duals, the generated duals n3k3 and n5k2, and the
    fuzz corpus, at every budget up to the least one the oracle returns at:
    the searches visit the same number of nodes, to the cap's step of 50."""
    systems = [p for p, _ in bench_duals.values()] + list(fuzz_corpus)
    for n, depth in ((3, 3), (5, 2)):
        fans = subdivision.build_subdivision_fans(n, depth)
        systems.append(subdivision.lift_polytope(fans).dual_polyhedron())
    for p in systems:
        want, budget = "raised", 0
        while want == "raised":
            budget += 1
            want = search_outcome(gram_delta_search, p.ints, p.scales, budget)
            assert search_outcome(delta_max, p.ints, p.scales, budget) == want, p.name


@pytest.mark.parametrize(
    "name, want",
    [
        ("dual-n2k5", ["raised"] * 4 + [(Fraction(3), (0, 1))]),
        ("dual-n4k2", ["raised"] * 2 + [(Fraction(125), (0, 1, 2, 3))] * 3),
    ],
)
def test_delta_search_matches_the_gram_oracle_on_the_bench_duals(bench_duals, name, want):
    """Budgets 1-4 and the default on the real workloads: dual-n4k2's search
    visits 115 nodes, so it raises past 100 and returns under 150, and the
    oracle, which builds every node it pops, agrees at each budget."""
    p, _ = bench_duals[name]
    for budget, expected in zip((1, 2, 3, 4, DEFAULT_BUDGET), want):
        got = search_outcome(delta_max, p.ints, p.scales, budget)
        assert got == search_outcome(gram_delta_search, p.ints, p.scales, budget) == expected


def test_triangulation_stats_square():
    p = square()
    result = run_enumeration(p)
    t = result.triangulation
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    assert stats.delta == 1
    assert stats.delta_min == 1
    assert stats.delta_avg == 1
    assert stats.cone_count == 4
    assert stats.fan_volume == 2
    assert stats.cone_pairs == ((1, 1),) * 4


def test_triangulation_stats_volume_identity():
    rng = random.Random(4406)
    from deltahull.model import make_polyhedron

    done = 0
    while done < 10:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(6)]
        rhs = [rng.randint(-3, 3) for _ in range(6)]
        try:
            p = make_polyhedron(rows, rhs)
            result = run_enumeration(p)
        except Exception:
            continue
        if not result.vertices:
            continue
        cones = result.triangulation.cones
        stats = triangulation_stats(p.ints, p.scales, cones, result.triangulation.dets)
        a = a_of(p)
        total = sum(abs(det_exact([a[i] for i in c])) for c in cones)
        assert stats.fan_volume * math.factorial(p.n) == total
        assert stats.delta_min <= stats.delta_avg <= stats.delta
        done += 1


def test_triangulation_stats_rejects_singular_cone():
    p = square()
    with pytest.raises(SingularMatrix):
        triangulation_stats(p.ints, p.scales, [(0, 2)], cone_dets(rows_of(p), [(0, 2)]))


@st.composite
def rational_fans(draw):
    """The integer form of nonzero integer rows times positive rationals
    p/q, q > 1 allowed, and one to six cones of n distinct rows among them;
    small entries make some cones singular."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 7))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    scale = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(row, scale), min_size=m, max_size=m))
    ints, scales = integer_rows([[s * x for x in r] for r, s in pairs])
    cone = st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True)
    cones = draw(st.lists(cone.map(lambda c: tuple(sorted(c))), min_size=1, max_size=6))
    return ints, scales, cones


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_fans())
def test_integer_fan_stats_match_the_fraction_sums(fan):
    """The integer pairs give the Fraction sums over helpers.abs_det, and a
    cone with det 0 still raises SingularMatrix."""
    ints, scales, cones = fan
    int_dets = {c: abs(det_exact([ints[i] for i in c])) for c in cones}
    dets = tuple(abs_det(ints, scales, c) for c in cones)
    if min(dets) == 0:
        with pytest.raises(SingularMatrix):
            triangulation_stats(ints, scales, cones, int_dets)
        return
    got = triangulation_stats(ints, scales, cones, int_dets)
    total = sum(dets, Fraction(0))
    assert cone_det_fractions(got) == dets
    assert got.delta_avg == total / len(dets)
    assert got.delta_min == min(dets)
    assert got.fan_volume == total / math.factorial(len(ints[0]))
    squares = sum(d * d for d in dets)
    cost = estimate_counting_cost(got)["triangulation_cost_exact"]
    assert cost == len(ints[0]) ** 4 * got.delta * len(cones) * squares
    assert got.cone_count == len(cones)
    assert (got.delta, got.witness) == delta_max(ints, scales, DEFAULT_BUDGET)


def test_triangulation_stats_builds_no_fraction_per_cone(bench_duals, monkeypatch):
    """Five Fractions whatever the cone count: two in the Delta search, and
    delta_avg, delta_min and fan_volume."""
    p, result = bench_duals["dual-n4k2"]
    t = result.triangulation
    assert len(t.cones) > 50
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(dstats, "Fraction", counted)
    fan = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    assert len(built) == 5
    monkeypatch.undo()
    dets = tuple(abs_det(p.ints, p.scales, c) for c in t.cones)
    assert cone_det_fractions(fan) == dets


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_check_vertex_bound_passes_on_boxes():
    for build in (square, cube, square_pyramid):
        p = build()
        result = run_enumeration(p)
        t = result.triangulation
        stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
        report = check_fan_bounds(stats, len(result.vertices))["vertex-count"]
        assert report["passed"]
        assert report["lhs"] == len(result.vertices)


def test_check_vertex_bound_raises_on_fabricated_violation():
    p = square()
    result = run_enumeration(p)
    t = result.triangulation
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    from dataclasses import replace

    # Claim fewer cones than there are vertices: the count guard must fire.
    doctored = replace(stats, cone_count=len(result.vertices) - 1)
    with pytest.raises(BoundViolated):
        check_fan_bounds(doctored, len(result.vertices))


def test_check_fan_bound_square_and_scaled_copy():
    p = square()
    result = run_enumeration(p)
    t = result.triangulation
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    reports = check_fan_bounds(stats, len(result.vertices))
    assert list(reports) == ["vertex-count", "fan-volume", "cone-count"]
    assert all(r["passed"] for r in reports.values())
    # The vertex and cone counts share one right-hand side.
    assert reports["vertex-count"]["rhs"] == reports["cone-count"]["rhs"]
    assert reports["vertex-count"]["rhs_exact"] == "2*((1)/(1))*vol_ball(2)"
    scaled = [[5 * x for x in row] for row in rows_of(p)]
    stats5 = triangulation_stats(*integer_rows(scaled), t.cones, t.dets)
    reports5 = check_fan_bounds(stats5, len(result.vertices))
    assert {k: r["passed"] for k, r in reports5.items()} == {k: True for k in reports}


def test_totally_unimodular_transform_identity_witness():
    a = to_matrix([[1, 0], [0, 1], [2, 3], [-1, 4]])
    assert totally_unimodular_transform(a, (0, 1)) == a


def test_totally_unimodular_transform_square_system():
    p = square()
    result = run_enumeration(p)
    t = result.triangulation
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    out = totally_unimodular_transform(rows_of(p), stats.witness)
    assert all(abs(x) <= 1 for row in out for x in row)
    assert verify_total_unimodularity(out)


def test_totally_unimodular_transform_random_witnesses():
    # Jacobi: every minor of A * (A_B)^-1 is +-det(A_S)/det(A_B), so the
    # full minor scan passes exactly on the bases that attain Delta.
    rng = random.Random(4407)
    done = 0
    while done < 15:
        n = rng.choice([2, 3])
        a = random_int_matrix(rng, n + 3, n)
        delta, witness = delta_max(*integer_rows(a))
        if delta == 0:
            continue
        assert abs(det_exact([a[i] for i in witness])) == delta
        for rows in combinations(range(len(a)), n):
            d = abs(det_exact([a[i] for i in rows]))
            if d == 0:
                continue
            out = totally_unimodular_transform(a, rows)
            assert verify_total_unimodularity(out) == (d == delta), rows
        done += 1


def test_totally_unimodular_transform_rejects_singular_witness():
    a = to_matrix([[1, 0], [2, 0], [0, 1]])
    with pytest.raises(SingularMatrix):
        totally_unimodular_transform(a, (0, 1))


def test_verify_total_unimodularity_examples():
    assert verify_total_unimodularity(to_matrix([[1, 0], [0, 1], [1, 1], [-1, 1]])) is False
    assert verify_total_unimodularity(to_matrix([[1, 0], [0, 1], [1, -1]])) is True
    assert verify_total_unimodularity(to_matrix([[2]])) is False
    with pytest.raises(BudgetExceeded):
        verify_total_unimodularity(to_matrix([[1] * 4] * 12), budget=5)


def test_count_minors_matches_direct_sum():
    # Sum over k of C(m,k) * C(n,k) square submatrices.
    assert count_minors(2, 2) == 2 * 2 + 1
    assert count_minors(4, 2) == 4 * 2 + 6 * 1
    got = count_minors(12, 4)
    want = sum(
        math.comb(12, k) * math.comb(4, k) for k in range(1, 5)
    )
    assert got == want


def test_local_delta_distance_identity_rows():
    a = to_matrix([[1, 0], [0, 1]])
    cert = local_delta_distance(a, [(0, 1)])
    assert cert.sin_sq_min == 1
    assert cert.distance == pytest.approx(1.0)


def test_local_delta_distance_sheared_pair():
    a = to_matrix([[1, 0], [1, 1]])
    cert = local_delta_distance(a, [(0, 1)])
    # Row (1,0) against span((1,1)): angle 45 degrees, sin^2 = 1/2.
    assert cert.sin_sq_min == Fraction(1, 2)
    assert cert.distance == pytest.approx(math.sqrt(0.5))
    assert cert.basis == (0, 1)


def test_local_delta_distance_reports_worst_pair():
    a = to_matrix([[1, 0], [0, 1], [5, 1]])
    cert = local_delta_distance(a, [(0, 1), (1, 2)])
    # det((0,1),(5,1)) = -5 ... basis (1,2): row (5,1) vs span((0,1)):
    # sin^2 = 25/26; row (0,1) vs span((5,1)): sin^2 = 25/26.
    assert cert.sin_sq_min == Fraction(25, 26)


def test_wideness_and_diameter_bound_boxes():
    from deltahull.graphs import build_polytope_graph, graph_diameter

    for n, build in ((2, square), (3, cube)):
        p = build()
        result = run_enumeration(p)
        cones = result.triangulation.cones
        stats = triangulation_stats(p.ints, p.scales, cones, result.triangulation.dets)
        diam = graph_diameter(build_polytope_graph(result))
        bounds = verify_bounds(p, stats, result.triangulation, len(result.vertices), diam)
        floor = bounds["delta-distance-floor"]
        assert floor["sin_sq_min"] == 1
        assert floor_holds(floor)
        tau = bounds["tau-diameter"]
        assert tau["tau"] == pytest.approx(1 / n)
        want = 8 * n * n * (1 + math.log(n))
        assert tau["bound"] == pytest.approx(want)
        assert tau["passed"] and tau["diameter"] == diam
        assert diam <= tau["bound"] + 1e-9


def test_wideness_floor_raises_when_certificate_dips():
    p = square()
    result = run_enumeration(p)
    cones = result.triangulation.cones
    stats = triangulation_stats(p.ints, p.scales, cones, result.triangulation.dets)
    from dataclasses import replace

    # Claim a huge minimum determinant: floor rises above the true sine.
    doctored = replace(stats, delta_min=Fraction(1000), delta=Fraction(1))
    with pytest.raises(BoundViolated, match="below floor"):
        verify_bounds(p, doctored, result.triangulation, len(result.vertices), None)


def test_cone_distance_certificate_needs_a_cone():
    with pytest.raises(ValueError, match="no bases given"):
        cone_distance_certificate(square(), (0, 1), Triangulation())


def assert_cone_distances_match_oracle(p, result, witness):
    """The integer certificate from the kept adjugates equals the rational
    route through A (A_W)^-1, minimum, basis and row alike (ties included)."""
    t = result.triangulation
    got = cone_distance_certificate(p, witness, t)
    want = local_delta_distance(totally_unimodular_transform(rows_of(p), witness), t.cones)
    assert (got.sin_sq_min, got.basis, got.row) == (want.sin_sq_min, want.basis, want.row)


def delta_witness(p, result):
    t = result.triangulation
    return triangulation_stats(p.ints, p.scales, t.cones, t.dets).witness


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def fractional_systems(draw):
    """A small system with rational rows, so that some scales s_i != 1."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, n + 4))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = st.builds(Fraction, st.integers(-2, 6), st.integers(1, 4))
    return rows, draw(st.lists(rhs, min_size=m, max_size=m))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fractional_systems(), st.data())
def test_cone_distances_match_the_rational_oracle_on_random_systems(system, data):
    try:
        p = make_polyhedron(*system)
        result = run_enumeration(p)
    except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
        assume(False)
    assert_cone_distances_match_oracle(p, result, delta_witness(p, result))
    # The identity holds for any nonsingular W, not only the Delta witness.
    other = data.draw(st.sampled_from(list(combinations(range(p.m), p.n))))
    if rank_of(submatrix(p, other)) == p.n:
        assert_cone_distances_match_oracle(p, result, other)


def test_cone_distances_match_the_rational_oracle_on_corpora(corpus_analysis):
    """The fuzz corpus, the degenerate family and the subdivision duals
    n2k0-5, n3k0-3 and n4k0-2."""
    for p, result, fan in corpus_analysis:
        assert_cone_distances_match_oracle(p, result, fan.witness)
    systems = [build() for build in DEGENERATE_FAMILY]
    for n, depth in ((2, 5), (3, 3), (4, 2)):
        fans = subdivision.build_subdivision_fans(n, depth)
        lifted = (subdivision.lift_polytope(fans[: k + 1]) for k in range(depth + 1))
        systems += [polytope.dual_polyhedron() for polytope in lifted]
    for p in systems:
        result = run_enumeration(p)
        assert_cone_distances_match_oracle(p, result, delta_witness(p, result))
