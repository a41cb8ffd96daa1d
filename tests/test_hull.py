"""Vertex enumeration, pivoting, normal cone triangulation, and redundancy."""

import heapq
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull import hull, linalg, model
from deltahull.errors import (
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    NotPointed,
)
from deltahull.hull import (
    enumerate_all_bases_oracle,
    enumerate_vertices,
    redundant_rows,
    run_enumeration,
)
from deltahull.linalg import dot
from deltahull.model import (
    basis_adjugate,
    basis_solution,
    make_polyhedron,
    phase_one,
    rational_point,
    redundancy_scan,
    scaled_point,
)
from deltahull.serialize import load_instance_path
from deltahull.stats import triangulation_stats

from conftest import (
    BENCH_DATA,
    DEGENERATE_FAMILY,
    cross_polytope,
    cube,
    octahedron,
    square,
    square_pyramid,
)
from fraction_oracle import basis_vertex
from helpers import (
    a_of,
    abs_det,
    b_of,
    cone_det_fractions,
    det_exact,
    fan_certificate,
    fractions_built,
    pairs,
    rank_redundant_rows,
    rank_test_edges,
    ratio_test,
    ratio_work,
    submatrix,
    triangulate_normal_cone,
    vertex_points,
)


def target_basis(rows, leaving, entering):
    return tuple(sorted(set(rows) - {leaving} | {entering}))


def edge(basis, pos):
    """det times the direction of the edge that relaxes position pos of the
    basis (det, adj): -adj[:, pos]."""
    return [-line[pos] for line in basis[1]]


def pivots(p, rows, basis, pt):
    """(leaving, entering, step, u) of every pivot out of a feasible basis at
    its vertex pt, read off the ratio test at each position: one per row
    attaining the least step, or (leaving, None, None, u) on an unbounded edge."""
    out = []
    for pos, leaving in enumerate(rows):
        u = edge(basis, pos)
        step, blocking, _ = ratio_test(p, pt, u)
        out += [(leaving, i, step, u) for i in blocking] or [(leaving, None, None, u)]
    return out


def test_square_enumeration_counts():
    result = run_enumeration(square())
    assert len(result.vertices) == 4
    assert len(result.triangulation.cones) == 4
    assert result.bounded
    assert vertex_points(result) == {
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0)),
    }
    assert len(result.edges) == 4


def test_cube_enumeration_counts_and_regularity():
    result = run_enumeration(cube())
    assert len(result.vertices) == 8
    assert len(result.triangulation.cones) == 8
    degree = Counter(v for edge in result.edges for v in edge)
    assert len(degree) == 8
    assert set(degree.values()) == {3}
    assert len(result.edges) == 12


def test_degenerate_apex_owns_two_cones():
    p = square_pyramid()
    result = run_enumeration(p)
    assert len(result.vertices) == 5
    apex = (Fraction(0), Fraction(0), Fraction(1))
    points = [v.point for v in result.vertices]
    assert points.count(apex) == 1
    cones = result.triangulation.cones_by_vertex[points.index(apex)]
    assert len(cones) == 2
    # The two cones tile the apex normal cone: dets sum over the split.
    assert all(len(c) == 3 for c in cones)


def test_degenerate_family_matches_oracle():
    for build in DEGENERATE_FAMILY:
        p = build()
        result = run_enumeration(p)
        oracle = enumerate_all_bases_oracle(p)
        assert vertex_points(result) == oracle.vertex_points()
        got_tight = {v.point: v.tight for v in result.vertices}
        want_tight = {v.point: v.tight for v in oracle.vertices}
        assert got_tight == want_tight


def test_each_basis_is_pushed_once(fuzz_corpus, monkeypatch):
    """The heap gets one push per basis visited: no basis waits twice."""
    pushes = []

    def push(heap, rows):
        pushes.append(rows)
        heapq.heappush(heap, rows)

    monkeypatch.setattr(hull, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
    for p in fuzz_corpus + [build() for build in DEGENERATE_FAMILY]:
        pushes.clear()
        result = run_enumeration(p)
        assert len(pushes) == len(set(pushes)) == result.counters.bases_visited, p.name


def assert_recorded_dets_match_fresh_ones(p, result):
    """Every cone's |det| that the enumeration kept equals a fresh
    determinant, and so do the FanStats figures built from them. Every
    visited basis, cones and zero-step bases alike, keeps a (det, adj) pair
    with adj @ M_C = det * I and det = |det M_C| > 0."""
    t = result.triangulation
    for c in t.cones:
        assert t.dets[c] == abs(det_exact(submatrix(p, c))) > 0
    assert t.adjugates.keys() == t.dets.keys()
    for rows, adj in t.adjugates.items():
        det, cols = t.dets[rows], list(zip(*submatrix(p, rows)))
        assert det > 0
        assert [[dot(line, col) for col in cols] for line in adj] == [
            [det * (j == k) for k in range(p.n)] for j in range(p.n)
        ]
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    assert cone_det_fractions(stats) == tuple(abs_det(p.ints, p.scales, c) for c in t.cones)


def test_recorded_cone_dets_match_fresh_ones_on_degenerate_family():
    for build in DEGENERATE_FAMILY:
        p = build()
        result = run_enumeration(p)
        # zero-step pivots visit bases of degenerate vertices beyond their cones
        assert set(result.triangulation.dets) > set(result.triangulation.cones)
        assert_recorded_dets_match_fresh_ones(p, result)


def test_recorded_cone_dets_match_fresh_ones_on_fuzz_corpus(corpus_analysis):
    for p, result, _ in corpus_analysis[:60]:
        assert_recorded_dets_match_fresh_ones(p, result)


def test_ratio_tests_pick_the_square_pivots():
    p = square()
    rows = (0, 1)  # vertex (1,1)
    basis = basis_adjugate(p, rows)
    x = rational_point([(1, 1), (1, 1)])
    found = pivots(p, rows, basis, x)
    assert len(found) == 2
    by_leaving = {leaving: (entering, step, u) for leaving, entering, step, u in found}
    entering, step, u = by_leaving[0]
    assert entering == 2
    assert step == 1
    assert u == [-1, 0]
    assert target_basis(rows, 0, entering) == (1, 2)
    entering, _, _ = by_leaving[1]
    assert entering == 3
    assert target_basis(rows, 1, entering) == (0, 3)


def test_ratio_tests_report_rays_on_unbounded_cone():
    p = make_polyhedron([[-1, 0], [0, -1]], [0, 0], name="quadrant")
    rows = (0, 1)
    basis = basis_adjugate(p, rows)
    found = pivots(p, rows, basis, rational_point([(0, 1), (0, 1)]))
    assert all(entering is None and step is None for _, entering, step, _ in found)
    assert {tuple(u) for _, _, _, u in found} == {(1, 0), (0, 1)}


def test_ratio_work_charge_per_basis_is_bounded():
    p = cube()
    n, m = p.n, p.m
    basis = basis_adjugate(p, (0, 1, 2))
    pt = rational_point([(1, 1)] * 3)
    mults = sum(n * (m - n + ratio_test(p, pt, edge(basis, pos))[2]) for pos in range(n))
    assert 0 < mults <= 2 * n * n * m
    counters = run_enumeration(p).counters
    assert counters.ratio_mults > 0
    assert counters.max_basis_mults <= 2 * n * n * m


def test_enumeration_collects_rays_of_unbounded_polyhedra():
    p = make_polyhedron([[-1, 0], [0, -1], [-1, -1]], [0, 0, 0], name="quadrant+")
    result = run_enumeration(p)
    assert not result.bounded
    assert len(result.vertices) == 1
    directions = {d for _, d in result.rays}
    assert directions == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}


def test_bounded_polytopes_have_no_rays():
    for build in (square, cube, octahedron):
        assert run_enumeration(build()).rays == []


def test_triangulate_normal_cone_simple_vertex_is_single_cone():
    p = square()
    assert triangulate_normal_cone(p, (0, 1)) == [(0, 1)]


def test_triangulate_normal_cone_square_cone_example():
    # Four generators in cyclic order around a 3-dimensional cone; the walk
    # inserts them by index and splits along the first/third generator wall.
    p = make_polyhedron(
        [[0, 0, -1], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
        [0, 1, 1, 1, 1],
        name="cyclic-pyramid",
    )
    cones = triangulate_normal_cone(p, (1, 2, 3, 4))
    assert cones == [(1, 2, 3), (1, 3, 4)]


def test_triangulate_normal_cone_collinear_middle_generator():
    # Middle generator on the segment between the outer two: two cones whose
    # determinants add up exactly to the determinant of the extreme pair.
    p = make_polyhedron(
        [[1, 0], ["1/2", "1/2"], [0, 1], [-1, 0], [0, -1]],
        [2, 2, 2, 0, 0],
        name="clipped-corner",
    )
    cones = triangulate_normal_cone(p, (0, 1, 2))
    assert cones == [(0, 1), (1, 2)]

    def input_det(rows):
        # submatrix gives the integer rows; divide out their scales.
        d = abs(det_exact(submatrix(p, rows)))
        return Fraction(d) / (p.scales[rows[0]] * p.scales[rows[1]])

    total = input_det((0, 2))
    parts = sum(input_det(c) for c in cones)
    assert parts == total == 1


def test_triangulate_normal_cone_rejects_rank_deficient_sets():
    p = square()
    with pytest.raises(ValueError):
        triangulate_normal_cone(p, (0,))


def assert_walk_cones_match_the_oracle(p, result) -> int:
    """At every degenerate vertex, the walk's cones are the placing oracle's
    in its order, each visited with a fresh (det, adj); returns how many
    vertices were checked."""
    tri = result.triangulation
    degenerate = [k for k, v in enumerate(result.vertices) if not v.simple]
    for k in degenerate:
        tight = result.vertices[k].tight
        cones = triangulate_normal_cone(p, tight)
        assert tri.cones_by_vertex[k] == cones, (p.name, tight)
        assert set(cones) <= tri.dets.keys(), p.name
        pairs = [(tri.dets[c], tri.adjugates[c]) for c in cones]
        assert pairs == [basis_adjugate(p, c) for c in cones], p.name
    return len(degenerate)


def test_walk_cones_match_the_placing_oracle_on_corpora(corpus_analysis):
    cases = [(p, result) for p, result, _ in corpus_analysis]
    builds = [*DEGENERATE_FAMILY, lambda: cross_polytope(3), lambda: cross_polytope(4)]
    cases += [(p, run_enumeration(p)) for p in (build() for build in builds)]
    checked = sum(assert_walk_cones_match_the_oracle(p, result) for p, result in cases)
    assert checked == 29  # 7 in the fuzz corpus, 8, 6 and 8 in the polytopes


@st.composite
def degenerate_systems(draw):
    """n <= 4 and up to 8 rows with entries in {-1, 0, 1}, b in {0, 1, 2}:
    many rows pass through each vertex."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 8))
    unit = st.integers(-1, 1)
    rows = draw(st.lists(st.lists(unit, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(degenerate_systems())
def test_walk_cones_match_the_placing_oracle_on_small_systems(system):
    try:
        p = make_polyhedron(*system)
    except (DimensionMismatch, DuplicateRow, NotPointed):
        assume(False)
    result = run_enumeration(p)
    assert_walk_cones_match_the_oracle(p, result)
    if result.bounded:
        assert fan_certificate(p, result) == result.edges


def certified_cases(corpus_analysis, bench_duals):
    """The bounded fuzz instances, DEGENERATE_FAMILY, cross3/4, cube3/4 and
    both bench duals, each with its enumeration."""
    cases = [(p, result) for p, result, _ in corpus_analysis if result.bounded]
    polytopes = [build() for build in DEGENERATE_FAMILY]
    polytopes += [cross_polytope(3), cross_polytope(4), cube(3), cube(4)]
    cases += [(p, run_enumeration(p)) for p in polytopes]
    return cases + list(bench_duals.values())


def test_fan_certificate_gives_the_walk_edges(corpus_analysis, bench_duals):
    cases = certified_cases(corpus_analysis, bench_duals)
    for p, result in cases:
        assert fan_certificate(p, result) == result.edges, p.name
    assert len(cases) == 63  # 54 fuzz instances, 3 + 2 + 2 polytopes, 2 duals


def mutated(result, cones_by_vertex):
    return SimpleNamespace(
        vertices=result.vertices,
        triangulation=SimpleNamespace(cones_by_vertex=cones_by_vertex),
    )


def test_fan_certificate_fails_on_each_mutation(corpus_analysis, bench_duals):
    failed = 0
    for p, result in certified_cases(corpus_analysis, bench_duals):
        groups = result.triangulation.cones_by_vertex
        # The last vertex's cones dropped leave their ridges in one cone.
        with pytest.raises(AssertionError, match="lies in 1 cones"):
            fan_certificate(p, mutated(result, groups[:-1] + [[]]))
        # A cone row swapped for the first row not tight at its vertex.
        v = result.vertices[0]
        loose = next(i for i in range(p.m) if i not in v.tight)
        first = tuple(sorted(groups[0][0][1:] + (loose,)))
        with pytest.raises(AssertionError, match="is not tight"):
            fan_certificate(p, mutated(result, [[first, *groups[0][1:]], *groups[1:]]))
        failed += 2
        # One cone dropped at each degenerate vertex.
        for k, v in enumerate(result.vertices):
            if not v.simple:
                fewer = [g[1:] if j == k else g for j, g in enumerate(groups)]
                with pytest.raises(AssertionError):
                    fan_certificate(p, mutated(result, fewer))
                failed += 1
    assert failed == 63 * 2 + 25  # 25 degenerate vertices


def test_the_walk_builds_no_fraction_at_degenerate_vertices():
    for p in [build() for build in DEGENERATE_FAMILY] + [cross_polytope(4)]:
        start = phase_one(p)
        with fractions_built() as built:
            result = enumerate_vertices(p, start)
        assert not all(v.simple for v in result.vertices), p.name
        assert built == [], p.name


def test_enumerate_vertices_walks_from_an_interior_start():
    """The centre of the square is no vertex: the walk ray-casts it to one."""
    p = square()
    result = enumerate_vertices(p, rational_point([(1, 2), (1, 2)]))
    assert vertex_points(result) == vertex_points(run_enumeration(p))
    assert len(result.vertices) == 4


def test_enumeration_is_deterministic():
    p = octahedron()
    first = run_enumeration(p)
    second = run_enumeration(p)
    assert [v.point for v in first.vertices] == [v.point for v in second.vertices]
    assert first.triangulation.cones == second.triangulation.cones
    assert first.edges == second.edges


def test_pivot_edges_separate_moves_from_degenerate_stays():
    p = square_pyramid()
    result = run_enumeration(p)
    apex = (Fraction(0), Fraction(0), Fraction(1))
    stays_at_apex = 0
    for v, cones in zip(result.vertices, result.triangulation.cones_by_vertex):
        x = rational_point(pairs(v.point))
        for rows in cones:
            basis = basis_adjugate(p, rows)
            for leaving, entering, step, _ in pivots(p, rows, basis, x):
                reached = tuple(basis_vertex(p, target_basis(rows, leaving, entering)))
                if step > 0:
                    assert reached != v.point
                else:
                    assert reached == v.point
                    stays_at_apex += v.point == apex
    assert stays_at_apex > 0
    assert all(a != b for a, b in result.edges)


def test_oracle_counts_on_simple_examples():
    p = cube()
    oracle = enumerate_all_bases_oracle(p)
    assert len(oracle.vertices) == 8
    assert len(oracle.feasible_bases) == 8
    p = square_pyramid()
    oracle = enumerate_all_bases_oracle(p)
    assert len(oracle.vertices) == 5
    # Apex carries C(4,3) = 4 feasible bases, each base vertex one.
    assert len(oracle.feasible_bases) == 8


def test_oracle_budget_guard():
    from deltahull.errors import BudgetExceeded

    p = cross_polytope(4)
    with pytest.raises(BudgetExceeded):
        enumerate_all_bases_oracle(p, budget=10)


def test_enumeration_matches_oracle_on_random_instances():
    rng = random.Random(4301)
    done = 0
    while done < 25:
        n = rng.choice([2, 3])
        m = rng.randint(n + 1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        try:
            p = make_polyhedron(rows, rhs)
            result = run_enumeration(p)
        except Exception:
            continue
        oracle = enumerate_all_bases_oracle(p)
        assert vertex_points(result) == oracle.vertex_points()
        done += 1


def test_visited_bases_equals_cone_count_on_simple_polytopes():
    from conftest import standard_simplex

    for build in (square, cube, lambda: standard_simplex(3)):
        result = run_enumeration(build())
        assert all(v.simple for v in result.vertices)
        assert result.counters.bases_visited == len(result.triangulation.cones)


def test_degenerate_polytopes_may_visit_extra_bases():
    # Each octahedron vertex has four tight rows, so all four bases per
    # vertex get visited while the triangulation keeps only two cones each.
    result = run_enumeration(octahedron())
    assert result.counters.bases_visited == 24
    assert len(result.triangulation.cones) == 12


# Each edge's ratio test runs once from a simple end; the work counters still
# charge both ends, as a fresh test at every visited basis would.


def assert_work_and_closure(p, result):
    """Every vertex record is in lowest terms, den > 0, with the tight set of
    its point; the counters equal fresh ratio tests at every visited basis,
    and every pivot out of a visited basis, skipped or not, lands on a
    visited basis."""
    for v in result.vertices:
        pt = scaled_point(v.num, v.den)
        assert v.den > 0 and (pt.num, pt.den) == (v.num, v.den), p.name
        assert model.tight_set(p, pt) == v.tight, p.name
    c = result.counters
    visited = result.triangulation.dets
    assert c.bases_visited == len(visited), p.name
    assert ratio_work(p, result) == (c.ratio_mults, c.max_basis_mults), p.name
    for rows in visited:
        basis = basis_adjugate(p, rows)
        pt = scaled_point(*basis_solution(p, rows, basis))
        for leaving, entering, _, _ in pivots(p, rows, basis, pt):
            if entering is not None:
                assert target_basis(rows, leaving, entering) in visited, p.name


def test_ratio_work_matches_fresh_ratio_tests_on_corpora(corpus_analysis, bench_duals):
    cases = [(p, result) for p, result, _ in corpus_analysis] + list(bench_duals.values())
    cases += [(p, run_enumeration(p)) for p in (build() for build in DEGENERATE_FAMILY)]
    assert len(cases) == 205
    for p, result in cases:
        assert_work_and_closure(p, result)


def test_the_walk_neither_solves_nor_rescans_a_vertex(bench_duals, monkeypatch):
    """Kernel calls per enumeration of the simple benchmark duals: no basis
    solve, one tight-set scan (the ray cast's start), and one step, slack
    vector and far tight set per ray-cast move and per vertex past the
    start. Every move ends where its ratio test says, and the walk starts
    from the Point the ray cast returns, so a walk that re-solved or
    rescanned a vertex, rebuilt the start or built the tight set of a vertex
    it had already seen would fail."""
    calls = Counter()

    def counting(name):
        core = getattr(model, name)

        def counted(*args):
            calls[name] += 1
            return core(*args)

        return counted

    kernels = ("scaled_point", "step_point", "step_tight")
    for name in ("basis_solution", "tight_set") + kernels:
        monkeypatch.setattr(model, name, counting(name))
    for p, reference in bench_duals.values():
        start = rational_point([(0, 1)] * p.n)
        calls.clear()
        model.find_initial_vertex(p, start)
        moves = calls["scaled_point"]
        assert 0 < moves <= p.n, p.name
        assert calls == {"tight_set": 1, **dict.fromkeys(kernels, moves)}, p.name
        calls.clear()
        result = enumerate_vertices(p, start)
        assert all(v.simple for v in result.vertices), p.name
        assert result.vertices == reference.vertices, p.name
        each = moves + len(result.vertices) - 1
        assert calls == {"tight_set": 1, **dict.fromkeys(kernels, each)}, p.name


def test_only_the_start_reads_every_slack(bench_duals, monkeypatch):
    """An enumeration of a simple polytope calls model.slacks with all m
    rows once, in the tight set of the ray cast's start; every ratio test
    reads the slacks of its rows of positive rate alone."""
    core_slacks, core_tight_set = model.slacks, model.tight_set
    calls, scanning = [], []

    def slacks(p, pt, rows):
        calls.append((len(rows), bool(scanning)))
        return core_slacks(p, pt, rows)

    def tight_set(p, pt):
        scanning.append(pt)
        try:
            return core_tight_set(p, pt)
        finally:
            scanning.pop()

    monkeypatch.setattr(model, "slacks", slacks)
    monkeypatch.setattr(model, "tight_set", tight_set)
    dual = bench_duals["dual-n2k5"][0]
    for p, x in ((dual, [(0, 1)] * 2), (cube(), [(1, 2)] * 3)):
        calls.clear()
        result = enumerate_vertices(p, rational_point(x))
        assert all(v.simple for v in result.vertices), p.name
        assert calls[0] == (p.m, True), p.name
        assert all(rows < p.m and not scan for rows, scan in calls[1:]), p.name
        assert len(calls) > len(result.vertices), p.name


def ratio_tests_run(p, v0):
    """The enumeration from the vertex v0 and the number of ratio tests it
    ran; the ray cast from a vertex runs none."""
    core, calls = model.min_ratio, []

    def counted(*args):
        calls.append(None)
        return core(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "min_ratio", counted)
        result = enumerate_vertices(p, scaled_point(v0.num, v0.den))
    return result, len(calls)


def test_each_edge_out_of_a_simple_vertex_is_tested_once(corpus_analysis, bench_duals):
    # The octahedron's vertices are all degenerate: nothing is skipped there.
    # Testing every edge from both ends ran 8, 24, 24, 72, 192 and 320.
    cases = [(p, run_enumeration(p)) for p in (square(), cube(), square_pyramid(), octahedron())]
    runs = []
    for p, reference in cases + list(bench_duals.values()):
        result, tests = ratio_tests_run(p, reference.vertices[0])
        assert result.counters == reference.counters, p.name
        runs.append(tests)
    assert runs == [4, 12, 12, 72, 96, 160]
    # All simple and bounded: n tests per basis, less one per edge.
    simple = 0
    for p, reference, _ in corpus_analysis:
        if reference.bounded and all(v.simple for v in reference.vertices):
            simple += 1
            result, tests = ratio_tests_run(p, reference.vertices[0])
            assert tests == p.n * result.counters.bases_visited - len(result.edges), p.name
    assert simple >= 50


small = st.integers(-2, 2)


@st.composite
def small_systems(draw):
    """n in {2, 3}, m <= 8 rows with entries in [-2, 2]. Each row's slack at
    a lattice point c is drawn from {0, 0, 1, 2}: c is feasible and about
    half the rows pass through it, so degenerate vertices are common."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, 8))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))
    c = draw(st.lists(small, min_size=n, max_size=n))
    slack = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=m, max_size=m))
    return rows, [dot(a, c) + s for a, s in zip(rows, slack)]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(small_systems())
def test_enumeration_matches_its_oracles_on_small_systems(system):
    try:
        p = make_polyhedron(*system)
        x0 = pairs(phase_one(p).x)
    except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
        assume(False)
    result = run_enumeration(p, x0)
    oracle = enumerate_all_bases_oracle(p)
    got = {v.point: v.tight for v in result.vertices}
    assert got == {v.point: v.tight for v in oracle.vertices}
    assert result.edges == rank_test_edges(p, result)
    assert_work_and_closure(p, result)


@st.composite
def combined_systems(draw):
    """A boxed simple polytope, n in {2, 3}, and for one vertex v with tight
    rows B, one to three distinct positive integer combinations of two or
    more rows of B, each tight at v. v turns degenerate, and a combination
    of rows that stay tight along an edge out of v has zero rate along it:
    the far end keeps it in its tight set and is degenerate too."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    for j in range(n):
        for sign in (1, -1):
            rows.append([sign * (t == j) for t in range(n)])
            b.append(3)
    try:
        simple = enumerate_all_bases_oracle(make_polyhedron(rows, b))
    except (DimensionMismatch, DuplicateRow):
        assume(False)
    assume(all(v.simple for v in simple.vertices))
    tight = draw(st.sampled_from(simple.vertices)).tight
    for _ in range(draw(st.integers(1, 3))):
        subset = draw(st.lists(st.sampled_from(tight), min_size=2, max_size=n, unique=True))
        coef = draw(st.lists(st.integers(1, 3), min_size=len(subset), max_size=len(subset)))
        rows.append([sum(c * rows[i][t] for c, i in zip(coef, subset)) for t in range(n)])
        b.append(sum(c * b[i] for c, i in zip(coef, subset)))
    try:
        return make_polyhedron(rows, b)
    except DuplicateRow:  # two combinations coincide up to scaling
        assume(False)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(combined_systems())
def test_far_tight_sets_keep_the_zero_rate_rows_of_degenerate_vertices(p):
    """The walk reads each far tight set off the ratio test: the near tight
    rows of zero rate plus the blocking rows. assert_work_and_closure holds
    every tight set to a fresh scan of the slacks and the work counters to a
    replay; the vertices must be the basis oracle's."""
    result = run_enumeration(p)
    assert not all(v.simple for v in result.vertices)
    assert vertex_points(result) == enumerate_all_bases_oracle(p).vertex_points()
    assert_work_and_closure(p, result)


# Redundancy read off the enumeration, against the rank-per-row oracle and
# the LP scan.

def lp_redundant(p, x0=None):
    return redundancy_scan(p, phase_one(p) if x0 is None else rational_point(x0))


def padded(p, row, rhs):
    return make_polyhedron([*a_of(p), row], [*b_of(p), rhs], name=p.name)


def loosened_copy(p):
    """p plus twice its row 0 with a larger right-hand side: never tight."""
    return padded(p, [2 * x for x in a_of(p)[0]], 2 * b_of(p)[0] + 1)


def tangent_row(p, result):
    """p plus the sum of the rows tight at its first vertex, through that
    vertex: the row lies in the interior of the vertex's normal cone, so its
    face is the vertex alone. None if the sum duplicates a row."""
    v = result.vertices[0]
    row = [sum(p.ints[i][j] for i in v.tight) for j in range(p.n)]
    try:
        return padded(p, row, sum(x * y for x, y in zip(row, v.point)))
    except DuplicateRow:
        return None


def test_redundant_rows_fixed_cases():
    # x + y <= 2 touches the square only at (1,1): tight at a vertex, no facet.
    p = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 2])
    result = run_enumeration(p)
    assert redundant_rows(p, result) == [4] == rank_redundant_rows(p, result)
    assert redundant_rows(square(), run_enumeration(square())) == []
    # The quadrant plus x + y >= 0: a degenerate origin with three tight rows;
    # the rays (1,0) and (0,1) keep rows 0 and 1, none lies on x + y = 0.
    quadrant = make_polyhedron([[-1, 0], [0, -1], [-1, -1]], [0, 0, 0])
    result = run_enumeration(quadrant)
    assert not result.bounded and not result.vertices[0].simple
    assert redundant_rows(quadrant, result) == [2] == lp_redundant(quadrant)
    # The segment [0,1] x {0} is flat: the rank test does not apply, and the
    # LP scan, run from the first vertex, decides.
    flat = make_polyhedron([[0, 1], [0, -1], [1, 0], [1, 1], [-1, 0]], [0, 0, 1, 1, 0])
    result = run_enumeration(flat)
    assert rank_redundant_rows(flat, result) is None
    assert redundant_rows(flat, result) == lp_redundant(flat)


@pytest.mark.parametrize(
    "system,want",
    [
        (octahedron(), []),
        (make_polyhedron([[-1, 0], [0, -1], [-1, -1]], [0, 0, 0], name="quadrant"), [2]),
    ],
    ids=["octahedron", "quadrant"],
)
def test_redundant_rows_at_degenerate_vertices_take_the_rank_path(system, want, monkeypatch):
    """No vertex is simple, so the full-dimension test and every row's face
    take one rank each, as in the oracle."""
    result = run_enumeration(system)
    assert not any(v.simple for v in result.vertices)
    calls, span_rank = [], hull._span_rank
    monkeypatch.setattr(hull, "_span_rank", lambda *args: calls.append(args) or span_rank(*args))
    assert redundant_rows(system, result) == want
    assert len(calls) == 1 + system.m
    assert rank_redundant_rows(system, result) == want == lp_redundant(system)


def test_redundant_rows_match_the_oracles_on_the_degenerate_family():
    for make in DEGENERATE_FAMILY:
        p = make()
        result = run_enumeration(p)
        want = lp_redundant(p)
        assert redundant_rows(p, result) == rank_redundant_rows(p, result) == want, p.name


def test_redundant_rows_match_lp_scan_on_fuzz_corpus(corpus_analysis):
    for p, result, _ in corpus_analysis:
        want = lp_redundant(p)
        assert redundant_rows(p, result) == rank_redundant_rows(p, result) == want, p.name


@pytest.mark.parametrize("name", ["dual-n2k5", "dual-n4k2"])
def test_redundant_rows_match_lp_scan_on_bench_duals(name, bench_duals, monkeypatch):
    """Every vertex of the duals is simple: their redundant rows take no rank."""
    doc = load_instance_path(str(BENCH_DATA / f"{name}.instance.json"))
    p, result = bench_duals[name]
    assert all(v.simple for v in result.vertices)
    want = lp_redundant(p, doc.feasible_point)
    assert rank_redundant_rows(p, result) == want

    def no_rank(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(hull, "_span_rank", no_rank)
    monkeypatch.setattr(linalg, "rank_of", no_rank)
    assert redundant_rows(p, result) == want


def test_redundant_rows_match_lp_scan_on_padded_corpus(corpus_analysis):
    tangent = 0
    for p, result, _ in corpus_analysis[:60]:
        loose = loosened_copy(p)
        want = lp_redundant(loose)
        assert p.m in want
        enumeration = run_enumeration(loose)
        assert redundant_rows(loose, enumeration) == want, p.name
        assert rank_redundant_rows(loose, enumeration) == want, p.name
        touching = tangent_row(p, result)
        if touching is None:
            continue
        tangent += 1
        enumeration = run_enumeration(touching)
        assert any(p.m in v.tight for v in enumeration.vertices)
        want = lp_redundant(touching)
        assert p.m in want
        assert redundant_rows(touching, enumeration) == want, p.name
        assert rank_redundant_rows(touching, enumeration) == want, p.name
    assert tangent >= 50


entries = st.integers(-4, 4)


@st.composite
def systems(draw):
    """A small system, sometimes boxed in, sometimes with an extra row: a
    loosened copy of row 0, or its reverse, which makes row 0 an equality;
    then a row permutation."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entries, min_size=m, max_size=m))
    if draw(st.booleans()):
        for j in range(n):
            for sign in (1, -1):
                rows.append([sign * (t == j) for t in range(n)])
                b.append(5)
    extra = draw(st.sampled_from(["none", "loose", "reverse"]))
    if extra == "loose":
        rows.append([2 * x for x in rows[0]])
        b.append(2 * b[0] + 1)
    elif extra == "reverse":
        rows.append([-x for x in rows[0]])
        b.append(-b[0])
    order = draw(st.permutations(range(len(rows))))
    return rows, b, order


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_redundant_rows_follow_a_row_permutation(system):
    rows, b, order = system
    try:
        p = make_polyhedron(rows, b)
        x0 = pairs(phase_one(p).x)
    except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
        assume(False)
    q = make_polyhedron([rows[i] for i in order], [b[i] for i in order])
    result = run_enumeration(p, x0)
    got = redundant_rows(p, result)
    permuted = redundant_rows(q, run_enumeration(q, x0))
    assert got == redundancy_scan(p, rational_point(x0))
    if rank_redundant_rows(p, result) is None:
        # Implicit equalities: which rows of an equal pair go depends on the
        # row order, so each order has its own LP scan.
        assert permuted == redundancy_scan(q, rational_point(x0))
        return
    assert got == rank_redundant_rows(p, result)
    assert permuted == sorted(k for k, i in enumerate(order) if i in got)


def skeleton(result):
    """The vertex set, the ray set and the edges as pairs of points."""
    points = [v.point for v in result.vertices]
    edges = {frozenset((points[a], points[b])) for a, b in result.edges}
    return set(points), {d for _, d in result.rays}, edges


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_skeleton_follows_a_row_permutation(system):
    rows, b, order = system
    try:
        p = make_polyhedron(rows, b)
        x0 = pairs(phase_one(p).x)
    except (DimensionMismatch, DuplicateRow, NotPointed, Infeasible):
        assume(False)
    q = make_polyhedron([rows[i] for i in order], [b[i] for i in order])
    assert skeleton(run_enumeration(q, x0)) == skeleton(run_enumeration(p, x0))


def shears(n, moves):
    """U = S_1 ... S_r for the integer shears S = I + k e_i e_j^T, and U^-1."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    inv = [row[:] for row in u]
    for i, j, k in moves:
        for row in u:  # U S adds k times column i to column j
            row[j] += k * row[i]
        inv[i] = [x - k * y for x, y in zip(inv[i], inv[j])]  # S^-1 U^-1
    return u, inv


def mapped(matrix, x) -> tuple:
    return tuple(dot(row, x) for row in matrix)


def invariants(p):
    """The skeleton, the ray count, redundant_rows, Delta, Delta_avg, Delta_min
    and the cone count of p."""
    result = run_enumeration(p)
    t = result.triangulation
    fan = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    figures = (fan.delta, fan.delta_avg, fan.delta_min, fan.cone_count)
    return skeleton(result), len(result.rays), redundant_rows(p, result), figures


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_unimodular_change_of_coordinates(fuzz_corpus, data):
    """y = U^-1 x maps the vertices, rays and edges of A x <= b onto those of
    A U y <= b, and leaves redundant_rows, the ray count, Delta, Delta_avg,
    Delta_min and the cone count unchanged: the rows' determinants only change
    sign, and the placing triangulation reads linear-invariant signs alone.
    Sets, not orders: the ray cast moves along coordinate axes."""
    cases = fuzz_corpus + [build() for build in DEGENERATE_FAMILY] + [cube(), cross_polytope(4)]
    p = data.draw(st.sampled_from(cases))
    axis = st.integers(0, p.n - 1)
    moves = data.draw(
        st.lists(
            st.tuples(axis, axis, st.integers(-2, 2)).filter(lambda s: s[0] != s[1]),
            min_size=1,
            max_size=4,
        )
    )
    u, inv = shears(p.n, moves)
    rows = [[dot(row, column) for column in zip(*u)] for row in a_of(p)]
    q = make_polyhedron(rows, b_of(p), name=f"{p.name}-sheared")
    (points, directions, edges), *rest = invariants(p)
    moved = (
        {mapped(inv, x) for x in points},
        {mapped(inv, d) for d in directions},
        {frozenset(mapped(inv, x) for x in edge) for edge in edges},
    )
    assert invariants(q) == (moved, *rest), p.name


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_row_permutation_invariants(fuzz_corpus, data):
    """Permuting the rows leaves the skeleton, the ray count and Delta
    unchanged and maps redundant_rows through the permutation. When every
    vertex is simple the cones are the tight sets, so Delta_avg, Delta_min
    and the cone count stay too; at a degenerate vertex they need not, as
    the placing triangulation inserts rows in index order."""
    cases = fuzz_corpus + [build() for build in DEGENERATE_FAMILY] + [cube(), cross_polytope(4)]
    p = data.draw(st.sampled_from(cases))
    order = data.draw(st.permutations(range(p.m)))
    a, b = a_of(p), b_of(p)
    q = make_polyhedron([a[i] for i in order], [b[i] for i in order], name=f"{p.name}-permuted")
    shape, rays, redundant, (delta, *figures) = invariants(p)
    q_shape, q_rays, q_redundant, (q_delta, *q_figures) = invariants(q)
    assert (q_shape, q_rays, q_delta) == (shape, rays, delta), p.name
    assert q_redundant == sorted(order.index(i) for i in redundant), p.name
    if all(v.simple for v in run_enumeration(p).vertices):
        assert q_figures == figures, p.name
