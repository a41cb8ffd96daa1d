"""Polytope skeletons, cone-fan adjacency graphs, exact diameters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltahull.errors import DisconnectedGraph
from deltahull.graphs import build_polytope_graph, graph_diameter
from deltahull.hull import run_enumeration
from deltahull.model import make_polyhedron
from deltahull.subdivision import build_subdivision_fans, expected_counts

from conftest import DEGENERATE_FAMILY, cube, octahedron, square, square_pyramid
from helpers import bfs_diameter, build_fan_graph, rank_test_edges, to_matrix


def graph_edges(g):
    return {(min(u, v), max(u, v)) for u in g for v in g[u]}


def test_square_skeleton_is_a_4_cycle():
    p = square()
    result = run_enumeration(p)
    g = build_polytope_graph(result)
    assert len(g) == 4
    assert len(result.edges) == 4
    assert all(len(g[v]) == 2 for v in g)
    assert graph_diameter(g) == 2


def test_cube_skeleton():
    p = cube()
    result = run_enumeration(p)
    g = build_polytope_graph(result)
    assert len(g) == 8
    assert len(result.edges) == 12
    assert all(len(g[v]) == 3 for v in g)
    assert graph_diameter(g) == 3


def test_pyramid_skeleton_degrees():
    p = square_pyramid()
    result = run_enumeration(p)
    g = build_polytope_graph(result)
    assert sorted(len(g[v]) for v in g) == [3, 3, 3, 3, 4]
    assert graph_diameter(g) == 2


def test_octahedron_skeleton():
    p = octahedron()
    result = run_enumeration(p)
    g = build_polytope_graph(result)
    assert len(g) == 6
    assert len(result.edges) == 12
    assert all(len(g[v]) == 4 for v in g)
    assert graph_diameter(g) == 2


def test_polytope_graph_agrees_with_rank_characterization(corpus_analysis, bench_duals):
    # The degenerate family first: there several bases map to one vertex.
    cases = [(p, run_enumeration(p)) for p in (build() for build in DEGENERATE_FAMILY)]
    rng = random.Random(4501)
    while len(cases) < len(DEGENERATE_FAMILY) + 20:
        n = rng.choice([2, 3])
        m = rng.randint(n + 1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        try:
            p = make_polyhedron(rows, rhs)
            result = run_enumeration(p)
        except Exception:
            continue
        if len(result.vertices) >= 2:
            cases.append((p, result))
    # Most edges of these leave a simple vertex, so their ratio test runs at
    # that end only: the far end's skipped test must lose no edge.
    cases += [(p, result) for p, result, _ in corpus_analysis]
    cases += bench_duals.values()
    assert len(cases) == 225
    for p, result in cases:
        g = build_polytope_graph(result)
        assert graph_edges(g) == rank_test_edges(p, result), p.name
        # The report lists each node's neighbours as built, so they must
        # come out strictly increasing.
        assert all(vs == sorted(set(vs)) for vs in g.values()), p.name


def test_base_fan_graph_is_complete():
    for n in (2, 3, 4):
        fan = build_subdivision_fans(n, 0)[0]
        g = build_fan_graph(fan.cones, fan.generators())
        k = len(fan.cones)
        assert k == n + 1
        assert len(graph_edges(g)) == k * (k - 1) // 2
        assert graph_diameter(g) == 1


def test_depth_one_fan_graph_n2_is_a_hexagon_cycle():
    fan = build_subdivision_fans(2, 1)[1]
    g = build_fan_graph(fan.cones, fan.generators())
    assert len(g) == 6
    assert all(len(g[v]) == 2 for v in g)
    assert graph_diameter(g) == 3


def test_planar_fan_graphs_are_cycles():
    # The n=2 closed form in expected_counts rests on every planar fan graph
    # being one cycle through all 3*2^k sectors.
    for k, fan in enumerate(build_subdivision_fans(2, 4)):
        g = build_fan_graph(fan.cones, fan.generators())
        assert len(g) == 3 * 2**k
        assert all(len(g[v]) == 2 for v in g)
        # graph_diameter raises DisconnectedGraph unless the graph is connected.
        assert graph_diameter(g) == expected_counts(2, k)["diameter"]


def test_fan_graph_requires_opposite_sides():
    # Two cones sharing a wall but lying on the same side of it must not be
    # joined: {(1,0),(0,1)} and {(1,0),(1,1)} overlap instead of touching.
    gens = to_matrix([[1, 0], [0, 1], [1, 1]])
    g = build_fan_graph([(0, 1), (0, 2)], gens)
    assert len(graph_edges(g)) == 0


def test_fan_graph_counts_on_deeper_subdivisions():
    fans = build_subdivision_fans(3, 2)
    fan = fans[2]
    g = build_fan_graph(fan.cones, fan.generators())
    assert len(g) == 36
    assert graph_diameter(g) == 7


def test_graph_diameter_paths_and_disconnection():
    g = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    assert graph_diameter(g) == 3
    lonely = {0: [1], 1: [0], 2: [3], 3: [2]}
    with pytest.raises(DisconnectedGraph):
        graph_diameter(lonely)


def test_single_node_graph_has_zero_diameter():
    g = {0: []}
    assert graph_diameter(g) == 0


def test_unbounded_polyhedron_graph_still_connected():
    p = make_polyhedron(
        [[-1, 0], [0, -1], [1, -1], [-1, 1]], [0, 0, 1, 1], name="staircase-strip"
    )
    result = run_enumeration(p)
    assert not result.bounded
    g = build_polytope_graph(result)
    assert len(g) == len(result.vertices)
    graph_diameter(g)  # must not raise DisconnectedGraph


def diameter_or_error(diameter, g):
    try:
        return diameter(g)
    except DisconnectedGraph as exc:
        return str(exc)


@st.composite
def random_graphs(draw):
    """A graph on distinct, non-contiguous node ids, connected when a drawn
    spanning tree is laid first, plus random extra edges."""
    nodes = draw(st.lists(st.integers(-40, 400), min_size=1, max_size=14, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    if draw(st.booleans()):
        edges += [(nodes[draw(st.integers(0, k - 1))], nodes[k]) for k in range(1, len(nodes))]
    g = {v: set() for v in nodes}
    for u, v in edges:
        g[u].add(v)
        g[v].add(u)
    return {v: sorted(vs) for v, vs in g.items()}


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_bitset_diameter_matches_bfs_on_random_graphs(g):
    """The same diameter, or DisconnectedGraph with the same text: "<k> of
    <V> nodes reachable from <lowest node>"."""
    assert diameter_or_error(graph_diameter, g) == diameter_or_error(bfs_diameter, g)


def test_bitset_diameter_edge_cases_match_bfs():
    empty = {}
    assert diameter_or_error(graph_diameter, empty) == "empty graph"
    assert diameter_or_error(bfs_diameter, empty) == "empty graph"
    single = {7: []}
    assert graph_diameter(single) == bfs_diameter(single) == 0
    ids = [3 * k + 5 for k in range(240)]
    cycle = {v: sorted([ids[k - 1], ids[(k + 1) % 240]]) for k, v in enumerate(ids)}
    assert graph_diameter(cycle) == bfs_diameter(cycle) == 120
    split = {9: [12], 12: [9], 4: []}
    assert diameter_or_error(graph_diameter, split) == "1 of 3 nodes reachable from 4"
