"""Skeleton graphs of polytopes and cone fans, with exact diameters."""

from collections import deque
from dataclasses import dataclass, field

from . import linalg
from .errors import DisconnectedGraph
from .linalg import Mat, dot

Rows = tuple[int, ...]


@dataclass
class SkeletonGraph:
    """Undirected simple graph over integer node ids."""

    kind: str
    adjacency: dict[int, list[int]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            return
        if v not in self.adjacency.setdefault(u, []):
            self.adjacency[u].append(v)
        if u not in self.adjacency.setdefault(v, []):
            self.adjacency[v].append(u)

    def finalize(self) -> "SkeletonGraph":
        for node in self.adjacency:
            self.adjacency[node].sort()
        return self


def build_polytope_graph(result) -> SkeletonGraph:
    """Vertex-edge graph of the enumeration, one edge per positive-step pivot.

    Such a pivot keeps the basis less its leaving row tight, a rank n-1 set,
    and walks a positive length before the entering row blocks: the segment
    it crosses is an edge of the polyhedron between two distinct vertices.
    """
    g = SkeletonGraph(kind="polytope-graph")
    for v in result.vertices:
        g.adjacency.setdefault(v.index, [])
    owner = result.basis_owner
    for edge in result.pivot_edges:
        if not edge.ray and edge.step > 0:
            g.add_edge(owner[edge.from_basis], owner[edge.to_basis])
    return g.finalize()


def build_fan_graph(cones: list[Rows], generators: Mat) -> SkeletonGraph:
    """Cone adjacency: shared n-1 rays spanning a true common facet.

    generators[i] is the vector of ray i. Two cones are adjacent when they
    share exactly n-1 rays and their remaining rays lie strictly on opposite
    sides of the shared hyperplane (adjugate sign test on the integer rays,
    one adjugate per cone; positive ray scales keep every sign).
    """
    ints, _ = linalg.integer_rows(generators)
    adjugates = [linalg.adjugate([ints[r] for r in cone])[1] for cone in cones]
    g = SkeletonGraph(kind="fan-graph")
    for i in range(len(cones)):
        g.adjacency.setdefault(i, [])
    by_facet: dict[Rows, list[int]] = {}
    for ci, cone in enumerate(cones):
        for drop in cone:
            facet = tuple(r for r in cone if r != drop)
            by_facet.setdefault(facet, []).append(ci)
    for facet, owners in by_facet.items():
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                ci, cj = owners[a], owners[b]
                if _opposite_sides(cones[ci], cones[cj], facet, ints, adjugates[ci]):
                    g.add_edge(ci, cj)
    return g.finalize()


def _opposite_sides(cone_a: Rows, cone_b: Rows, facet: Rows, gens, adj) -> bool:
    ra = next(r for r in cone_a if r not in facet)
    rb = next(r for r in cone_b if r not in facet)
    pos = cone_a.index(ra)
    u = [line[pos] for line in adj]  # normal to the shared facet
    side_a = dot(gens[ra], u)  # equals det(cone_a), nonzero
    side_b = dot(gens[rb], u)
    return side_a * side_b < 0


def graph_diameter(g: SkeletonGraph) -> int:
    """Exact diameter via breadth-first search from every node."""
    nodes = g.nodes
    if not nodes:
        raise DisconnectedGraph("empty graph")
    diameter = 0
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) != len(nodes):
            raise DisconnectedGraph(
                f"{len(dist)} of {len(nodes)} nodes reachable from {source}"
            )
        diameter = max(diameter, max(dist.values()))
    return diameter
