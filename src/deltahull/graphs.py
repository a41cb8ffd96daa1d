"""Skeleton graphs of polytopes, with exact diameters."""

from collections import deque
from dataclasses import dataclass, field

from .errors import DisconnectedGraph


@dataclass
class SkeletonGraph:
    """Undirected simple graph over integer node ids."""

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
    """Vertex-edge graph of the enumeration: its vertices and its edges."""
    g = SkeletonGraph()
    for v in result.vertices:
        g.adjacency.setdefault(v.index, [])
    for u, v in result.edges:
        g.add_edge(u, v)
    return g.finalize()


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
