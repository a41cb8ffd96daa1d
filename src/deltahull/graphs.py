"""Skeleton graphs of polytopes, with exact diameters by bit-parallel reach."""

from dataclasses import dataclass, field
from operator import or_

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
    """Exact diameter by bit-parallel reach.

    Each node starts with the reach set holding only itself, a Python-int
    bitset. Each round sets every node's set to its own OR its neighbours'
    sets, so after r rounds it holds the nodes within distance r; the
    diameter is the number of rounds until every set is full. A round that
    changes nothing before then means the graph is disconnected, reported
    from the lowest node as a breadth-first search from it would. Nodes are
    held in descending degree, so the j-th neighbours of the nodes of degree
    > j form a prefix and a round is one C-level OR map per neighbour slot:
    D rounds of E ORs.
    """
    nodes = g.nodes
    if not nodes:
        raise DisconnectedGraph("empty graph")
    order = sorted(nodes, key=lambda u: -len(g.adjacency[u]))
    position = {v: k for k, v in enumerate(order)}
    slots = [
        [position[g.adjacency[u][j]] for u in order if len(g.adjacency[u]) > j]
        for j in range(len(g.adjacency[order[0]]))
    ]
    reach = [1 << k for k in range(len(nodes))]
    full = (1 << len(nodes)) - 1
    rounds = 0
    while reach.count(full) < len(nodes):
        grown = reach[:]
        for slot in slots:
            grown[: len(slot)] = map(or_, grown, map(reach.__getitem__, slot))
        if grown == reach:
            lowest = reach[position[nodes[0]]]
            raise DisconnectedGraph(
                f"{lowest.bit_count()} of {len(nodes)} nodes reachable from {nodes[0]}"
            )
        reach = grown
        rounds += 1
    return rounds
