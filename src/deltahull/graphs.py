"""Skeleton graphs of polytopes as adjacency dicts {node: ascending
neighbours}, with exact diameters by bit-parallel reach."""

from operator import or_

from .errors import DisconnectedGraph


def build_polytope_graph(result) -> dict[int, list[int]]:
    """Vertex-edge graph of the enumeration: each vertex's position in
    result.vertices with its neighbours. result.edges holds distinct pairs
    u < v, so taking them in sorted order appends every neighbour list in
    ascending order."""
    adjacency = {v: [] for v in range(len(result.vertices))}
    for u, v in sorted(result.edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def graph_diameter(adjacency: dict[int, list[int]]) -> int:
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
    nodes = sorted(adjacency)
    if not nodes:
        raise DisconnectedGraph("empty graph")
    order = sorted(nodes, key=lambda u: -len(adjacency[u]))
    position = {v: k for k, v in enumerate(order)}
    slots = [
        [position[adjacency[u][j]] for u in order if len(adjacency[u]) > j]
        for j in range(len(adjacency[order[0]]))
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
