"""Vertex enumeration by best-first search over feasible bases.

`enumerate_vertices` ray-casts a feasible Point to a vertex and searches
from there; `run_enumeration` gives it phase one's Point unless a point is
given. The nodes are feasible bases, each pushed once with the (det, adj)
of the pivot that reached it, the first being model.start_basis of the
start. A popped basis is a cone of its vertex's normal cone when the vertex
is simple or the basis is lexicographically feasible (_lex_feasible): the
cones form the placing triangulation in row index order, and the walk
reaches every one, as each lexicographic pivot is one of its pivots. One
loop walks the nodes: it pops a basis, held as (det, adj), and runs the
integer ratio test at each of its positions from its vertex's point;
positive steps cross edges of the polyhedron, zero steps move between
bases of the same vertex, and an empty ratio test marks an unbounded edge.
A move ends where its ratio test says (model.step_point, and
model.step_tight for a vertex not seen before), so no basis is solved and
no slack stored. Each edge's ratio test runs once
when one end is a simple vertex: the test back from the far end can only
return to the basis it came from, so that basis skips it and is charged the
hits it would have found. The (det, adj) pair of every basis popped is
kept, so the cone determinants and the cone distances of the wideness
certificate need no second elimination.
The result is the skeleton walked: vertices, vertex pairs joined by a
positive-step pivot, primitive integer rays; a vertex is named by its
position in the vertex list and held as an integer `VertexRecord`, so the
walk builds no Fraction. The redundant rows are read off the result. A row
tight at a simple vertex is a facet, since near that vertex the polyhedron
is the simplicial cone of its n tight rows, which also makes it
full-dimensional; any other row of a full-dimensional polyhedron is a facet
iff the vertices and rays on its hyperplane span dimension n - 1, one rank
each. Only a system with implicit equalities falls back to the LP scan.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from . import linalg, model
from .errors import BudgetExceeded, SingularMatrix
from .linalg import Basis, dot
from .model import HPolyhedron, Point, VertexRecord

Rows = tuple[int, ...]


@dataclass
class Triangulation:
    """Simplicial cones of the normal fan, grouped by owning vertex; `dets`
    holds the |det| of the integer rows of every basis visited, cones included,
    and `adjugates` the matching adjugate, adj @ ints[rows] = det * I."""

    cones_by_vertex: list[list[Rows]] = field(default_factory=list)
    dets: dict[Rows, int] = field(default_factory=dict)
    adjugates: dict[Rows, list[list[int]]] = field(default_factory=dict)

    @property
    def cones(self) -> list[Rows]:
        return [c for group in self.cones_by_vertex for c in group]


@dataclass
class WorkCounters:
    bases_visited: int = 0
    ratio_mults: int = 0
    max_basis_mults: int = 0

    def charge(self, mults: int) -> None:
        self.ratio_mults += mults
        self.max_basis_mults = max(self.max_basis_mults, mults)


@dataclass
class EnumerationResult:
    vertices: list[VertexRecord]
    triangulation: Triangulation
    edges: set[tuple[int, int]]  # vertex index pairs, smaller first
    rays: list[tuple[int, tuple[int, ...]]]  # (vertex, primitive direction)
    counters: WorkCounters

    @property
    def bounded(self) -> bool:
        return not self.rays


def _lex_feasible(p: HPolyhedron, rows: Rows, basis: Basis, tight: Rows) -> bool:
    """Whether the basis `rows`, held as (det, adj), of a vertex with tight rows
    `tight` is one of its cones: with each b_i perturbed by eps^(m - i), every
    tight row i off the basis keeps a lexicographically positive slack. det
    times that slack is det at i and -(ints_i adj)_k at rows[k], i's rate
    along the edge out of rows[k]; its nonzero term of highest row index
    decides, being of the lowest degree in eps.
    """
    det, adj = basis
    cols = list(zip(*adj))
    for i in set(tight).difference(rows):
        terms = {r: -dot(p.ints[i], c) for r, c in zip(rows, cols)} | {i: det}
        if terms[max(j for j, t in terms.items() if t)] < 0:
            return False
    return True


def enumerate_vertices(p: HPolyhedron, start: Point) -> EnumerationResult:
    """All vertices of p, from the vertex model.find_initial_vertex reaches
    from the feasible Point `start`.

    Best-first search over bases in lexicographic order: deterministic
    traversal, duplicate-free vertex list keyed on each (num, den), each
    basis pushed once, a vertex's cones read off the bases it owns and sorted
    at the end, rays recorded per (vertex, primitive direction), an edge per
    vertex pair that a positive-step pivot joins.
    A vertex's Point is held only while a basis of it waits on the heap.
    A popped basis (det, adj) runs model.min_ratio at each position pos,
    along u = -adj[:, pos], det times the edge direction: each row attaining
    the least step is a pivot, none an unbounded edge. ratio_mults is the
    paper's per-basis cost model, n * (m - n + hits) per position (n
    multiplications per rate and n per ratio), kept though the integer
    kernel does less, reading live slacks only. From a simple vertex the
    test back along a positive-step edge is decided, as only the leaving row
    attains it: the far basis, if still waiting, skips that position and is
    charged its hits, #{i : ints_i u < 0} = m - hits - #{i : ints_i u = 0}.
    """
    pt, tight = model.find_initial_vertex(p, start)
    vertices: list[VertexRecord] = []
    triangulation = Triangulation()
    by_point: dict[tuple[tuple[int, ...], int], int] = {}  # (num, den) -> index
    basis_owner: dict[Rows, int] = {}  # every pushed basis -> its vertex
    edges: set[tuple[int, int]] = set()
    ray_set: set[tuple[int, tuple[int, ...]]] = set()
    counters = WorkCounters()
    heap: list[Rows] = []
    # waiting basis -> its vertex, its (det, adj), and {leaving row: hits}
    # of the ratio tests already decided at the far end
    pending: dict[Rows, tuple[Point, Basis, dict[int, int]]] = {}

    def push(rows: Rows, owner: int, pt: Point, basis: Basis) -> None:
        if rows not in basis_owner:
            basis_owner[rows] = owner
            pending[rows] = (pt, basis, {})
            heapq.heappush(heap, rows)

    def register(pt: Point, tight: Rows) -> int:
        """Index of the new vertex pt with tight set `tight`."""
        index = len(vertices)
        by_point[pt.num, pt.den] = index
        vertices.append(VertexRecord(pt.num, pt.den, tight))
        triangulation.cones_by_vertex.append([])
        return index

    rows = model.start_basis(p, tight)
    push(rows, register(pt, tight), pt, model.basis_adjugate(p, rows))
    while heap:
        rows = heapq.heappop(heap)
        pt, basis, known = pending.pop(rows)
        counters.bases_visited += 1
        triangulation.dets[rows], triangulation.adjugates[rows] = basis
        owner = basis_owner[rows]
        vertex = vertices[owner]
        if vertex.simple or _lex_feasible(p, rows, basis, vertex.tight):
            triangulation.cones_by_vertex[owner].append(rows)
        mults = 0
        for pos, leaving in enumerate(rows):
            if leaving in known:
                mults += p.n * (p.m - p.n + known[leaving])
                continue
            u = [-line[pos] for line in basis[1]]
            rates = linalg.combine(p.cols, u)
            step, blocking, hits = model.min_ratio(p, pt, rates)
            mults += p.n * (p.m - p.n + hits)
            if step is None:
                g = gcd(*u)
                ray_set.add((owner, tuple(c // g for c in u)))
                continue
            for entering in blocking:
                target = tuple(sorted([r for r in rows if r != leaving] + [entering]))
                index = basis_owner.get(target)  # visited, or pending
                if index is None:
                    _, child = model.pivot(p, rows, basis, leaving, entering)
                    index, at = owner, pt  # a zero step stays at the vertex
                    if step[0]:
                        at = model.step_point(pt, step, u)
                        index = by_point.get((at.num, at.den))
                        if index is None:
                            index = register(at, model.step_tight(vertex.tight, rates, blocking))
                    push(target, index, at, child)
                if step[0]:
                    edges.add((min(owner, index), max(owner, index)))
                    if vertex.simple and target in pending:
                        pending[target][2][entering] = p.m - hits - rates.count(0)
        counters.charge(mults)
    for group in triangulation.cones_by_vertex:
        group.sort()

    return EnumerationResult(
        vertices=vertices,
        triangulation=triangulation,
        edges=edges,
        rays=sorted(ray_set),
        counters=counters,
    )


def run_enumeration(p: HPolyhedron, feasible_point=None) -> EnumerationResult:
    """The full enumeration from phase one's Point, or from the Point at the
    coordinates of a feasible point, (num, den) pairs, when one is given."""
    given = feasible_point is not None
    start = model.rational_point(feasible_point) if given else model.phase_one(p)
    return enumerate_vertices(p, start)


def _span_rank(records, directions) -> int:
    """Rank of the differences of the vertex `records` from the first, with
    `directions`; x_k - x_0 enters as X_k D_0 - X_0 D_k over its content."""
    base, base_den = records[0].num, records[0].den
    vectors = []
    for r in records[1:]:
        v = [x * base_den - y * r.den for x, y in zip(r.num, base)]
        g = gcd(*v) or 1
        vectors.append([c // g for c in v])
    return linalg.rank_of(vectors + directions)


def redundant_rows(p: HPolyhedron, result: EnumerationResult) -> list[int]:
    """The rows of p that can be dropped together, read off its enumeration.

    At a simple vertex v every row off its n tight rows B has positive slack,
    so near v, p is the simplicial cone {x : A_B (x - v) <= 0}: each row of B
    is a facet, and p is full-dimensional. Without a simple vertex, p is
    full-dimensional iff its vertices and rays have affine rank n; if not, it
    has implicit equalities and the LP scan `model.redundancy_scan` decides,
    started from the first vertex (each verdict is an LP optimum, which does
    not depend on the start). On a full-dimensional pointed
    p without duplicate rows, any other row i is irredundant iff its face
    {x in p : a_i x = b_i} has dimension n - 1. That face is spanned by the
    differences of the vertices tight at i and by the rays d with a_i d = 0,
    so a row tight at no vertex is redundant. One rank per such row, none on
    a simple polytope.
    """
    rays = [list(d) for d in sorted({d for _, d in result.rays})]
    facets = {i for v in result.vertices if v.simple for i in v.tight}
    if not facets and _span_rank(result.vertices, rays) < p.n:
        first = result.vertices[0]
        return model.redundancy_scan(p, model.Point(first.num, first.den))
    faces: list[list[VertexRecord]] = [[] for _ in range(p.m)]
    for v in result.vertices:
        for i in v.tight:
            faces[i].append(v)
    redundant = []
    for i, face in enumerate(faces):
        if i in facets:
            continue
        along = [d for d in rays if dot(p.ints[i], d) == 0]
        if not face or _span_rank(face, along) < p.n - 1:
            redundant.append(i)
    return redundant


@dataclass
class OracleEnumeration:
    """Ground truth from testing every n-subset of rows."""

    vertices: list[VertexRecord]
    feasible_bases: list[Rows]

    def vertex_points(self) -> set[tuple[Fraction, ...]]:
        return {v.point for v in self.vertices}


def enumerate_all_bases_oracle(
    p: HPolyhedron, budget: int = 10**5
) -> OracleEnumeration:
    """Exhaustive vertex enumeration over all C(m,n) row subsets, each solved once."""
    total = comb(p.m, p.n)
    if total > budget:
        raise BudgetExceeded(f"C({p.m},{p.n}) = {total} exceeds budget {budget}")
    by_point: dict[tuple[tuple[int, ...], int], VertexRecord] = {}
    feasible: list[Rows] = []
    for rows in combinations(range(p.m), p.n):
        try:
            basis = model.basis_adjugate(p, rows)
        except SingularMatrix:
            continue
        pt = model.scaled_point(*model.basis_solution(p, rows, basis))
        if min(model.slacks(p, pt, range(p.m))) < 0:
            continue
        feasible.append(rows)
        if (pt.num, pt.den) not in by_point:
            by_point[pt.num, pt.den] = VertexRecord(pt.num, pt.den, model.tight_set(p, pt))
    return OracleEnumeration(sorted(by_point.values(), key=lambda r: r.point), feasible)
