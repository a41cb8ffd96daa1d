"""Test-only helpers with no caller in the package: a system's rows and
right-hand sides as given (rebuilt from its integer form as Fractions), the
integer rows of a Fraction matrix, rational points as the (num, den) pairs
the package takes, a counter of the Fractions a block builds, the Fraction
token parser (the oracle of serialize.parse_rational's pair parser), a
rational matrix builder and product, the forward Bareiss elimination
behind the exact rank and determinant (the oracle of the package's
Gram-Schmidt rank and adjugate), the exact solve and inverse, the Fraction
lift of the subdivision fans (the oracle of subdivision.lift_polytope's
integer facet scan), the Delta search that evaluates one Gram determinant
per node (the oracle of stats.delta_max), the cone-determinant oracle, the
readers that only tests need (the integer forms of a row set, point
membership on a system's integer form, an enumeration's vertex points, a
FanStats's cone determinants as Fractions), the skeleton-edge and
redundant-row rank oracles, the placing triangulation of a normal cone
(the oracle of the cones hull.enumerate_vertices reads off its walk), the
certificate that a bounded enumeration's cones cover R^n once, which also
gives its edges, the Fraction-step ratio test and its work oracle, the
unimodularizing transform with the minor count, the full minor scan and
the per-cone distance certificate (the oracles of the CLI's
total-unimodularity verdict and of stats.cone_distance_certificate), the
per-cell box-scan counting oracle, the per-node BFS diameter oracle, the
fan document loader, the report text of rationals past the str() digit
limit, the capped-sum bucket bound behind acceptance criterion 10, the
cone-fan adjacency graph, and the density and tightness experiments on the
subdivision fans. Graphs are adjacency dicts {node: ascending neighbours},
as graphs.build_polytope_graph returns them."""

import random
import sys
from collections import Counter, deque
from contextlib import contextmanager
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import comb, factorial, floor, prod, sqrt
from unittest import mock

from deltahull import linalg, model, stats
from deltahull.errors import (
    BudgetExceeded,
    DeltahullError,
    DisconnectedGraph,
    EmptyAlphaInterval,
    ParseError,
    SingularMatrix,
)
from deltahull.linalg import dot, frac
from deltahull.serialize import EXPONENT, parse_json, parse_rational, rational_str
from deltahull.subdivision import SubdivisionFan, build_subdivision_fans, normalize_rays

Rows = tuple[int, ...]
Mat = list[list[Fraction]]


class PreconditionViolated(DeltahullError):
    """An input fails the stated domain restrictions of a check."""


def to_matrix(rows) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def integer_rows(m) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
    """linalg.integer_row of each row of m, a matrix of ints and Fractions,
    as (num, den) pairs: the integer rows, then their scales."""
    pairs = [linalg.integer_row([x.as_integer_ratio() for x in row]) for row in m]
    return tuple(ints for ints, _ in pairs), tuple(s for _, s in pairs)


def submatrix(p, rows) -> list[tuple[int, ...]]:
    """The integer forms of the given rows of p."""
    return [p.ints[i] for i in rows]


def a_of(p) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of p as given, ints[i] / scales[i], rebuilt from its integer
    form: v q / s for scales[i] = s / q."""
    pairs = ((row, *s.as_integer_ratio()) for row, s in zip(p.ints, p.scales))
    return tuple(tuple(Fraction(v * q, s) for v in row) for row, s, q in pairs)


def b_of(p) -> tuple[Fraction, ...]:
    """The right-hand sides b_i of p as given, rhs_num[i] / (rhs_den[i] * scales[i])."""
    return tuple(
        Fraction(r * s.denominator, d * s.numerator)
        for r, d, s in zip(p.rhs_num, p.rhs_den, p.scales)
    )


def rows_of(p) -> Mat:
    """The rows of p as given, as lists: the rational matrix A."""
    return [list(r) for r in a_of(p)]


def pairs(x) -> list[tuple[int, int]]:
    """Rational coordinates (ints, Fractions or strings like '7/3') as the
    (num, den) pairs model.rational_point takes."""
    return [frac(v).as_integer_ratio() for v in x]


@contextmanager
def fractions_built():
    """A list of the arguments of every Fraction constructed inside the block."""
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", staticmethod(counted)):
        yield built


def fraction_parse_rational(token) -> Fraction:
    """The Fraction parser serialize.parse_rational replaced, kept as its
    oracle: the same accepted tokens, and the same ParseError texts."""
    if isinstance(token, bool):
        raise ParseError(f"not a rational: {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        raise ParseError(f"binary float {token!r} not accepted; use 'p/q'")
    if isinstance(token, str):
        if EXPONENT.search(token):
            raise ParseError(f"bad rational {token!r}: exponent notation not accepted")
        try:
            return Fraction(token.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {token!r}: {exc}") from None
    raise ParseError(f"not a rational: {token!r}")


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def bareiss(m) -> tuple[int, int, int]:
    """Forward fraction-free (Bareiss 1968) elimination of a copy of the
    integer rows m: (rank, sign of the row swaps, last pivot).

    Takes pivots column by column, skipping a column with no nonzero entry
    at or below the current row; each step sets row_i <- (pivot * row_i -
    a_ic * pivot_row) / previous pivot for the rows below, an exact division.
    For a nonsingular square m, sign * pivot is det m. The tests' rank and
    determinant oracle, independent of the package's Gram-Schmidt rank and
    Jordan-sweep adjugate.
    """
    a = [list(row) for row in m]
    rank, prev, sign = 0, 1, 1
    for col in range(len(a[0]) if a else 0):
        r = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if r is None:
            continue
        if r != rank:
            a[rank], a[r] = a[r], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
        rank += 1
    return rank, sign, prev


def rank_exact(m) -> int:
    """Rank of an integer matrix, by the tests' Bareiss elimination."""
    return bareiss(m)[0]


def det_exact(m) -> int:
    """Determinant of a square integer matrix, by the tests' Bareiss
    elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    rank, sign, pivot = bareiss(m)
    return sign * pivot if rank == n else 0


def gram_delta_search(ints, scales, budget: int) -> tuple[Fraction, Rows]:
    """stats._delta_search with the Gram matrix of each node's rows built
    afresh and its determinant taken by det_exact: the same norm order,
    prune, node count and tie-break, so the same (Delta, witness) and the
    same BudgetExceeded, from independent determinants."""
    m, n = len(ints), len(ints[0])
    if m < n:
        return Fraction(0), ()
    w_num, w_den = [s.denominator**2 for s in scales], [s.numerator**2 for s in scales]
    sq = [dot(r, r) for r in ints]
    norms = [(q * a, b) for q, a, b in zip(sq, w_num, w_den)]

    def larger_first(i, j):  # ties by index
        return norms[j][0] * norms[i][1] - norms[i][0] * norms[j][1] or i - j

    order = sorted(range(m), key=cmp_to_key(larger_first))
    # suffix_top[p][j]: product of the j largest norms at positions >= p
    suffix_top = [[(1, 1)] * (n + 1) for _ in range(m + 1)]
    for p in range(m - 1, -1, -1):
        a, b = norms[order[p]]
        for j in range(1, min(n, m - p) + 1):
            c, d = suffix_top[p + 1][j - 1]
            suffix_top[p][j] = (a * c, b * d)

    def gram_det(rows: list[int]) -> tuple[int, int]:
        g = [[dot(ints[i], ints[j]) if i != j else sq[i] for j in rows] for i in rows]
        det = det_exact(g)
        return det * prod(w_num[i] for i in rows), prod(w_den[i] for i in rows)

    best_num, best_den, witness = 0, 1, tuple(range(n))
    node_cap = 50 * budget
    nodes = 0
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        chosen, start = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"subdeterminant search exceeded {node_cap} nodes")
        k = len(chosen)
        if k == n:
            d_num, d_den = gram_det(chosen)
            rows = tuple(sorted(chosen))
            gain = d_num * best_den - best_num * d_den
            if gain > 0 or (gain == 0 and rows < witness):
                best_num, best_den, witness = d_num, d_den, rows
            continue
        g_num, g_den = gram_det(chosen) if chosen else (1, 1)
        # g * top < best, as lhs * top_num < rhs * top_den
        lhs, rhs = g_num * best_den, best_num * g_den
        children = []
        for pos in range(start, m - (n - k) + 1):
            # ties may hide the lex-min witness: prune only on strict loss
            top_num, top_den = suffix_top[pos][n - k]
            if lhs * top_num < rhs * top_den:
                break
            children.append((chosen + [order[pos]], pos + 1))
        stack.extend(reversed(children))
    best_sq = Fraction(best_num, best_den)
    num = linalg.isqrt_exact(best_sq.numerator)
    den = linalg.isqrt_exact(best_sq.denominator)
    return Fraction(num, den), witness


def solve(m, rhs) -> list[Fraction]:
    """The x with m x = rhs, for a nonsingular integer m and rational rhs."""
    det, adj = linalg.adjugate(m)
    return [Fraction(dot(row, rhs)) / det for row in adj]


def invert(m) -> Mat:
    """Exact inverse adj(m) / det(m) of a nonsingular integer matrix."""
    det, adj = linalg.adjugate(m)
    return [[Fraction(x, det) for x in row] for row in adj]


def totally_unimodular_transform(a: Mat, witness: Rows) -> Mat:
    """Right-multiply by the inverse of the witness rows: A * (A_B)^-1.

    With S_B A_B the integer witness rows, (A_B)^-1 = (S_B A_B)^-1 S_B.
    """
    ints, scales = integer_rows([a[i] for i in witness])
    try:
        inv = invert(ints)
    except SingularMatrix:
        raise SingularMatrix("witness rows are singular") from None
    return mat_mul(a, [[x * s for x, s in zip(row, scales)] for row in inv])


def count_minors(m: int, n: int) -> int:
    """The number of square submatrices of an m x n matrix."""
    return sum(comb(m, k) * comb(n, k) for k in range(1, min(m, n) + 1))


def verify_total_unimodularity(a: Mat, budget: int = stats.DEFAULT_BUDGET) -> bool:
    """True iff every square minor of any size has |det| <= 1."""
    m, n = len(a), len(a[0])
    total = count_minors(m, n)
    if total > budget:
        raise BudgetExceeded(f"{total} minors exceed budget {budget}")
    ints, scales = integer_rows(a)
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            limit = prod(scales[i] for i in rows)
            for cols in combinations(range(n), k):
                sub = [[ints[i][j] for j in cols] for i in rows]
                if abs(det_exact(sub)) > limit:
                    return False
    return True


def local_delta_distance(a: Mat, bases: list[Rows]) -> stats.DistanceCertificate:
    """Minimum normalized distance from a basis row to the others' span.

    For each basis and row, sin^2 of the angle between the row and the span
    of the remaining rows is det^2 / (|row|^2 * |adjugate column|^2), all
    exact. Angles ignore positive row scales, so the integer rows give the
    same value from one adjugate per basis. The certificate keeps the
    minimizing square.
    """
    ints, _ = integer_rows(a)
    best: stats.DistanceCertificate | None = None
    for rows in bases:
        sub = [ints[i] for i in rows]
        det, adj = linalg.adjugate(sub)
        for pos, i in enumerate(rows):
            u = [line[pos] for line in adj]
            sin_sq = Fraction(det * det, dot(sub[pos], sub[pos]) * dot(u, u))
            if best is None or sin_sq < best.sin_sq_min:
                best = stats.DistanceCertificate(sin_sq, rows, i)
    if best is None:
        raise ValueError("no bases given")
    return best


def floor_holds(block: dict) -> bool:
    """The certified sin^2 of a `delta-distance-floor` block reaches the
    square of the lemma's floor."""
    return block["sin_sq_min"] >= block["floor"] * block["floor"]


def vertex_columns(lifted) -> list[tuple[Fraction, ...]]:
    """The lifted polytope's vertices: each fan ray times its scale."""
    return [tuple(s * x for x in ray) for s, ray in zip(lifted.scaling, lifted.fan.rays)]


def fraction_lift(fans: list[SubdivisionFan]) -> list[Fraction]:
    """The scaling of subdivision.lift_polytope by its Fraction formulas.

    Each facet normal u_T is solved as Fractions, and each new ray v takes
    Fraction dot products <u_F, v> with every current facet: alpha is the
    midpoint of (1/<u_T,v>, min 1/<u_F,v> over positive ones), or 2/<u_T,v>
    when no other facet caps it. Raises EmptyAlphaInterval with the
    package's texts. The oracle of the integer facet scan.
    """

    def normal(cone):  # <u, s q> = s at each lifted point (s q, s)
        return solve([points[r][0] for r in cone], [points[r][1] for r in cone])

    scaling = [Fraction(1)] * len(fans[0].rays)
    points = [linalg.integer_row([x.as_integer_ratio() for x in ray]) for ray in fans[0].rays]
    facets = {cone: normal(cone) for cone in fans[0].cones}
    for depth in range(1, len(fans)):
        prev, fan = fans[depth - 1], fans[depth]
        for ci, parent_cone in enumerate(prev.cones):
            b = len(prev.rays) + ci
            v = fan.rays[b]
            denom = dot(facets.pop(parent_cone), v)
            if denom <= 0:
                raise EmptyAlphaInterval(
                    f"barycenter ray leaves through its own facet at depth {depth}"
                )
            lo = 1 / denom
            caps = [1 / w for w in (dot(u, v) for u in facets.values()) if w > 0]
            hi = min(caps) if caps else None
            if hi is not None and hi <= lo:
                raise EmptyAlphaInterval(
                    f"no admissible scale at depth {depth}: ({lo}, {hi})"
                )
            alpha = (lo + hi) / 2 if hi is not None else 2 * lo
            scaling.append(alpha)
            points.append(linalg.integer_row([(alpha * x).as_integer_ratio() for x in v]))
            for r in parent_cone:
                child = tuple(sorted(set(parent_cone) - {r} | {b}))
                facets[child] = normal(child)
    return scaling


def abs_det(ints, scales, rows: Rows) -> Fraction:
    """|det| of the rational rows `rows`: integer |det| over their scales,
    evaluated afresh (the oracle of the determinants the enumeration keeps)."""
    d = abs(det_exact([ints[i] for i in rows]))
    return Fraction(d) / prod(scales[i] for i in rows)


def cone_dets(a, cones) -> dict[Rows, int]:
    """The integer |det| of each cone's primitive integer rows, evaluated
    afresh: triangulation_stats's input for cones no enumeration visited."""
    ints, _ = integer_rows(a)
    return {c: abs(det_exact([ints[i] for i in c])) for c in cones}


def contains(p, x) -> bool:
    """A x <= b, for a point of ints or Fractions, read off p's integer form."""
    rows = zip(p.ints, p.rhs_num, p.rhs_den)
    return all(q * dot(row, x) <= r for row, r, q in rows)


def vertex_points(result) -> set[tuple[Fraction, ...]]:
    """The vertices of an enumeration as a set of Fraction points."""
    return {v.point for v in result.vertices}


def cone_det_fractions(fan: stats.FanStats) -> tuple[Fraction, ...]:
    """Each cone's |det| in a FanStats, as a Fraction, in cone order."""
    return tuple(Fraction(*pair) for pair in fan.cone_pairs)


def rank_test_edges(p, result) -> set[tuple[int, int]]:
    """Oracle: vertices are adjacent iff their common tight rows have rank
    n-1 (the standard polytope edge characterization)."""
    edges = set()
    for (i, a), (j, b) in combinations(enumerate(result.vertices), 2):
        common = sorted(set(a.tight) & set(b.tight))
        if common and rank_exact(submatrix(p, common)) == p.n - 1:
            edges.add((i, j))
    return edges


def rank_redundant_rows(p, result) -> list[int] | None:
    """Oracle of hull.redundant_rows by one Bareiss rank per row, simple
    vertices or not: None unless the vertices and rays span dimension n (where
    hull.redundant_rows runs the LP scan instead), else the rows whose face
    (the vertices tight at the row and the rays along it) spans less than
    n - 1."""
    rays = [list(d) for d in sorted({d for _, d in result.rays})]

    def span_rank(records, directions) -> int:  # x_k - x_0 as X_k D_0 - X_0 D_k
        base = records[0]
        diffs = [[x * base.den - y * r.den for x, y in zip(r.num, base.num)] for r in records[1:]]
        return rank_exact(diffs + directions)

    if span_rank(result.vertices, rays) < p.n:
        return None
    redundant = []
    for i in range(p.m):
        face = [v for v in result.vertices if i in v.tight]
        along = [d for d in rays if dot(p.ints[i], d) == 0]
        if not face or span_rank(face, along) < p.n - 1:
            redundant.append(i)
    return redundant


def triangulate_normal_cone(p, tight: Rows) -> list[Rows]:
    """Oracle of the cones the walk reads off a vertex's bases: the placing
    triangulation of the cone spanned by the tight-row normals, by Gram
    adjugates and facet counts.

    Rows are inserted in ascending index order. A row with a part off the
    span (linalg.off_span, the integral Gram-Schmidt step) cones the
    whole current complex; a row inside the span is joined to every boundary
    facet it sees strictly from outside. Rows that land inside the cone are
    absorbed without creating simplices. Returns index tuples whose union
    covers the cone with pairwise disjoint interiors; ValueError if the
    rows do not span the space.
    """
    cones: list[Rows] = [()]
    ortho: list = []
    for idx in sorted(tight):
        v = p.ints[idx]
        o = linalg.off_span(v, ortho)
        if any(o):
            cones = [c + (idx,) for c in cones]
            ortho.append((o, dot(o, o)))
            continue
        facet_count = Counter(c[:k] + c[k + 1 :] for c in cones for k in range(len(c)))
        added: list[Rows] = []
        for c in cones:
            # v's coordinates in the cone's generators times det(Gram) > 0,
            # by an adjugate Gram solve: only their signs are read.
            gens = [p.ints[i] for i in c]
            _, adj = linalg.adjugate([[dot(g, h) for h in gens] for g in gens])
            lam = [dot(line, [dot(g, v) for g in gens]) for line in adj]
            for k in range(len(c)):
                f = c[:k] + c[k + 1 :]
                if facet_count[f] == 1 and lam[k] < 0:
                    added.append(tuple(sorted(f + (idx,))))
        cones.extend(added)
    if len(ortho) < p.n:
        raise ValueError("tight rows do not span the space")
    return sorted(tuple(sorted(c)) for c in cones)


def fan_certificate(p, result, seed: int = 0) -> set[tuple[int, int]]:
    """The edge set of a bounded enumeration, read off its triangulated
    normal fan once the fan is checked to cover R^n exactly once; an
    AssertionError names the first check that fails.

    Each vertex lies in p. Each cone has rows tight at its vertex, so it
    lies in that vertex's normal cone, and is nonsingular. Each ridge, a
    cone less one row, lies in exactly two cones, and their omitted rows are
    on opposite sides: with row i at position k of cone C omitted, the other
    cone's omitted row j has ints_j adj_C[:, k] < 0, adj_C taken with
    det > 0. Exactly one cone holds a generic integer direction c, one with
    every coefficient adj_C[:, k] c nonzero in every cone. By the degree
    argument the cones then cover R^n once, so the normal cone of a missing
    vertex would overlap a found one; the edges are the vertex pairs whose
    cones share a ridge.
    """
    cones = []  # (vertex, rows, adjugate columns with det > 0)
    for k, group in enumerate(result.triangulation.cones_by_vertex):
        v = result.vertices[k]
        assert contains(p, v.point), f"vertex {k} lies outside p"
        for rows in group:
            slack = [v.den * p.rhs_num[i] - p.rhs_den[i] * dot(p.ints[i], v.num) for i in rows]
            assert not any(slack), f"cone {rows} is not tight at vertex {k}"
            det, adj = linalg.adjugate([p.ints[i] for i in rows])
            assert det, f"cone {rows} is singular"
            cones.append((k, rows, [[x if det > 0 else -x for x in c] for c in zip(*adj)]))
    ridges: dict[Rows, list[tuple[int, int]]] = {}
    for index, (_, rows, _) in enumerate(cones):
        for pos in range(len(rows)):
            ridges.setdefault(rows[:pos] + rows[pos + 1 :], []).append((index, pos))
    edges = set()
    for ridge, sides in ridges.items():
        assert len(sides) == 2, f"ridge {ridge} lies in {len(sides)} cones"
        (a, pos), (b, other) = sides
        j = cones[b][1][other]
        assert dot(p.ints[j], cones[a][2][pos]) < 0, f"ridge {ridge} has one side"
        u, v = cones[a][0], cones[b][0]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    rng = random.Random(seed)
    while True:
        c = [rng.randint(-(10**6), 10**6) for _ in range(p.n)]
        coefficients = [[dot(col, c) for col in cols] for _, _, cols in cones]
        if all(all(row) for row in coefficients):
            break
    holding = sum(min(row) > 0 for row in coefficients)
    assert holding == 1, f"{holding} cones hold the direction {c}"
    return edges


def ratio_test(p, pt: model.Point, u):
    """model.min_ratio along the integer direction u, with the step as a
    Fraction, or None when no row has positive rate."""
    step, blocking, hits = model.min_ratio(p, pt, linalg.combine(p.cols, u))
    return step and Fraction(*step), blocking, hits


def ratio_work(p, result) -> tuple[int, int]:
    """Oracle of the enumeration's (ratio_mults, max_basis_mults): every
    visited basis (the keys of triangulation.dets) runs a fresh
    ratio_test at each position at its vertex, charged
    n * (m - n + hits), whether or not the enumeration skipped that test."""
    n = p.n
    total = peak = 0
    for rows in result.triangulation.dets:
        basis = model.basis_adjugate(p, rows)
        pt = model.scaled_point(*model.basis_solution(p, rows, basis))
        mults = 0
        for pos in range(n):
            u = [-line[pos] for line in basis[1]]
            mults += n * (p.m - n + ratio_test(p, pt, u)[2])
        total += mults
        peak = max(peak, mults)
    return total, peak


def box_scan_count(p, box) -> int:
    """|P intersect Z^n| within `box` by one membership test per cell: the
    slow exact oracle of counting.fibre_count."""
    return sum(1 for x in product(*(range(lo, hi + 1) for lo, hi in box)) if contains(p, x))


def bfs_diameter(g: dict[int, list[int]]) -> int:
    """Exact diameter by one breadth-first search from every node: the slow
    oracle of graphs.graph_diameter, raising the same DisconnectedGraph."""
    nodes = sorted(g)
    if not nodes:
        raise DisconnectedGraph("empty graph")
    diameter = 0
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in g[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) != len(nodes):
            raise DisconnectedGraph(
                f"{len(dist)} of {len(nodes)} nodes reachable from {source}"
            )
        diameter = max(diameter, max(dist.values()))
    return diameter


def long_rational_text(x: Fraction) -> str:
    """"num/den" or "num" with Python's 4,300-digit str(int) limit lifted for
    the call: the oracle of serialize.rational_str past that limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{x.numerator}/{x.denominator}" if x.denominator > 1 else str(x.numerator)
    finally:
        sys.set_int_max_str_digits(saved)


def rationalize(obj):
    """Deep-copy a structure, turning Fractions into canonical strings and
    keys into strings: json.dumps of the copy, with sorted keys and compact
    separators, is what serialize.canonical_dumps writes."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, dict):
        return {str(k): rationalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rationalize(v) for v in obj]
    return obj


def load_fan_json(text: str) -> SubdivisionFan:
    doc = parse_json(text)
    try:
        rays = [tuple(Fraction(*parse_rational(x)) for x in ray) for ray in doc["rays"]]
        cones = [tuple(int(i) for i in c) for c in doc["cones"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed fan document: {exc}") from None
    n = int(doc.get("n", len(rays[0]) if rays else 0))
    depth = int(doc.get("depth", 0))
    parent = [int(x) for x in doc.get("parent", [-1] * len(cones))]
    for c in cones:
        if len(c) != n or any(i < 0 or i >= len(rays) for i in c):
            raise ParseError(f"cone {c} does not index the rays")
    return SubdivisionFan(n, depth, rays, cones, parent)


def knapsack_bound_check(x, alpha, beta, f) -> bool:
    """Sum of f over a capped vector against floor(beta/alpha + 1) * f(alpha).

    Requires 0 <= x_i <= alpha and sum(x) <= beta, with f convex,
    nondecreasing, and f(0) = 0; under those conditions the inequality is a
    theorem, so False from this function indicates a broken f.
    """
    alpha = frac(alpha)
    beta = frac(beta)
    xs = [frac(v) for v in x]
    if alpha <= 0 or beta <= 0:
        raise PreconditionViolated("alpha and beta must be positive")
    if any(v < 0 or v > alpha for v in xs):
        raise PreconditionViolated("entries must lie in [0, alpha]")
    if sum(xs, Fraction(0)) > beta:
        raise PreconditionViolated("entries must sum to at most beta")
    lhs = sum((frac(f(v)) for v in xs), Fraction(0))
    buckets = floor(beta / alpha) + 1
    return lhs <= buckets * frac(f(alpha))


def build_fan_graph(cones: list[Rows], generators: Mat) -> dict[int, list[int]]:
    """Cone adjacency: shared n-1 rays spanning a true common facet.

    generators[i] is the vector of ray i. Two cones are adjacent when they
    share exactly n-1 rays and their remaining rays lie strictly on opposite
    sides of the shared hyperplane (adjugate sign test on the integer rays,
    one adjugate per cone; positive ray scales keep every sign).
    """
    ints, _ = integer_rows(generators)
    adjugates = [linalg.adjugate([ints[r] for r in cone])[1] for cone in cones]
    g = {i: [] for i in range(len(cones))}
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
                    g[ci].append(cj)
                    g[cj].append(ci)
    return {u: sorted(vs) for u, vs in g.items()}


def _opposite_sides(cone_a: Rows, cone_b: Rows, facet: Rows, gens, adj) -> bool:
    ra = next(r for r in cone_a if r not in facet)
    rb = next(r for r in cone_b if r not in facet)
    pos = cone_a.index(ra)
    u = [line[pos] for line in adj]  # normal to the shared facet
    side_a = dot(gens[ra], u)  # equals det(cone_a), nonzero
    side_b = dot(gens[rb], u)
    return side_a * side_b < 0

def density_profile(fan: SubdivisionFan, samples: int) -> float:
    """Worst distance from a base-facet grid point to the ray set.

    The grid puts positive barycentric combinations (a_i + 1)/(samples-1+n)
    on each base facet; samples=1 is exactly the facet barycenters. The
    value is monotone nonincreasing in depth because rays only accumulate.
    """
    if samples < 1:
        raise ValueError("need at least one sample per facet")
    n = fan.n
    base_rays = [[float(x) for x in fan.rays[i]] for i in range(n + 1)]
    points = [[float(x) for x in ray] for ray in fan.rays]
    worst = 0.0
    total = samples - 1 + n
    for facet in combinations(range(n + 1), n):
        for comp in _compositions(samples - 1, n):
            coeffs = [(a + 1) / total for a in comp]
            sample = [
                sum(c * base_rays[r][t] for c, r in zip(coeffs, facet))
                for t in range(n)
            ]
            dist = min(
                sqrt(sum((s - p[t]) ** 2 for t, s in enumerate(sample)))
                for p in points
            )
            worst = max(worst, dist)
    return worst


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def tightness_experiment(
    n: int, k_max: int, digits: int, budget: int = stats.DEFAULT_BUDGET
) -> list[dict]:
    """Cone count against the vertex bound on sphere-normalized rays, per depth.

    Each row reports the count, the maximal and average subdeterminants of
    the normalized ray matrix, the bound n!*(delta/delta_avg)*vol(ball), and
    the count/bound ratio. The ratio climbs toward 1 as depth grows.
    """
    fans = build_subdivision_fans(n, k_max)
    table = []
    for fan in fans:
        gens = [list(r) for r in normalize_rays(fan.rays, digits)]
        fan_stats = stats.triangulation_stats(
            *integer_rows(gens), fan.cones, cone_dets(gens, fan.cones), budget
        )
        delta, avg = fan_stats.delta, fan_stats.delta_avg
        bound = factorial(n) * float(delta / avg) * stats.unit_ball_volume(n)
        table.append(
            {
                "depth": fan.depth,
                "cones": len(fan.cones),
                "delta": delta,
                "delta_avg": avg,
                "bound": bound,
                "ratio": len(fan.cones) / bound,
            }
        )
    return table
