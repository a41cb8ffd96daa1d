"""H-polyhedron model: {x : A x <= b} with exact rational data.

Holds the instance type, which clears each row's denominators once, plus
the vertex-level primitives everything else builds on: tight sets, basis
solves, a deterministic ray-cast walk from a feasible point to a vertex, and
the one pivot kernel (ratio test plus Sherman-Morrison basis swap) shared by
the vertex enumeration and the exact simplex (Bland's rule). The simplex
serves phase one and the strict interior point. The LP redundancy scan,
one simplex per row from one feasible point, is only the fallback for a
system with implicit equalities (hull.redundant_rows reads the redundant
rows of a full-dimensional one off its enumeration) and that test's oracle.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    InfeasiblePoint,
    NotPointed,
    SingularBasis,
    SingularMatrix,
    UnboundedLine,
)
from .linalg import Mat, Vec, dot


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality system A x <= b with rank(A) = n (pointed).

    `a` and `b` are the rows as given. Row i is also kept as the same
    half-space ints[i] x <= rhs[i]: ints[i] = scales[i] * a[i] is the
    primitive integer multiple of a[i] and rhs[i] = scales[i] * b[i] stays
    rational. The kernel, tight sets and ratio tests read this form, which
    no positive scaling of (a_i, b_i) changes.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    name: str
    ints: tuple[tuple[int, ...], ...]
    scales: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a[0]) if self.a else 0

    def rows(self) -> Mat:
        return [list(r) for r in self.a]

    def row(self, i: int) -> Vec:
        return list(self.a[i])

    def contains(self, x: Vec) -> bool:
        return all(dot(row, x) <= rhs for row, rhs in zip(self.ints, self.rhs))

    def slacks(self, x: Vec) -> Vec:
        return [rhs - dot(row, x) for row, rhs in zip(self.a, self.b)]

    def restrict(self, keep, name: str) -> "HPolyhedron":
        """The subsystem of the rows in `keep`, in their integer form as is."""
        fields = (self.a, self.b, self.ints, self.scales, self.rhs)
        a, b, ints, scales, rhs = (tuple(f[i] for i in keep) for f in fields)
        return HPolyhedron(a, b, name, ints, scales, rhs)


def _system(a, b, name: str) -> HPolyhedron:
    """Freeze rational rows, clearing each row's denominators once."""
    ints, scales = linalg.integer_rows(a)
    rhs = tuple(s * beta for s, beta in zip(scales, b))
    return HPolyhedron(tuple(map(tuple, a)), tuple(b), name, ints, scales, rhs)


def make_polyhedron(rows, rhs, name: str = "") -> HPolyhedron:
    """Validate and freeze an inequality system.

    Raises DimensionMismatch for ragged input, DuplicateRow when two rows
    coincide up to positive scaling (equal integer forms), and NotPointed
    when rank(A) < n.
    """
    a = [linalg.to_vector(r) for r in rows]
    b = linalg.to_vector(rhs)
    if not a:
        raise DimensionMismatch("empty constraint matrix")
    n = len(a[0])
    if n == 0:
        raise DimensionMismatch("zero-dimensional ambient space")
    if any(len(r) != n for r in a):
        raise DimensionMismatch("ragged constraint matrix")
    if len(b) != len(a):
        raise DimensionMismatch(f"{len(a)} rows but {len(b)} right-hand sides")
    p = _system(a, b, name)
    seen = {}
    for i, key in enumerate(zip(p.ints, p.rhs)):
        if not any(key[0]):
            raise DimensionMismatch(f"row {i} is the zero vector")
        if key in seen:
            raise DuplicateRow(f"rows {seen[key]} and {i} coincide after scaling")
        seen[key] = i
    rank = linalg.rank_of(p.ints)
    if rank < n:
        raise NotPointed(f"rank(A) = {rank} < n = {n}")
    return p


@dataclass
class VertexRecord:
    point: tuple[Fraction, ...]
    tight: tuple[int, ...]
    index: int = -1
    bases: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def simple(self) -> bool:
        return len(self.tight) == len(self.point)


def submatrix(p: HPolyhedron, rows) -> list[tuple[int, ...]]:
    """The integer forms of the given rows, the kernel's input."""
    return [p.ints[i] for i in rows]


def basis_vertex(p: HPolyhedron, rows) -> Vec:
    """Solve A_B x = b_B for a candidate vertex; SingularBasis if dependent."""
    rows = tuple(rows)
    try:
        return linalg.solve(submatrix(p, rows), [p.rhs[i] for i in rows])
    except SingularMatrix as exc:
        raise SingularBasis(str(exc)) from None


def is_feasible_basis(p: HPolyhedron, rows) -> bool:
    try:
        x = basis_vertex(p, rows)
    except SingularMatrix:
        return False
    return p.contains(x)


def tight_set(p: HPolyhedron, x: Vec) -> tuple[int, ...]:
    """Indices of rows satisfied with equality; x must be feasible."""
    out = []
    for i, (row, rhs) in enumerate(zip(p.ints, p.rhs)):
        s = rhs - dot(row, x)
        if s < 0:
            raise InfeasiblePoint(f"row {i} violated by {s / p.scales[i]}")
        if s == 0:
            out.append(i)
    return tuple(out)


def _extend_independent(p: HPolyhedron, basis: list[int], rows) -> list[int]:
    """Append to `basis` each of `rows` independent of the rows before it,
    with one rank test per row until the basis has n rows."""
    for i in rows:
        if len(basis) == p.n:
            break
        trial = submatrix(p, basis + [i])
        if linalg.rank_of(trial) == len(trial):
            basis.append(i)
    return basis


def _direction_off(p: HPolyhedron, basis: list[int]) -> list[int]:
    """det(G) > 0 times e_j - R^T G^-1 R e_j, the projection of e_j off the
    span of the basis rows R (Gram matrix G), for the lowest j where it is
    nonzero: an integer vector."""
    rows = submatrix(p, basis)
    det, adj = linalg.adjugate([[dot(r, s) for s in rows] for r in rows])
    for j in range(p.n):
        coeffs = [dot(line, [r[j] for r in rows]) for line in adj]
        d = [det * (t == j) - dot(coeffs, [r[t] for r in rows]) for t in range(p.n)]
        if any(d):
            return d
    raise UnboundedLine("no direction found below rank n")  # unreachable


def find_initial_vertex(p: HPolyhedron, x0: Vec) -> VertexRecord:
    """Ray-cast from a feasible point to a vertex of p.

    Deterministic rule: pick the lowest-index standard basis vector outside
    the span of the current tight rows, project it against them, and move to
    the farthest feasible point along the projected direction (or its
    negation if the forward ray is unbounded). The tight rows stay tight
    along the move, so an independent basis of them grows by the newly
    tight rows alone; each move adds at least one, so at most n happen.
    """
    x = linalg.to_vector(x0)
    tight = tight_set(p, x)
    basis = _extend_independent(p, [], tight)
    while len(basis) < p.n:
        d = _direction_off(p, basis)
        step = ratio_test(p, (), x, d)[0]
        if step is None:
            d = [-t for t in d]
            step = ratio_test(p, (), x, d)[0]
            if step is None:
                raise UnboundedLine("polyhedron contains a line despite rank n")
        x = [xi + step * di for xi, di in zip(x, d)]
        fresh = tight_set(p, x)
        basis = _extend_independent(p, basis, sorted(set(fresh) - set(tight)))
        tight = fresh
    return VertexRecord(tuple(x), tight)


def ratio_test(p: HPolyhedron, rows, x: Vec, d: Vec):
    """Longest feasible step from x along d over the rows outside `rows`.

    Returns (step, blocking, hits): the minimum ratio, or None when no row
    has positive rate (an unbounded ray); the rows attaining it, ascending;
    and the number of rows with positive rate.
    """
    step = None
    blocking: list[int] = []
    hits = 0
    for i, (row, rhs) in enumerate(zip(p.ints, p.rhs)):
        if i in rows:
            continue
        w = dot(row, d)
        if w <= 0:
            continue
        hits += 1
        t = (rhs - dot(row, x)) / w
        if step is None or t < step:
            step, blocking = t, [i]
        elif t == step:
            blocking.append(i)
    return step, blocking, hits


def pivot(
    p: HPolyhedron, rows: tuple[int, ...], inv: Mat, leaving: int, entering: int
):
    """Swap `leaving` for `entering` in a sorted basis with inverse inv.

    Returns the sorted rows and their inverse, columns in row order, by the
    Sherman-Morrison update; inv and the result invert the integer rows.
    The update pivot is minus the entering row's rate along the edge, so a
    pivot chosen by ratio_test is never singular.
    """
    pos = rows.index(leaving)
    swapped = list(rows)
    swapped[pos] = entering
    updated = linalg.basis_inverse_update(inv, pos, p.ints[entering])
    order = sorted(range(len(swapped)), key=swapped.__getitem__)
    return (
        tuple(swapped[k] for k in order),
        [[r[k] for k in order] for r in updated],
    )


def simplex_max(p: HPolyhedron, objective: Vec, x0: Vec):
    """Maximize <objective, x> over p from the feasible point x0.

    Ray-casts x0 to a vertex and starts from its lexicographically smallest
    independent tight basis, its tight set when the vertex is simple. Exact
    simplex with Bland's anti-cycling rule: relax the smallest basic row
    whose edge improves the objective; the entering row is the smallest
    index attaining the minimum ratio. Returns ("optimal", x) or
    ("unbounded", direction).
    """
    v = find_initial_vertex(p, x0)
    x = list(v.point)
    rows = v.tight if v.simple else tuple(_extend_independent(p, [], v.tight))
    inv = linalg.invert(submatrix(p, rows))
    while True:
        for pos, leaving in enumerate(rows):
            d = [-inv[r][pos] for r in range(p.n)]
            if dot(objective, d) > 0:
                break
        else:
            return "optimal", x
        step, blocking, _ = ratio_test(p, rows, x, d)
        if step is None:
            return "unbounded", d
        x = [xi + step * di for xi, di in zip(x, d)]
        rows, inv = pivot(p, rows, inv, leaving, blocking[0])


def _phase_one_system(p: HPolyhedron) -> HPolyhedron:
    """Auxiliary system over (x, t): A x - t <= b and -t <= 0."""
    rows = [list(r) + [Fraction(-1)] for r in p.rows()]
    rows.append([Fraction(0)] * p.n + [Fraction(-1)])
    return _system(rows, list(p.b) + [Fraction(0)], "phase1")


def phase_one(p: HPolyhedron) -> Vec:
    """Exact feasible point of A x <= b, or raise Infeasible.

    Minimizes the single slack t in the auxiliary system A x - t·1 <= b,
    t >= 0 with Bland's rule; t* = 0 iff the original system is feasible.
    """
    worst = min(p.b)
    if worst >= 0:
        return [Fraction(0)] * p.n
    q = _phase_one_system(p)
    start = [Fraction(0)] * p.n + [-worst]
    objective = [Fraction(0)] * p.n + [Fraction(-1)]  # maximize -t
    status, opt = simplex_max(q, objective, start)
    assert status == "optimal"  # -t <= 0 bounds the objective
    if opt[-1] > 0:
        raise Infeasible(f"phase one optimum t = {opt[-1]} > 0")
    return opt[: p.n]


def strict_interior_point(p: HPolyhedron):
    """A point with A x < b strictly, or None if the polyhedron is flat.

    Maximizes t in A x + t·1 <= b, t <= 1 starting from a feasible point of
    the original system; the cap keeps the auxiliary problem bounded.
    """
    rows = [list(r) + [Fraction(1)] for r in p.rows()]
    rows.append([Fraction(0)] * p.n + [Fraction(1)])
    q = _system(rows, list(p.b) + [Fraction(1)], "interior")
    start = phase_one(p) + [Fraction(0)]
    objective = [Fraction(0)] * p.n + [Fraction(1)]
    status, opt = simplex_max(q, objective, start)
    assert status == "optimal"
    if opt[-1] <= 0:
        return None
    return opt[: p.n]


def redundancy_scan(p: HPolyhedron, x0: Vec) -> list[int]:
    """Indices of rows that can be dropped together without changing p.

    One LP per row. The CLI runs it only where hull.redundant_rows returns
    None, on a system with implicit equalities, and the tests keep it as
    that function's oracle. Row i is redundant iff max{A_i x : the other
    rows not already listed} <= b_i. Testing only against the unlisted rows
    keeps the list droppable together: with implicit equalities two rows can
    cut the same face, each redundant only while the other stays. On a
    full-dimensional p the list is the one a test against all other rows
    gives, the rows that are not facets. Every maximum is
    computed with the exact simplex from x0, a point of p and hence of each
    row-deleted system; the verdict depends only on the optimum, not on the
    start. An unbounded maximum or a rank drop in the remaining system
    certifies irredundancy. Raises InfeasiblePoint if x0 lies outside p.
    """
    tight_set(p, x0)
    redundant = []
    for i in range(p.m):
        keep = [j for j in range(p.m) if j != i and j not in redundant]
        if linalg.rank_of(submatrix(p, keep)) < p.n:
            continue
        # A subsystem of a validated system has no zero or duplicate row.
        sub = p.restrict(keep, f"{p.name}/-{i}")
        status, opt = simplex_max(sub, p.ints[i], x0)
        if status == "optimal" and dot(p.ints[i], opt) <= p.rhs[i]:
            redundant.append(i)
    return redundant


def drop_rows(p: HPolyhedron, drop) -> HPolyhedron:
    keep = [i for i in range(p.m) if i not in set(drop)]
    return make_polyhedron(
        [p.row(i) for i in keep], [p.b[i] for i in keep], name=p.name
    )
