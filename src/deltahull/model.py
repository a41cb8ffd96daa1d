"""H-polyhedron model: {x : A x <= b} with exact rational data.

Holds the instance type, stored in integers only (each row and its
right-hand side cleared once, on its own, from the (num, den) pairs the
parser gives; make_polyhedron adapts rationals to them), plus the vertex-level
primitives, all on Python ints no wider than the data: bases as (det, adj),
points in lowest terms, slacks of the rows a reader needs, tight sets, basis
solves, a ray cast from a feasible point to a vertex, and the one pivot kernel
(ratio test plus fraction-free basis swap) shared by the vertex enumeration
and the exact simplex (Bland's rule), which serves phase one and the strict
interior point from one margin system built off the integer form. The ratio
test's step is an integer pair, and the ray cast, the simplex and the walk
end each move by it (step_point, step_tight). The ray cast carries the
linalg.off_span basis of its tight rows, and products of all rows with one
vector run column by column. Vertices (VertexRecord) and LP points
(Point) are integer records, in and out: only a given feasible point and
the margin LP's start are cleared (rational_point, from pairs), and a
`Fraction` is built only for a row's scale or to read `point` or `x`;
serialize writes the rows as given straight from the integer form. The LP
redundancy scan is the fallback hull.redundant_rows runs on a system with
implicit equalities, whose redundant rows it cannot read off the walk.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import (
    DimensionMismatch,
    DuplicateRow,
    Infeasible,
    InfeasiblePoint,
    NotPointed,
    UnboundedLine,
)
from .linalg import Basis, dot


@dataclass(frozen=True)
class HPolyhedron:
    """Inequality system A x <= b with rank(A) = n (pointed), stored in integers.

    Row i is the half-space rhs_den[i] * ints[i] x <= rhs_num[i]: ints[i] =
    scales[i] * a[i] is the primitive integer multiple of the row a[i] as
    given, and rhs_num[i] / rhs_den[i] is scales[i] * b[i] in lowest terms,
    rhs_den[i] > 0. The kernel, tight sets and ratio tests read this form,
    which no positive scaling of (a_i, b_i) changes, and the rows as given
    are written from it (serialize.rows_as_given).
    """

    name: str
    ints: tuple[tuple[int, ...], ...]
    scales: tuple[Fraction, ...]
    rhs_num: tuple[int, ...]
    rhs_den: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.ints)

    @property
    def n(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    @cached_property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.ints))

    def restrict(self, keep, name: str) -> "HPolyhedron":
        """The subsystem of the rows in `keep`, in their integer form as is."""
        fields = (self.ints, self.scales, self.rhs_num, self.rhs_den)
        return HPolyhedron(name, *(tuple(f[i] for i in keep) for f in fields))


def _system(rows, rhs, name: str) -> HPolyhedron:
    """Clear rows of (num, den) pairs in lowest terms, den > 0, to integers
    by linalg.integer_row, each row and its scaled b_i once, alone: one
    Fraction a row, its scale."""
    fields = []
    for row, (r, d) in zip(rows, rhs):
        ints, scale = linalg.integer_row(row)
        num, den = scale.numerator * r, scale.denominator * d
        h = gcd(num, den)
        fields.append((ints, scale, num // h, den // h))
    return HPolyhedron(name, *map(tuple, zip(*fields)))


def make_system(rows, rhs, name: str = "") -> HPolyhedron:
    """Validate and freeze an inequality system given as (num, den) pairs in
    lowest terms, den > 0, the form serialize parses.

    Raises DimensionMismatch for ragged input, DuplicateRow when two rows
    coincide up to positive scaling (equal integer forms), and NotPointed
    when rank(A) < n.
    """
    if not rows:
        raise DimensionMismatch("empty constraint matrix")
    n = len(rows[0])
    if n == 0:
        raise DimensionMismatch("zero-dimensional ambient space")
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("ragged constraint matrix")
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    p = _system(rows, rhs, name)
    seen = {}
    for i, key in enumerate(zip(p.ints, p.rhs_num, p.rhs_den)):
        if not any(key[0]):
            raise DimensionMismatch(f"row {i} is the zero vector")
        if key in seen:
            raise DuplicateRow(f"rows {seen[key]} and {i} coincide after scaling")
        seen[key] = i
    rank = linalg.rank_of(p.ints)
    if rank < n:
        raise NotPointed(f"rank(A) = {rank} < n = {n}")
    return p


def make_polyhedron(rows, rhs, name: str = "") -> HPolyhedron:
    """make_system on rationals: ints, Fractions or strings such as '7/3'."""
    pairs = [[linalg.frac(x).as_integer_ratio() for x in r] for r in rows]
    return make_system(pairs, [linalg.frac(x).as_integer_ratio() for x in rhs], name)


@dataclass(frozen=True)
class VertexRecord:
    """A vertex num / den in lowest terms, den > 0, and its tight rows."""

    num: tuple[int, ...]
    den: int
    tight: tuple[int, ...]

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def simple(self) -> bool:
        return len(self.tight) == len(self.num)


@dataclass(frozen=True)
class Point:
    """x = num / den in lowest terms, den > 0; `slacks` reads its slacks."""

    num: tuple[int, ...]
    den: int

    @property
    def x(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)


def scaled_point(num, den: int) -> Point:
    """The Point num / den, den > 0, in lowest terms."""
    g = gcd(den, *num)
    if g > 1:
        num, den = [v // g for v in num], den // g
    return Point(tuple(num), den)


def rational_point(x) -> Point:
    """The Point at the rational coordinates x, as (num, den) pairs, den > 0."""
    den = lcm(*(q for _, q in x))
    return scaled_point([v * (den // q) for v, q in x], den)


def slacks(p: HPolyhedron, pt: Point, rows) -> list[int]:
    """The integer slack of each row i in `rows` at pt, den * rhs_num[i] -
    rhs_den[i] * (ints[i] num) = den * rhs_den[i] * scales[i] * (b_i - a_i x)."""
    num, den, ints, rhs_num, rhs_den = pt.num, pt.den, p.ints, p.rhs_num, p.rhs_den
    return [den * rhs_num[i] - rhs_den[i] * sum(map(mul, ints[i], num)) for i in rows]


def start_basis(p: HPolyhedron, tight) -> tuple[int, ...]:
    """The n rows linalg.independent keeps of a vertex's tight set, or the
    set itself when it has n rows, as a vertex's tight rows have rank n."""
    if len(tight) == p.n:
        return tight
    return tuple(tight[k] for k in linalg.independent((p.ints[i] for i in tight), []))


def basis_adjugate(p: HPolyhedron, rows) -> Basis:
    """(det, adj) of the integer forms of the basis rows, negated if need be
    so that det > 0; adj / det is still the inverse. linalg.adjugate's
    SingularMatrix passes through if the rows are dependent."""
    det, adj = linalg.adjugate([p.ints[i] for i in rows])
    return (det, adj) if det > 0 else (-det, [[-v for v in line] for line in adj])


def basis_solution(p: HPolyhedron, rows, basis: Basis) -> tuple[list[int], int]:
    """(num, den) of the basis vertex, not in lowest terms: adj @ (L rhs_B)
    over det * L, with L = lcm(rhs_den_B) for the basis rows alone."""
    det, adj = basis
    clear = lcm(*(p.rhs_den[i] for i in rows))
    rhs = [p.rhs_num[i] * (clear // p.rhs_den[i]) for i in rows]
    return [dot(line, rhs) for line in adj], det * clear


def tight_set(p: HPolyhedron, pt: Point) -> tuple[int, ...]:
    """Indices of the rows with zero slack at pt; pt must be feasible.

    InfeasiblePoint names the first violated row and its slack b_i - a_i x.
    """
    slack = slacks(p, pt, range(p.m))
    if min(slack) < 0:
        from .serialize import rational_str  # writes past the str(int) limit; imports model
        i, s = next((i, s) for i, s in enumerate(slack) if s < 0)
        value = rational_str(Fraction(s, pt.den * p.rhs_den[i]) / p.scales[i])
        raise InfeasiblePoint(f"row {i} violated by {value}")
    return tuple(compress(range(p.m), map((0).__eq__, slack)))


def find_initial_vertex(p: HPolyhedron, pt: Point) -> tuple[Point, tuple[int, ...]]:
    """Ray-cast from a feasible point to a vertex of p.

    Deterministic rule: pick the lowest-index standard basis vector outside
    the span of the current tight rows (the scan resumes at the last pick, as
    a vector in the span stays there), project it against them, and move to
    the farthest feasible point along the projected direction (or its
    negation if the forward ray is unbounded). The tight rows stay tight
    along the move, so an independent basis of them grows by the newly
    tight rows alone; each move adds at least one, so at most n happen.
    Only the basis's integral Gram-Schmidt vectors are kept (`ortho`, grown
    by linalg.independent), so a rank test or a projection is one pass over
    them. Each move ends by step_point and step_tight, so only the start's
    slacks are all read, by tight_set, which rejects an infeasible start.
    Returns the vertex's Point and tight set.
    """
    tight = tight_set(p, pt)
    ortho: list = []
    linalg.independent((p.ints[i] for i in tight), ortho)
    axes, j = linalg.identity(p.n), 0
    while len(ortho) < p.n:
        while not any(d := linalg.off_span(axes[j], ortho)):
            j += 1  # e_j stays in the span as ortho grows
        rates = linalg.combine(p.cols, d)
        step, blocking, _ = min_ratio(p, pt, rates)
        if step is None:
            d, rates = [-t for t in d], [-w for w in rates]
            step, blocking, _ = min_ratio(p, pt, rates)
            if step is None:
                raise UnboundedLine("polyhedron contains a line despite rank n")
        pt = step_point(pt, step, d)
        linalg.independent((p.ints[i] for i in blocking), ortho)
        tight = step_tight(tight, rates, blocking)
    return pt, tight


def min_ratio(p: HPolyhedron, pt: Point, rates):
    """Longest feasible step from pt along an integer direction u, given the
    rates w_i = ints_i u of every row.

    Returns (step, blocking, hits): the least slack over rate as the integer
    pair (s, q), step = s / q with q = pt.den * rhs_den[i] * w_i > 0 for a
    blocking row i, so s is zero iff the step is, or None when no row has
    positive rate (an unbounded ray); the rows attaining it, ascending; and
    the number of rows with positive rate.

    Along an edge u = -adj[:, pos] of a basis (det, adj), det > 0, no basis
    row needs leaving out: ints_B u = -det e_pos, so each basis row has rate
    0 or -det, and only rows off the basis can be live.
    The ratios are s_i / d_i, s_i = slacks(p, pt, live), d_i = rhs_den[i] w_i.
    If some s_i <= 0, only those rows can be least; else s_i / d_i lies in
    (2^(e_i - 1), 2^(e_i + 1)), e_i = bl(s_i) - bl(d_i) in bit lengths, so no
    row with e_i >= min e + 2 is. The rest are compared by cross-multiplying.
    """
    live = [i for i, w in enumerate(rates) if w > 0]
    if not live:
        return None, [], 0
    slack = slacks(p, pt, live)
    dens = [p.rhs_den[i] * rates[i] for i in live]
    gaps = [s.bit_length() - w.bit_length() for s, w in zip(slack, dens)]
    keep = [s <= 0 for s in slack] if min(slack) <= 0 else map((min(gaps) + 2).__gt__, gaps)
    best_s, best_w, blocking = 1, 0, []  # 1/0 stands for +infinity
    for i, s, w in compress(zip(live, slack, dens), keep):
        order = s * best_w - best_s * w
        if order < 0:
            best_s, best_w, blocking = s, w, [i]
        elif order == 0:
            blocking.append(i)
    return (best_s, pt.den * best_w), blocking, len(live)


def step_point(pt: Point, step: tuple[int, int], u) -> Point:
    """The Point a step (s, q) along the integer direction u from pt lands on,
    (num (q / den) + s u) / q; min_ratio makes q a multiple of pt.den."""
    s, q = step
    k = q // pt.den
    return scaled_point([v * k + s * t for v, t in zip(pt.num, u)], q)


def step_tight(tight, rates, blocking) -> tuple[int, ...]:
    """The tight set after a positive step: the rows of `tight` of zero rate
    and the blocking rows. A tight row of positive rate would have made the
    step zero, and one of negative rate gains slack."""
    return tuple(sorted([i for i in tight if not rates[i]] + blocking))


def pivot(
    p: HPolyhedron, rows: tuple[int, ...], basis: Basis, leaving: int, entering: int
):
    """Swap `leaving` for `entering` in a sorted basis held as (det, adj).

    Returns the sorted rows and their pair, det > 0 and the adjugate's
    columns in row order, by the fraction-free row-swap update of the
    integer rows. Its pivot is minus the entering row's rate along the edge
    -adj[:, pos], pos being leaving's position, so a pivot chosen by
    min_ratio is never singular.
    """
    pos = rows.index(leaving)
    swapped = list(rows)
    swapped[pos] = entering
    det, adj = linalg.basis_inverse_update(basis, pos, p.ints[entering])
    order = sorted(range(len(swapped)), key=swapped.__getitem__)
    sign = 1 if det > 0 else -1
    return (
        tuple(swapped[k] for k in order),
        (sign * det, [[sign * line[k] for k in order] for line in adj]),
    )


def simplex_max(p: HPolyhedron, objective, start: Point):
    """Maximize <objective, x>, objective an integer vector, over p from the
    feasible Point `start`.

    Starts from the vertex Point and tight set the ray cast from `start`
    returns, with its start_basis.
    Exact simplex with Bland's anti-cycling rule: relax the smallest basic
    row whose edge improves the objective; the entering row is the smallest
    index attaining the minimum ratio. The point moves by step_point, so no
    basis is solved. Returns ("optimal", Point) or ("unbounded", direction).
    """
    pt, tight = find_initial_vertex(p, start)
    rows = start_basis(p, tight)
    basis = basis_adjugate(p, rows)
    while True:
        for pos, leaving in enumerate(rows):
            u = [-line[pos] for line in basis[1]]
            if dot(objective, u) > 0:
                break
        else:
            return "optimal", pt
        step, blocking, _ = min_ratio(p, pt, linalg.combine(p.cols, u))
        if step is None:
            return "unbounded", u
        rows, basis = pivot(p, rows, basis, leaving, blocking[0])
        if step[0]:
            pt = step_point(pt, step, u)


def _auxiliary_system(p: HPolyhedron, cap: int) -> HPolyhedron:
    """The margin system A x + s·1 <= b, s <= cap over (x, s), straight from
    p's integer form: with scales[i] = P/Q, row i is the primitive
    (Q ints_i, P), of scale P, and its right-hand side P b_i = Q rhs_num[i] /
    rhs_den[i]."""
    rows = []
    for row, scale, r, d in zip(p.ints, p.scales, p.rhs_num, p.rhs_den):
        big, small = scale.numerator, scale.denominator
        g = gcd(small, d)
        row = row if small == 1 else tuple(small * v for v in row)
        rows.append((row + (big,), Fraction(big), small // g * r, d // g))
    rows.append(((0,) * p.n + (1,), Fraction(1), cap, 1))
    return HPolyhedron("margin", *zip(*rows))


def _max_margin(p: HPolyhedron, cap: int) -> Point:
    """The Point (x*, s*) maximizing s over the margin system from x = 0,
    s = min(min b, cap), the b_i compared as integer pairs. Raises Infeasible,
    naming t = -s*, if s* < 0: then no x has A x <= b."""
    q = _auxiliary_system(p, cap)
    low = (cap, 1)
    for r, d, s in zip(p.rhs_num, p.rhs_den, p.scales):
        if r * s.denominator * low[1] < low[0] * d * s.numerator:
            low = (r * s.denominator, d * s.numerator)
    start = rational_point([(0, 1)] * p.n + [low])
    status, opt = simplex_max(q, [0] * p.n + [1], start)
    assert status == "optimal"  # s <= cap bounds the objective
    if opt.num[-1] < 0:
        from .serialize import rational_str  # writes past the str(int) limit; imports model
        raise Infeasible(f"phase one optimum t = {rational_str(-opt.x[-1])} > 0")
    return opt


def phase_one(p: HPolyhedron) -> Point:
    """Exact feasible Point of A x <= b, or raise Infeasible: the origin
    when b >= 0, else the x of the margin optimum at cap 0, where s* = 0."""
    if min(p.rhs_num) >= 0:  # rhs_num[i] has the sign of b_i
        return Point((0,) * p.n, 1)
    opt = _max_margin(p, 0)
    return scaled_point(opt.num[:-1], opt.den)


def strict_interior_point(p: HPolyhedron) -> Point | None:
    """A Point with A x < b strictly, or None if the polyhedron is flat: one
    LP, the margin optimum at cap 1, which raises phase one's Infeasible
    when s* < 0 (the cap then is slack) and is flat when s* = 0."""
    opt = _max_margin(p, 1)
    return scaled_point(opt.num[:-1], opt.den) if opt.num[-1] > 0 else None


def redundancy_scan(p: HPolyhedron, start: Point) -> list[int]:
    """Indices of rows that can be dropped together without changing p.

    One LP per row. hull.redundant_rows runs it, from a vertex, only on a
    system with implicit equalities, and the tests keep it as that
    function's oracle. Row i is redundant iff max{A_i x : the other
    rows not already listed} <= b_i. Testing only against the unlisted rows
    keeps the list droppable together: with implicit equalities two rows can
    cut the same face, each redundant only while the other stays. On a
    full-dimensional p the list is the one a test against all other rows
    gives, the rows that are not facets. Every maximum is computed with
    the exact simplex from `start`, a Point of p and hence of each
    row-deleted system; the verdict depends only on the optimum, not on the
    start. An unbounded maximum or a rank drop in the remaining system
    certifies irredundancy. Raises InfeasiblePoint if start lies outside p.
    """
    tight_set(p, start)
    redundant = []
    for i in range(p.m):
        keep = [j for j in range(p.m) if j != i and j not in redundant]
        if linalg.rank_of([p.ints[j] for j in keep]) < p.n:
            continue
        # A subsystem of a validated system has no zero or duplicate row.
        sub = p.restrict(keep, f"{p.name}/-{i}")
        status, opt = simplex_max(sub, p.ints[i], start)
        if status == "optimal" and slacks(p, opt, [i])[0] >= 0:
            redundant.append(i)
    return redundant


def drop_rows(p: HPolyhedron, drop) -> HPolyhedron:
    """p without the rows in `drop`. They must be redundant, so the rank
    stays n and the remaining rows need no validation again."""
    drop = set(drop)
    return p.restrict([i for i in range(p.m) if i not in drop], p.name)
