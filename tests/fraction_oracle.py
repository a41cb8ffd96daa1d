"""The Fraction formulas of the pivot kernel and of the LP layer, kept as
the oracle of the integer kernel in `deltahull.model` and `deltahull.linalg`.

Each reads the rational data of the system (the rows' integer forms with
their rational right-hand sides scales[i] * b[i]) and divides Fractions, as
the kernel did before it ran on Python ints. A basis vertex is solved as
Fractions (basis_vertex) and a basis is feasible iff that point satisfies
every row (is_feasible_basis), the oracle of `hull.enumerate_all_bases_oracle`.
The LP layer's oracle moves Fraction coordinates through the ray cast,
solves each simplex basis afresh, and builds its one margin system from the
(num, den) pairs of Fraction rows through `model._system`.
"""

from fractions import Fraction

from deltahull import linalg, model
from deltahull.errors import (
    Infeasible,
    InfeasiblePoint,
    SingularMatrix,
    SingularUpdate,
    UnboundedLine,
)
from deltahull.linalg import dot, frac

from helpers import a_of, b_of, contains, pairs, rank_exact, rows_of, submatrix


def rational_rhs(p):
    """scales[i] * b[i]: row i's right-hand side in its integer form."""
    return [s * beta for s, beta in zip(p.scales, b_of(p))]


def slacks(p, x):
    """b_i - a_i x for every row, in the rows as given."""
    return [beta - dot(row, x) for row, beta in zip(a_of(p), b_of(p))]


def tight_set(p, x):
    """Indices of rows satisfied with equality; x must be feasible."""
    out = []
    for i, (row, rhs) in enumerate(zip(p.ints, rational_rhs(p))):
        s = rhs - dot(row, x)
        if s < 0:
            raise InfeasiblePoint(f"row {i} violated by {s / p.scales[i]}")
        if s == 0:
            out.append(i)
    return tuple(out)


def basis_vertex(p, rows):
    """Solve A_B x = b_B for a candidate vertex; SingularMatrix if dependent."""
    num, den = model.basis_solution(p, rows, model.basis_adjugate(p, rows))
    return [Fraction(v, den) for v in num]


def is_feasible_basis(p, rows):
    try:
        x = basis_vertex(p, rows)
    except SingularMatrix:
        return False
    return contains(p, x)


def ratio_test(p, rows, x, d):
    """Longest feasible step from x along d over the rows outside `rows`:
    (step or None, the rows attaining it, the rows with positive rate)."""
    step = None
    blocking = []
    hits = 0
    for i, (row, rhs) in enumerate(zip(p.ints, rational_rhs(p))):
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


def sherman_morrison(inv, position, new_row):
    """Inverse of B with row `position` replaced by new_row, from inv = B^-1."""
    w = [dot(new_row, col) for col in zip(*inv)]
    pivot = w[position]
    if pivot == 0:
        raise SingularUpdate("replacement row is dependent")
    out = []
    for row in inv:
        u = Fraction(row[position]) / pivot
        out.append([x - u * wc for x, wc in zip(row, w)])
        out[-1][position] = u
    return out


def as_inverse(basis):
    """adj / det of a (det, adj) pair."""
    det, adj = basis
    return [[Fraction(x, det) for x in row] for row in adj]


def extend_independent(p, basis, rows):
    """Append to `basis` each of `rows` independent of the rows before it,
    by one Bareiss rank test per row, until the basis has n rows."""
    for i in rows:
        if len(basis) == p.n:
            break
        trial = submatrix(p, basis + [i])
        if rank_exact(trial) == len(trial):
            basis.append(i)
    return basis


def direction_off(p, basis):
    """det(G) > 0 times e_j - R^T G^-1 R e_j, the projection of e_j off the
    span of the basis rows R (Gram matrix G), for the lowest j where it is
    nonzero."""
    rows = submatrix(p, basis)
    det, adj = linalg.adjugate([[dot(r, s) for s in rows] for r in rows])
    for j in range(p.n):
        coeffs = [dot(line, [r[j] for r in rows]) for line in adj]
        d = [det * (t == j) - dot(coeffs, [r[t] for r in rows]) for t in range(p.n)]
        if any(d):
            return d
    raise UnboundedLine("no direction found below rank n")


def find_initial_vertex(p, x0):
    """model.find_initial_vertex on Fraction coordinates: the same rule, a
    rank test per candidate row, each direction from its Gram adjugate, each
    move x + step * d with the Fraction step of ratio_test."""
    x = [frac(v) for v in x0]
    tight = tight_set(p, x)
    basis = extend_independent(p, [], tight)
    while len(basis) < p.n:
        d = direction_off(p, basis)
        step = ratio_test(p, (), x, d)[0]
        if step is None:
            d = [-t for t in d]
            step = ratio_test(p, (), x, d)[0]
            if step is None:
                raise UnboundedLine("polyhedron contains a line despite rank n")
        x = [xi + step * di for xi, di in zip(x, d)]
        fresh = tight_set(p, x)
        basis = extend_independent(p, basis, sorted(set(fresh) - set(tight)))
        tight = fresh
    pt = model.rational_point(p, pairs(x))
    return model.VertexRecord(pt.num, pt.den, tight)


def simplex_max(p, objective, x0):
    """model.simplex_max with Fraction points: the Fraction ray cast, then
    Bland's rule, each basis's (det, adj) and vertex solved afresh."""
    v = find_initial_vertex(p, x0)
    rows = tuple(extend_independent(p, [], v.tight))
    while True:
        det, adj = model.basis_adjugate(p, rows)
        x = basis_vertex(p, rows)
        for pos, leaving in enumerate(rows):
            u = [-line[pos] for line in adj]
            if dot(objective, u) > 0:
                break
        else:
            return "optimal", x
        step, blocking, _ = ratio_test(p, rows, x, u)
        if step is None:
            return "unbounded", u
        rows = tuple(sorted([r for r in rows if r != leaving] + [blocking[0]]))


def margin_system(p, cap):
    """A x + s <= b and s <= cap over (x, s), cleared row by row."""
    rows = [r + [Fraction(1)] for r in rows_of(p)]
    rows.append([Fraction(0)] * p.n + [Fraction(1)])
    rhs = [*b_of(p), Fraction(cap)]
    return model._system([pairs(r) for r in rows], pairs(rhs), "margin")


def max_margin(p, cap):
    """model._max_margin over margin_system with the Fraction simplex."""
    start = [Fraction(0)] * p.n + [min(min(b_of(p)), cap)]
    objective = [Fraction(0)] * p.n + [Fraction(1)]
    status, opt = simplex_max(margin_system(p, cap), objective, start)
    assert status == "optimal"
    if opt[-1] < 0:
        raise Infeasible(f"phase one optimum t = {-opt[-1]} > 0")
    return opt


def phase_one(p):
    """model.phase_one: the origin when b >= 0, else the margin optimum at cap 0."""
    if min(b_of(p)) >= 0:
        return [Fraction(0)] * p.n
    return max_margin(p, 0)[: p.n]


def strict_interior_point(p):
    """model.strict_interior_point: the margin optimum at cap 1."""
    opt = max_margin(p, 1)
    return opt[: p.n] if opt[-1] > 0 else None
