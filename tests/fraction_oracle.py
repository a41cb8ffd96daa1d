"""The Fraction formulas of the pivot kernel, kept as the oracle of the
integer kernel in `deltahull.model` and `deltahull.linalg`.

Each reads the rational data of the system (the rows' integer forms with
their rational right-hand sides scales[i] * b[i]) and divides Fractions, as
the kernel did before it ran on Python ints.
"""

from fractions import Fraction

from deltahull.errors import InfeasiblePoint, SingularUpdate
from deltahull.linalg import dot


def rational_rhs(p):
    """scales[i] * b[i]: row i's right-hand side in its integer form."""
    return [s * beta for s, beta in zip(p.scales, p.b)]


def slacks(p, x):
    """b_i - a_i x for every row, in the rows as given."""
    return [beta - dot(row, x) for row, beta in zip(p.a, p.b)]


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
