"""Positive row scaling: (a_i, b_i) and s * (a_i, b_i) are one half-space.

Every row is kept in integer form (the primitive integer multiple of a_i and
b_i times the same factor), so scaling a row by any positive rational must
leave that form, duplicate detection, the vertices with their tight sets,
the rays and the redundant rows unchanged.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull.errors import DimensionMismatch, DuplicateRow, Infeasible, NotPointed
from deltahull.hull import run_enumeration
from deltahull.model import make_polyhedron, phase_one, rational_point, redundancy_scan

from helpers import a_of, contains, pairs

entries = st.integers(-4, 4)
factors = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def systems(draw):
    """A small integer system, sometimes with a scaled copy of row 0."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n + 1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entries, min_size=m, max_size=m))
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        rows.append([k * x for x in rows[0]])
        b.append(k * b[0] + draw(st.sampled_from([0, 0, 1])))
    return rows, b


def build(rows, b):
    try:
        return make_polyhedron(rows, b)
    except DuplicateRow:
        return "duplicate"


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.data())
def test_positive_row_scaling_changes_nothing(system, data):
    rows, b = system
    scales = data.draw(st.lists(factors, min_size=len(rows), max_size=len(rows)))
    scaled_rows = [[s * x for x in row] for s, row in zip(scales, rows)]
    scaled_b = [s * beta for s, beta in zip(scales, b)]
    try:
        p = build(rows, b)
    except (DimensionMismatch, NotPointed):
        assume(False)
    q = build(scaled_rows, scaled_b)
    if p == "duplicate" or q == "duplicate":
        assert p == q == "duplicate"
        return
    assert (q.ints, q.rhs_num, q.rhs_den) == (p.ints, p.rhs_num, p.rhs_den)
    assert a_of(q) == tuple(map(tuple, scaled_rows))  # the rows stay as given
    try:
        x0 = pairs(phase_one(p).x)
    except Infeasible:
        try:
            phase_one(q)
        except Infeasible:
            return
        raise AssertionError("scaling made an empty system feasible")
    # Phase one's slack t is not scale-free, so each system finds its own
    # point; from one common point everything else must coincide.
    assert contains(q, phase_one(q).x)
    assert redundancy_scan(q, rational_point(x0)) == redundancy_scan(p, rational_point(x0))
    got, want = run_enumeration(q, x0), run_enumeration(p, x0)
    assert [(v.point, v.tight) for v in got.vertices] == [
        (v.point, v.tight) for v in want.vertices
    ]
    assert got.rays == want.rays
    assert got.triangulation.cones_by_vertex == want.triangulation.cones_by_vertex
