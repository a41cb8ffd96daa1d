"""The LP layer on the integer kernel against its Fraction oracle.

The margin system that phase one and the strict interior point share, built
from a system's integer form at either cap, must equal the one
`model._system` clears from the Fraction rows' (num, den) pairs, field for
field. Phase one, the ray cast, the strict interior point and the simplex
must return the oracle's point (as an integer Point: its coordinates and its
integer slacks), tight set, status and Infeasible message, the strict
interior point also on infeasible systems: on small rational systems,
feasible or not, where the row scales are not integers, and on the fuzz
generator's candidates, which are integer. The strict interior point is one LP.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull import model
from deltahull.errors import DimensionMismatch, DuplicateRow, Infeasible, NotPointed

import fraction_oracle as oracle
from conftest import FUZZ_SEED_BASE, _random_instance
from helpers import a_of, b_of

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def systems(draw):
    """Up to 9 rows in up to 4 variables, entries p/q with q <= 7."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 9))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    return rows, b


def outcome(f, *args):
    """f's value, or the message of the Infeasible it raises."""
    try:
        return f(*args)
    except Infeasible as exc:
        return ("Infeasible", str(exc))


def assert_point_is(p, pt, x):
    """pt is the Point of p at the oracle's Fraction coordinates x: the same
    x, and model.slacks gives den * rhs_den[i] * scales[i] * (b_i - a_i x)."""
    assert pt.x == tuple(x)
    want = [pt.den * q * s * r for q, s, r in zip(p.rhs_den, p.scales, oracle.slacks(p, x))]
    assert model.slacks(p, pt, range(p.m)) == want


def assert_lp_layer_matches_oracle(p, objective):
    for cap in (0, 1):
        assert model._auxiliary_system(p, cap) == oracle.margin_system(p, cap)
    x0 = outcome(model.phase_one, p)
    want = outcome(oracle.phase_one, p)
    interior = outcome(model.strict_interior_point, p)
    want_interior = outcome(oracle.strict_interior_point, p)
    if isinstance(want, tuple):
        assert x0 == want
        assert interior == want_interior == want
        return False
    assert_point_is(p, x0, want)
    assert (interior is None) == (want_interior is None)
    if want_interior is not None:
        assert_point_is(p, interior, want_interior)
    pt, tight = model.find_initial_vertex(p, x0)
    want = oracle.find_initial_vertex(p, x0.x)
    assert (pt.x, tight) == (want.point, want.tight)
    assert all(type(c) is Fraction for c in pt.x)
    status, opt = model.simplex_max(p, objective, x0)
    want_status, want = oracle.simplex_max(p, objective, x0.x)
    assert status == want_status
    if status == "optimal":
        assert_point_is(p, opt, want)
    else:
        assert opt == want
    return True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.data())
def test_lp_layer_matches_fraction_oracle_on_rational_systems(system, data):
    rows, b = system
    try:
        p = model.make_polyhedron(rows, b)
    except (DimensionMismatch, DuplicateRow, NotPointed):
        assume(False)
    objective = data.draw(st.lists(rationals, min_size=p.n, max_size=p.n))
    assert_lp_layer_matches_oracle(p, objective)


def test_lp_layer_matches_fraction_oracle_on_fuzz_candidates():
    feasible = infeasible = 0
    for candidate in range(300):
        rng = random.Random(FUZZ_SEED_BASE + candidate)
        rows, b = _random_instance(rng)
        try:
            p = model.make_polyhedron(rows, b)
        except (DimensionMismatch, DuplicateRow, NotPointed):
            continue
        objective = [rng.randint(-3, 3) for _ in range(p.n)]
        if assert_lp_layer_matches_oracle(p, objective):
            feasible += 1
        else:
            infeasible += 1
    assert feasible > 100 and infeasible > 10


@pytest.mark.parametrize("cap", [0, 1])
def test_auxiliary_rows_are_primitive_with_integer_scales(cap):
    p = model.make_polyhedron([[Fraction(2, 3), Fraction(4, 9)], [1, -1], [0, Fraction(-5, 2)]],
                              [Fraction(7, 6), 2, Fraction(1, 4)])
    q = model._auxiliary_system(p, cap)
    # row 0: (2/3, 4/9) has scale 9/2, so (a_0, 1) clears to (6, 4, 9) over scale 9
    assert q.ints[0] == (6, 4, 9) and q.scales[0] == 9
    assert (q.rhs_num[0], q.rhs_den[0]) == (21, 2)  # 9 * 7/6
    assert q.ints[-1] == (0, 0, 1) and (q.rhs_num[-1], q.rhs_den[-1]) == (cap, 1)
    assert a_of(q)[-1] == (0, 0, 1) and b_of(q) == b_of(p) + (cap,)


def count_simplex_calls(monkeypatch):
    calls = []
    simplex_max = model.simplex_max

    def counted(*args):
        calls.append(args)
        return simplex_max(*args)

    monkeypatch.setattr(model, "simplex_max", counted)
    return calls


def test_strict_interior_point_runs_one_lp(monkeypatch):
    # the box 1 <= x <= 3, 1 <= y <= 3 has b_i < 0, so phase one would need an LP of its own
    p = model.make_polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [3, -1, 3, -1])
    calls = count_simplex_calls(monkeypatch)
    interior = model.strict_interior_point(p)
    assert len(calls) == 1
    assert min(model.slacks(p, interior, range(p.m))) > 0


@pytest.mark.parametrize("rows,b", [
    ([[1, 0], [-1, 0], [0, 1]], [1, -2, 0]),  # x <= 1 and x >= 2
    ([[Fraction(1, 2), 1], [-1, -2], [1, -1]], [Fraction(-1, 3), Fraction(-1, 2), 4]),
])
def test_strict_interior_point_raises_phase_ones_infeasible(monkeypatch, rows, b):
    p = model.make_polyhedron(rows, b)
    with pytest.raises(Infeasible) as phase_one:
        model.phase_one(p)
    calls = count_simplex_calls(monkeypatch)
    with pytest.raises(Infeasible) as interior:
        model.strict_interior_point(p)
    assert str(interior.value) == str(phase_one.value)
    assert len(calls) == 1
