"""Integer-point counting, cost figures, and the capped-sum bucket bound."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deltahull.counting import (
    count_integer_points_bruteforce,
    estimate_counting_cost,
    fibre_axis,
    fibre_count,
    integer_box,
)
from deltahull.errors import BudgetExceeded, DeltahullError, Unbounded
from deltahull.hull import run_enumeration
from deltahull.model import make_polyhedron
from deltahull.stats import triangulation_stats

from conftest import DEGENERATE_FAMILY, cube, square, standard_simplex
from helpers import (
    PreconditionViolated,
    a_of,
    b_of,
    box_scan_count,
    integer_rows,
    knapsack_bound_check,
    rows_of,
)


def frac_of(t):
    return t if isinstance(t, Fraction) else Fraction(t)


def oracle_count(p, box):
    """Independent scan in reversed axis order with a local membership test."""
    count = 0
    rev_ranges = [range(hi, lo - 1, -1) for lo, hi in reversed(box)]
    for cand in product(*rev_ranges):
        x = [Fraction(c) for c in reversed(cand)]
        ok = all(
            sum(a * v for a, v in zip(row, x)) <= rhs
            for row, rhs in zip(a_of(p), b_of(p))
        )
        if ok:
            count += 1
    return count


def test_scaled_square_counts():
    p = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [3, 3, 0, 0])
    result = run_enumeration(p)
    report = count_integer_points_bruteforce(p, result)
    assert report.count == 16
    assert report.box == [(0, 3), (0, 3)]
    assert report.cells_scanned == 16


def test_simplex_dilation_counts_match_binomial():
    # Dilations of the standard simplex count C(t + n, n) lattice points.
    for n in (2, 3):
        for t in (1, 2, 3, 4, 5, 6):
            p = standard_simplex(n, t)
            result = run_enumeration(p)
            report = count_integer_points_bruteforce(p, result)
            assert report.count == math.comb(t + n, n)


def test_count_agrees_with_reversed_order_oracle():
    rng = random.Random(4601)
    done = 0
    while done < 15:
        n = 2
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(5)]
        rhs = [rng.randint(-3, 3) for _ in range(5)]
        try:
            p = make_polyhedron(rows, rhs)
            result = run_enumeration(p)
        except Exception:
            continue
        if result.rays or not result.vertices:
            continue
        report = count_integer_points_bruteforce(p, result)
        assert report.count == oracle_count(p, report.box)
        done += 1


def test_count_invariant_under_lattice_preserving_change():
    # Shear x -> (x1, x2 + 2 x1) maps Z^2 onto Z^2, so counts are equal.
    p = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [2, 3, 0, 0])
    shear = [[1, 2], [0, 1]]  # columns act on x
    sheared_rows = [
        [row[0] * shear[0][0] + row[1] * shear[1][0],
         row[0] * shear[0][1] + row[1] * shear[1][1]]
        for row in ((1, 0), (0, 1), (-1, 0), (0, -1))
    ]
    q = make_polyhedron(sheared_rows, [2, 3, 0, 0])
    count_p = count_integer_points_bruteforce(p, run_enumeration(p)).count
    count_q = count_integer_points_bruteforce(q, run_enumeration(q)).count
    assert count_p == count_q


def test_count_rejects_unbounded_and_oversized_instances():
    quadrant = make_polyhedron([[-1, 0], [0, -1]], [0, 0])
    result = run_enumeration(quadrant)
    with pytest.raises(Unbounded):
        count_integer_points_bruteforce(quadrant, result)
    p = make_polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [3, 3, 0, 0])
    with pytest.raises(BudgetExceeded):
        count_integer_points_bruteforce(p, run_enumeration(p), budget=5)


def test_integer_box_shrinks_to_contained_lattice():
    p = make_polyhedron(
        [[2, 0], [0, 2], [-2, 0], [0, -2]], [1, 1, 1, 1], name="half-box"
    )
    result = run_enumeration(p)
    assert integer_box(result.vertices) == [(0, 0), (0, 0)]
    assert count_integer_points_bruteforce(p, result).count == 1


def fraction_box(vertices) -> list[tuple[int, int]]:
    """Oracle of integer_box: math.ceil and math.floor of the Fraction points."""
    coords = list(zip(*(v.point for v in vertices)))
    return [(math.ceil(min(c)), math.floor(max(c))) for c in coords]


def test_integer_box_matches_fraction_ceil_and_floor(corpus_analysis):
    # -7/3 <= x <= -2/3 and -1/2 <= y <= 3/2: floor division rounds toward
    # minus infinity; a truncated floor would give x <= 0, and -(num // den)
    # as the ceiling y >= 1.
    negative = make_polyhedron([[3, 0], [-3, 0], [0, 2], [0, -2]], [-2, 7, 3, 1])
    result = run_enumeration(negative)
    assert integer_box(result.vertices) == fraction_box(result.vertices) == [(-2, -1), (0, 1)]
    cases = [result for _, result, _ in corpus_analysis if result.bounded]
    cases += [run_enumeration(build()) for build in DEGENERATE_FAMILY]
    assert len(cases) > 50
    for result in cases:
        assert integer_box(result.vertices) == fraction_box(result.vertices)


def test_box_empty_on_one_axis_counts_nothing():
    # 1/4 <= x1 <= 3/4 holds no integer, so the box is empty on axis 0.
    p = make_polyhedron([[4, 0], [-4, 0], [0, 1], [0, -1]], [3, -1, 2, 0])
    report = count_integer_points_bruteforce(p, run_enumeration(p))
    assert report.box == [(1, 0), (0, 2)]
    assert report.count == 0
    assert report.cells_scanned == 0


def test_row_with_zero_fibre_coefficient_cuts_whole_fibres():
    # 0 <= x <= 5 and y, z >= 0 with y + z <= 1: x is the widest axis, and the
    # last row, which has no x term, empties the fibre over (y, z) = (1, 1).
    p = make_polyhedron(
        [[1, 0, 0], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 1, 1]], [5, 0, 0, 0, 1]
    )
    report = count_integer_points_bruteforce(p, run_enumeration(p))
    assert report.box == [(0, 5), (0, 1), (0, 1)]
    assert fibre_axis(report.box) == 0
    assert report.cells_scanned == 24
    assert report.count == 18 == box_scan_count(p, report.box)


def test_one_dimensional_instance_is_one_fibre():
    # -4/3 <= x <= 7/2: the prefix box is empty, so one fibre holds the count.
    p = make_polyhedron([[2], [-3]], [7, 4])
    report = count_integer_points_bruteforce(p, run_enumeration(p))
    assert report.box == [(-1, 3)]
    assert report.count == 5
    assert report.cells_scanned == 5


def test_tied_widths_pick_the_lowest_axis_and_every_axis_counts_alike():
    assert fibre_axis([(0, 3), (-2, 1), (0, 1)]) == 0
    assert fibre_axis([(0, 1), (5, 8), (-3, 0)]) == 1
    # A triangle with 3 x <= 10 and 3 y <= 10 cut by x + 2 y <= 7: widths tie.
    p = make_polyhedron([[3, 0], [0, 3], [-1, 0], [0, -1], [1, 2]], [10, 10, 0, 0, 7])
    report = count_integer_points_bruteforce(p, run_enumeration(p))
    box = report.box
    assert box[0][1] - box[0][0] == box[1][1] - box[1][0]
    assert fibre_axis(box) == 0
    counts = [fibre_count(p, box, k) for k in range(p.n)]
    assert counts == [report.count] * p.n
    assert report.count == box_scan_count(p, box) == oracle_count(p, box)


def test_budget_caps_the_box_volume_not_the_fibres():
    # A 2 x 1000 strip is 2 fibres along its long axis but 2000 cells.
    p = make_polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 999, 0])
    result = run_enumeration(p)
    with pytest.raises(BudgetExceeded, match="2000 cells exceed budget 1999"):
        count_integer_points_bruteforce(p, result, budget=1999)
    report = count_integer_points_bruteforce(p, result, budget=2000)
    assert report.count == report.cells_scanned == 2000


# Bounding rows -h <= x_j <= h keep the box within (2h+1)^n <= 2,401 cells.
HALF_WIDTH = {1: 20, 2: 12, 3: 6, 4: 3}
small_rationals = st.builds(Fraction, st.integers(-6, 24), st.sampled_from([1, 1, 2, 3, 4]))


@st.composite
def bounded_systems(draw):
    """Rational bounds on every axis plus up to four random small rows."""
    n = draw(st.integers(1, 4))
    h = HALF_WIDTH[n]
    bounds = st.builds(Fraction, st.integers(-h, 4 * h), st.sampled_from([1, 2, 3, 4]))
    rows, rhs = [], []
    for j in range(n):
        for sign in (1, -1):
            rows.append([sign if t == j else 0 for t in range(n)])
            rhs.append(min(draw(bounds), h))
    for _ in range(draw(st.integers(0, 4))):
        rows.append(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        rhs.append(draw(small_rationals))
    return rows, rhs


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(bounded_systems())
def test_fibre_count_matches_cell_scan_oracles(system):
    rows, rhs = system
    try:
        p = make_polyhedron(rows, rhs)
        result = run_enumeration(p)
    except DeltahullError:
        assume(False)
    report = count_integer_points_bruteforce(p, result, budget=2500)
    box = report.box
    assert report.count == box_scan_count(p, box) == oracle_count(p, box)
    assert report.count == fibre_count(p, box, p.n - 1)


def test_fibre_count_matches_cell_scan_on_fuzz_corpus(corpus_analysis):
    checked = 0
    for p, result, _ in corpus_analysis:
        if result.rays:
            continue
        box = integer_box(result.vertices)
        if math.prod(max(0, hi - lo + 1) for lo, hi in box) > 50_000:
            continue
        report = count_integer_points_bruteforce(p, result)
        assert report.count == box_scan_count(p, box), p.name
        checked += 1
    assert checked > 20


def test_estimate_counting_cost_square():
    p = square()
    result = run_enumeration(p)
    t = result.triangulation
    stats = triangulation_stats(p.ints, p.scales, t.cones, t.dets)
    est = estimate_counting_cost(stats)
    # n^4 * delta * |T| * sum det^2 = 16 * 1 * 4 * 4.
    assert est["triangulation_cost_exact"] == 256
    assert est["triangulation_cost"] == 256.0
    # n^n * delta^4 / delta_avg = 4 * 1 / 1.
    assert est["envelope"] == 4.0


def test_estimate_counting_cost_scales_with_row_scaling():
    p = cube()
    result = run_enumeration(p)
    cones, dets = result.triangulation.cones, result.triangulation.dets
    base = estimate_counting_cost(triangulation_stats(p.ints, p.scales, cones, dets))
    scaled_rows = [[3 * x for x in row] for row in rows_of(p)]
    scaled = estimate_counting_cost(triangulation_stats(*integer_rows(scaled_rows), cones, dets))
    n = 3
    # Every cone determinant gains 3^n: delta and each det^2 term scale.
    factor = Fraction(3**n) * Fraction(3 ** (2 * n))
    assert scaled["triangulation_cost_exact"] == base["triangulation_cost_exact"] * factor
    envelope_factor = Fraction(3 ** (4 * n)) / Fraction(3**n)
    assert scaled["envelope"] == pytest.approx(base["envelope"] * float(envelope_factor))


def test_knapsack_bound_hand_example():
    # f(t) = t^2, alpha = 2, beta = 5, x = (2, 2, 1, 0):
    # lhs = 4 + 4 + 1 + 0 = 9, rhs = (floor(5/2) + 1) * 4 = 12.
    assert knapsack_bound_check([2, 2, 1, 0], 2, 5, lambda t: t * t) is True


def test_knapsack_bound_zero_vector_and_tight_cases():
    assert knapsack_bound_check([0, 0, 0], 3, 4, lambda t: t * t) is True
    assert knapsack_bound_check([2, 2], 2, 4, lambda t: t) is True
    # Convexity violated on purpose: strictly concave on [0, 2], so many
    # small entries beat the bucket estimate. lhs = 40 * 7/8 = 35 > 22.
    broken = knapsack_bound_check(
        [Fraction(1, 2)] * 40,
        2,
        20,
        lambda t: 2 * frac_of(t) - frac_of(t) ** 2 / 2,
    )
    assert broken is False


def test_knapsack_bound_precondition_errors():
    with pytest.raises(PreconditionViolated):
        knapsack_bound_check([3], 2, 5, lambda t: t)
    with pytest.raises(PreconditionViolated):
        knapsack_bound_check([-1], 2, 5, lambda t: t)
    with pytest.raises(PreconditionViolated):
        knapsack_bound_check([1, 1, 1], 2, 2, lambda t: t)
    with pytest.raises(PreconditionViolated):
        knapsack_bound_check([1], 0, 5, lambda t: t)


def test_knapsack_bound_random_convex_sweep():
    rng = random.Random(4602)
    functions = [
        lambda t: t,
        lambda t: t * t,
        lambda t: t * t * t,
    ]
    for _ in range(300):
        alpha = Fraction(rng.randint(1, 6))
        beta = alpha + rng.randint(0, 10)
        remaining = beta
        xs = []
        while remaining > 0 and len(xs) < 12 and rng.random() < 0.9:
            v = Fraction(rng.randint(0, int(alpha * 2)), 2)
            v = min(v, alpha, remaining)
            xs.append(v)
            remaining -= v
        f = functions[rng.randrange(3)]
        assert knapsack_bound_check(xs, alpha, beta, f) is True
