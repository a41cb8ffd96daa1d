"""Simplicial fan family: barycentric refinement, lifting, tightness."""

import math
from fractions import Fraction

import pytest

from deltahull.errors import EmptyAlphaInterval
from deltahull.hull import run_enumeration
from deltahull.linalg import dot
from deltahull.stats import delta_max
from deltahull.subdivision import (
    SubdivisionFan,
    _facet_normal,
    base_fan,
    base_simplex,
    build_subdivision_fans,
    expected_counts,
    lift_polytope,
    normalize_rays,
    subdivide_fan,
)

from helpers import (
    abs_det,
    density_profile,
    fraction_lift,
    integer_rows,
    tightness_experiment,
    vertex_columns,
)


def test_base_simplex_columns_n2():
    cols = base_simplex(2)
    assert cols == [
        (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(-1), Fraction(-1)),
    ]


def test_base_simplex_columns_sum_to_zero():
    for n in (2, 3, 4, 5):
        cols = base_simplex(n)
        assert len(cols) == n + 1
        for j in range(n):
            assert sum(c[j] for c in cols) == 0


def test_base_simplex_rejects_degenerate_dimension():
    with pytest.raises(ValueError):
        base_simplex(1)


def test_base_fan_cones_have_equal_determinants():
    for n, want in ((2, 3), (3, 16), (4, 125)):
        fan = base_fan(n)
        ints, scales = integer_rows(fan.rays)
        dets = {abs_det(ints, scales, c) for c in fan.cones}
        assert dets == {Fraction(want)}
        assert len(fan.cones) == n + 1


def test_subdivide_counts_and_parents():
    fan0 = base_fan(2)
    fan1 = subdivide_fan(fan0)
    assert len(fan1.rays) == 6
    assert len(fan1.cones) == 6
    assert fan1.depth == 1
    # Ray list extends the parent's rays in place.
    assert fan1.rays[: len(fan0.rays)] == fan0.rays
    fans = build_subdivision_fans(3, 2)
    assert [len(f.cones) for f in fans] == [4, 12, 36]
    assert [len(f.rays) for f in fans] == [4, 8, 20]


def test_child_cone_determinant_is_parent_over_n():
    for n in (2, 3):
        fans = build_subdivision_fans(n, 3)
        for depth in range(1, 4):
            child_fan = fans[depth]
            parent_fan = fans[depth - 1]
            child_rows = integer_rows(child_fan.rays)
            parent_rows = integer_rows(parent_fan.rays)
            for cone, parent_idx in zip(child_fan.cones, child_fan.parent):
                parent_det = abs_det(*parent_rows, parent_fan.cones[parent_idx])
                assert abs_det(*child_rows, cone) * n == parent_det


def test_sibling_cones_share_a_wall():
    fans = build_subdivision_fans(3, 2)
    fan = fans[2]
    by_parent = {}
    for idx, parent_idx in enumerate(fan.parent):
        by_parent.setdefault(parent_idx, []).append(fan.cones[idx])
    for group in by_parent.values():
        assert len(group) == 3
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                assert len(set(group[i]) & set(group[j])) == 2


def test_delta_is_preserved_under_subdivision():
    for n, k in ((2, 4), (3, 2)):
        fans = build_subdivision_fans(n, k)
        base_delta, _ = delta_max(*integer_rows(fans[0].rays))
        for fan in fans[1:]:
            delta, witness = delta_max(*integer_rows(fan.rays))
            assert delta == base_delta
            assert witness == tuple(range(n))


def test_delta_ratio_growth():
    fans = build_subdivision_fans(2, 4)
    for k, fan in enumerate(fans):
        delta, _ = delta_max(*integer_rows(fan.rays))
        ints, scales = integer_rows(fan.rays)
        dmin = min(abs_det(ints, scales, c) for c in fan.cones)
        assert delta / dmin == 2**k


def test_expected_counts_table():
    # The planar fan graph is a cycle of 3*2^k sectors (see expected_counts).
    assert expected_counts(2, 0) == {"cones": 3, "diameter": 1, "delta_ratio": 1}
    assert expected_counts(2, 1) == {"cones": 6, "diameter": 3, "delta_ratio": 2}
    assert expected_counts(2, 2) == {"cones": 12, "diameter": 6, "delta_ratio": 4}
    assert expected_counts(2, 3) == {"cones": 24, "diameter": 12, "delta_ratio": 8}
    assert expected_counts(3, 0) == {"cones": 4, "diameter": 1, "delta_ratio": 1}
    assert expected_counts(4, 2) == {"cones": 80, "diameter": 7, "delta_ratio": 16}


def test_base_fan_volume_identity():
    # Fan volume of the base simplex: (n+1) cones of equal determinant.
    for n in (2, 3, 4):
        fan = base_fan(n)
        ints, scales = integer_rows(fan.rays)
        delta = abs_det(ints, scales, fan.cones[0])
        total = sum(abs_det(ints, scales, c) for c in fan.cones)
        assert total == (n + 1) * delta


def test_lift_depth_zero_keeps_unit_scaling():
    fans = build_subdivision_fans(3, 0)
    lifted = lift_polytope(fans)
    assert lifted.scaling == [Fraction(1)] * 4
    assert vertex_columns(lifted) == fans[0].rays


def test_lift_round_trip_recovers_fan_as_normal_cones():
    for n, k in ((2, 1), (2, 2), (3, 1)):
        fans = build_subdivision_fans(n, k)
        lifted = lift_polytope(fans)
        p = lifted.dual_polyhedron()
        result = run_enumeration(p)
        assert result.bounded
        assert len(result.vertices) == len(fans[k].cones)
        tight_sets = {v.tight for v in result.vertices}
        assert tight_sets == {tuple(sorted(c)) for c in fans[k].cones}
        assert all(v.simple for v in result.vertices)


def test_lift_scales_only_new_rays():
    fans = build_subdivision_fans(2, 2)
    lifted = lift_polytope(fans)
    base_count = len(fans[0].rays)
    assert lifted.scaling[:base_count] == [Fraction(1)] * base_count
    assert all(s > 1 for s in lifted.scaling[base_count:])


def test_lifted_vertices_sit_strictly_outside_previous_hull():
    fans = build_subdivision_fans(2, 2)
    lifted = lift_polytope(fans)
    previous = lift_polytope(fans[:2])
    p_prev = previous.dual_polyhedron()
    # Each depth-2 barycenter column, read as a linear functional, exceeds 1
    # somewhere on the previous polar polytope: the dual constraint of the
    # previous stage is violated by the new scaled ray.
    new_start = len(fans[1].rays)
    for idx in range(new_start, len(fans[2].rays)):
        column = vertex_columns(lifted)[idx]
        prev_result = run_enumeration(p_prev)
        best = max(dot(list(column), list(v.point)) for v in prev_result.vertices)
        assert best > 1


def test_normalize_rays_examples():
    out = normalize_rays([(Fraction(3), Fraction(4))], digits=4)
    assert out == [(Fraction(3, 5), Fraction(4, 5))]
    out = normalize_rays([(Fraction(1), Fraction(1))], digits=6)
    target = 1 / math.sqrt(2)
    for coord in out[0]:
        assert abs(float(coord) - target) <= 10**-6
    # Exact at any width: each entry R / 10^30 is 10^30 / sqrt(2) rounded,
    # (2R - 1)^2 <= 2 * 10^60 <= (2R + 1)^2, so the length misses 1 by at most
    # sqrt(2) * 10^-30 (a float norm missed it by 7.6e-17).
    out = normalize_rays([(Fraction(1), Fraction(1))], digits=30)
    for coord in out[0]:
        r = coord * 10**30
        assert r.denominator == 1 and (2 * r - 1) ** 2 <= 2 * 10**60 <= (2 * r + 1) ** 2
    assert abs(sum(c * c for c in out[0]) - 1) <= Fraction(3, 2 * 10**30)
    assert normalize_rays([(Fraction(-1), Fraction(-1))], digits=30) == [
        tuple(-c for c in out[0])
    ]
    with pytest.raises(ValueError):
        normalize_rays([(Fraction(0), Fraction(0))], digits=3)


def test_density_profile_decreases_with_depth():
    fans = build_subdivision_fans(2, 5)
    values = [density_profile(fan, samples=4) for fan in fans]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_density_profile_facet_barycenters_hit_rays_one_level_down():
    fans = build_subdivision_fans(2, 1)
    # With a single sample per base facet the probes are exactly the facet
    # barycenters; one refinement turns those into rays, so the distance
    # collapses from positive to zero.
    assert density_profile(fans[0], samples=1) > 0
    assert density_profile(fans[1], samples=1) == 0


def test_tightness_experiment_ratio_climbs():
    table = tightness_experiment(2, 3, digits=6)
    assert [row["depth"] for row in table] == [0, 1, 2, 3]
    assert [row["cones"] for row in table] == [3, 6, 12, 24]
    ratios = [row["ratio"] for row in table]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(0 < r < 1 for r in ratios)


def test_lift_rejects_empty_interval_when_facets_collapse():
    # Corrupt a fan so a barycenter coincides with an existing ray: the
    # scaled point can no longer rise above its parent facet alone.
    fans = build_subdivision_fans(2, 1)
    broken = fans[1]
    bad = [list(r) for r in broken.rays]
    with pytest.raises(EmptyAlphaInterval):
        twisted = SubdivisionFan(
            n=2,
            depth=1,
            rays=[tuple(r) for r in bad[:3]] + [bad[0], bad[1], bad[2]],
            cones=broken.cones,
            parent=broken.parent,
        )
        lift_polytope([fans[0], twisted])


@pytest.mark.parametrize("n, k_max", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_integer_lift_matches_the_fraction_oracle(n, k_max):
    fans = build_subdivision_fans(n, k_max)
    for k in range(k_max + 1):
        assert lift_polytope(fans[: k + 1]).scaling == fraction_lift(fans[: k + 1])


def _error_text(lift, fans) -> str:
    with pytest.raises(EmptyAlphaInterval) as caught:
        lift(fans)
    return str(caught.value)


def test_empty_interval_texts_match_the_fraction_oracle():
    fans = build_subdivision_fans(2, 1)
    rays = fans[1].rays
    # A barycenter equal to ray 0, which caps it at its own lower end; and
    # the first barycenter reversed, which points away from its parent facet.
    twisted = SubdivisionFan(2, 1, rays[:3] + rays[:3], fans[1].cones, fans[1].parent)
    reversed_ray = tuple(-x for x in rays[3])
    outward = SubdivisionFan(
        2, 1, rays[:3] + [reversed_ray] + rays[4:], fans[1].cones, fans[1].parent
    )
    texts = []
    for broken in (twisted, outward):
        text = _error_text(lift_polytope, [fans[0], broken])
        assert text == _error_text(fraction_lift, [fans[0], broken])
        texts.append(text)
    assert texts == [
        "no admissible scale at depth 1: (1, 1)",
        "barycenter ray leaves through its own facet at depth 1",
    ]


def _height(normal, point) -> int:
    """A positive multiple of <u, q> - 1, u = U / D and q = P / c, in integers."""
    (u, d), (ints, c) = normal, point
    return dot(u, ints) * c.denominator - d * c.numerator


@pytest.mark.parametrize("n, k", [(2, 4), (3, 3), (4, 2)])
def test_each_lifted_point_is_beyond_its_parent_facet_only(n, k):
    # Replays the facet set on the integer normals of the lifted points: each
    # new point lies strictly beyond the facet it subdivides and strictly
    # beneath every other current facet, and each normal is tight at the n
    # points of its cone.
    fans = build_subdivision_fans(n, k)
    scaling = lift_polytope(fans).scaling
    ints, scales = integer_rows(fans[-1].rays)
    points = [(v, s / alpha) for v, s, alpha in zip(ints, scales, scaling)]

    def normal(cone):
        u, d = _facet_normal([points[r] for r in cone])
        assert d > 0 and math.gcd(*u, d) == 1
        assert all(_height((u, d), points[r]) == 0 for r in cone)
        return u, d

    facets = {cone: normal(cone) for cone in fans[0].cones}
    for depth in range(1, k + 1):
        prev, fan = fans[depth - 1], fans[depth]
        children = {}
        for cone, parent in zip(fan.cones, fan.parent):
            children.setdefault(parent, []).append(cone)
        for ci, parent_cone in enumerate(prev.cones):
            b = len(prev.rays) + ci
            assert _height(facets.pop(parent_cone), points[b]) > 0
            assert all(_height(f, points[b]) < 0 for f in facets.values())
            for child in children[ci]:
                facets[child] = normal(child)
    assert set(facets) == set(fans[-1].cones)
    for cone, f in facets.items():
        assert all(_height(f, q) < 0 for i, q in enumerate(points) if i not in cone)
