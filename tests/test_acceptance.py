"""End-to-end acceptance gate.

One test per criterion; each records a PASS/FAIL line for the terminal
summary before asserting, so the final report always lists every verdict.
Criteria 3-9 share the session-scoped fuzz corpus plus the generated
subdivision duals as their instance corpus.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from deltahull import counting, graphs, hull, stats, subdivision
from deltahull.errors import BoundViolated

from conftest import DEGENERATE_FAMILY, record_criterion, standard_simplex
from helpers import (
    abs_det,
    build_fan_graph,
    count_minors,
    floor_holds,
    integer_rows,
    knapsack_bound_check,
    rows_of,
    tightness_experiment,
    totally_unimodular_transform,
    verify_total_unimodularity,
)


@pytest.fixture(scope="module")
def generated_duals():
    """Lifted dual polytopes for n in {2,3}, depth <= 3, fully analyzed."""
    out = []
    for n in (2, 3):
        fans = subdivision.build_subdivision_fans(n, 3)
        for k in range(4):
            lifted = subdivision.lift_polytope(fans[: k + 1])
            p = lifted.dual_polyhedron()
            result = hull.run_enumeration(p)
            t = result.triangulation
            st = stats.triangulation_stats(p.ints, p.scales, t.cones, t.dets)
            out.append((n, k, fans[k], p, result, st))
    return out


def full_corpus(generated_duals, corpus_analysis):
    return [
        (p, result, st) for _, _, _, p, result, st in generated_duals
    ] + corpus_analysis


def test_criterion_01_subdivision_family_exactness():
    t0 = time.perf_counter()
    mismatches = []
    for n in (2, 3, 4):
        fans = subdivision.build_subdivision_fans(n, 4)
        for k, fan in enumerate(fans):
            expected = subdivision.expected_counts(n, k)
            cone_count = len(fan.cones)
            g = build_fan_graph(fan.cones, fan.rays)
            diameter = graphs.graph_diameter(g)
            delta, _ = stats.delta_max(*integer_rows(fan.rays))
            ints, scales = integer_rows(fan.rays)
            ratio = delta / min(abs_det(ints, scales, c) for c in fan.cones)
            if (
                cone_count != expected["cones"]
                or diameter != expected["diameter"]
                or ratio != expected["delta_ratio"]
            ):
                mismatches.append(
                    f"n={n} k={k}: cones {cone_count} (want {expected['cones']}), "
                    f"diameter {diameter} (want {expected['diameter']}), "
                    f"ratio {ratio} (want {expected['delta_ratio']})"
                )
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    detail = f"n in 2..4, k <= 4, {elapsed:.1f}s"
    if mismatches:
        detail += "; " + "; ".join(mismatches)
    record_criterion(1, "subdivision family exactness", ok, detail)
    assert ok, mismatches


def test_criterion_02_dual_polytope_round_trip(generated_duals):
    t0 = time.perf_counter()
    mismatches = []
    for n, k, fan, p, result, _ in generated_duals:
        expected = subdivision.expected_counts(n, k)
        vertex_count = len(result.vertices)
        g = graphs.build_polytope_graph(result)
        diameter = graphs.graph_diameter(g)
        if vertex_count != expected["cones"] or diameter != expected["diameter"]:
            mismatches.append(
                f"n={n} k={k}: vertices {vertex_count} (want {expected['cones']}), "
                f"diameter {diameter} (want {expected['diameter']})"
            )
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    detail = f"n in 2..3, k <= 3, {elapsed:.1f}s"
    if mismatches:
        detail += "; " + "; ".join(mismatches)
    record_criterion(2, "dual polytope round trip", ok, detail)
    assert ok, mismatches


def test_criterion_03_vertex_count_bound(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    instances = full_corpus(generated_duals, corpus_analysis)
    for p, result, st in instances:
        try:
            reports = stats.check_fan_bounds(st, len(result.vertices))
        except BoundViolated as exc:
            violations.append(f"{p.name}: {exc}")
            continue
        assert reports["vertex-count"]["passed"]
    elapsed = time.perf_counter() - t0
    ok = not violations
    record_criterion(
        3,
        "vertex count bound",
        ok,
        f"{len(instances)} instances, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations


def test_criterion_04_fan_volume_bound(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    instances = full_corpus(generated_duals, corpus_analysis)
    for p, result, st in instances:
        try:
            reports = stats.check_fan_bounds(st, len(result.vertices))
        except BoundViolated as exc:
            violations.append(f"{p.name}: {exc}")
            continue
        assert reports["fan-volume"]["passed"] and reports["cone-count"]["passed"]
    elapsed = time.perf_counter() - t0
    ok = not violations
    record_criterion(
        4,
        "fan volume bound",
        ok,
        f"{len(instances)} instances, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations


def test_criterion_05_tightness_trend():
    t0 = time.perf_counter()
    table = tightness_experiment(2, 6, digits=6)
    ratios = [row["ratio"] for row in table]
    monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
    final_ok = ratios[-1] > 0.9
    elapsed = time.perf_counter() - t0
    ok = monotone and final_ok
    record_criterion(
        5,
        "tightness trend",
        ok,
        f"ratios {[round(r, 4) for r in ratios]}, {elapsed:.1f}s",
    )
    assert monotone, ratios
    assert final_ok, ratios


def test_criterion_06_totally_unimodular_transform(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    checked = skipped = 0
    for p, result, st in full_corpus(generated_duals, corpus_analysis):
        if count_minors(p.m, p.n) > stats.DEFAULT_BUDGET:
            skipped += 1
            continue
        transformed = totally_unimodular_transform(rows_of(p), st.witness)
        if not verify_total_unimodularity(transformed):
            violations.append(p.name)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not violations
    record_criterion(
        6,
        "totally unimodular transform",
        ok,
        f"{checked} checked, {skipped} beyond minor budget, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations


def test_criterion_07_delta_distance_floor(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    instances = full_corpus(generated_duals, corpus_analysis)
    for p, result, st in instances:
        try:
            bounds = stats.verify_bounds(
                p, st, result.triangulation, len(result.vertices), diameter=None
            )
        except BoundViolated as exc:
            violations.append(f"{p.name}: {exc}")
            continue
        assert floor_holds(bounds["delta-distance-floor"])
    elapsed = time.perf_counter() - t0
    ok = not violations
    record_criterion(
        7,
        "delta distance floor",
        ok,
        f"{len(instances)} instances, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations


def test_criterion_08_tau_diameter_certificate(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    instances = full_corpus(generated_duals, corpus_analysis)
    for p, result, st in instances:
        diameter = graphs.graph_diameter(graphs.build_polytope_graph(result))
        try:
            bounds = stats.verify_bounds(
                p, st, result.triangulation, len(result.vertices), diameter
            )
        except BoundViolated as exc:
            violations.append(f"{p.name}: {exc}")
            continue
        assert bounds["tau-diameter"]["passed"]
    elapsed = time.perf_counter() - t0
    ok = not violations
    record_criterion(
        8,
        "tau diameter certificate",
        ok,
        f"{len(instances)} instances incl. unbounded, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations


def test_criterion_09_oracle_equivalence(generated_duals, corpus_analysis):
    t0 = time.perf_counter()
    mismatches = []
    checked = skipped = 0
    degenerate = [(build(), None, None) for build in DEGENERATE_FAMILY]
    pool = full_corpus(generated_duals, corpus_analysis) + degenerate
    for p, result, _ in pool:
        if math.comb(p.m, p.n) > 10**5:
            skipped += 1
            continue
        if result is None:
            result = hull.run_enumeration(p)
        oracle = hull.enumerate_all_bases_oracle(p)
        got = {v.point: v.tight for v in result.vertices}
        want = {v.point: v.tight for v in oracle.vertices}
        if got != want:
            mismatches.append(p.name)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    record_criterion(
        9,
        "enumeration oracle equivalence",
        ok,
        f"{checked} instances, {skipped} beyond C(m,n) cap, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(mismatches[:3])),
    )
    assert ok, mismatches


def test_criterion_10_counting_oracle():
    t0 = time.perf_counter()
    ehrhart_bad = []
    for n in (1, 2, 3):
        for t in range(0, 7):
            p = standard_simplex(n, t)
            result = hull.run_enumeration(p)
            got = counting.count_integer_points_bruteforce(p, result).count
            want = math.comb(t + n, n)
            if got != want:
                ehrhart_bad.append(f"n={n} t={t}: {got} != {want}")
    rng = random.Random(4700)
    functions = [lambda v: v, lambda v: v * v, lambda v: v * v * v]
    knapsack_bad = 0
    sweeps = 10_000
    for _ in range(sweeps):
        alpha = Fraction(rng.randint(1, 8), rng.choice([1, 1, 2]))
        beta = alpha + Fraction(rng.randint(0, 12))
        remaining = beta
        xs = []
        while remaining > 0 and len(xs) < 10 and rng.random() < 0.85:
            v = Fraction(rng.randint(0, 16), 4)
            v = min(v, alpha, remaining)
            xs.append(v)
            remaining -= v
        for f in functions:
            if not knapsack_bound_check(xs, alpha, beta, f):
                knapsack_bad += 1
    elapsed = time.perf_counter() - t0
    ok = not ehrhart_bad and knapsack_bad == 0
    record_criterion(
        10,
        "counting oracle",
        ok,
        f"dilations n<=3 t<=6 exact, {sweeps}x3 capped-sum checks, {elapsed:.1f}s"
        + ("" if ok else f"; ehrhart {ehrhart_bad[:2]}, knapsack {knapsack_bad}"),
    )
    assert ok, (ehrhart_bad, knapsack_bad)


def test_criterion_11_work_linearity(corpus_analysis):
    t0 = time.perf_counter()
    violations = []
    simple_count = 0
    for p, result, _ in corpus_analysis:
        if not result.bounded or not all(v.simple for v in result.vertices):
            continue
        simple_count += 1
        c = result.counters
        if c.bases_visited != len(result.triangulation.cones):
            violations.append(
                f"{p.name}: visited {c.bases_visited} != cones {len(result.triangulation.cones)}"
            )
        if c.max_basis_mults > 8 * p.n * p.m:
            violations.append(
                f"{p.name}: per-basis work {c.max_basis_mults} > 8nm {8 * p.n * p.m}"
            )
    elapsed = time.perf_counter() - t0
    ok = not violations and simple_count > 0
    record_criterion(
        11,
        "work linearity",
        ok,
        f"{simple_count} simple bounded instances, cap 8*n*m, {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(violations[:3])),
    )
    assert ok, violations
