"""Subdeterminant statistics and the bound certificates built on them.

Each result has one entry point: delta_max (the Delta search, with a witness
basis), triangulation_stats (per-triangulation averages, minima and exact fan
volumes), cone_distance_certificate (the basis-distance number behind the
diameter certificate), and the report's bound blocks. Every bound verdict the
CLI reports is decided and built here, each raising BoundViolated on failure:
check_fan_bounds gives the fan bounds of the `stats` report, exact up to
RELATIVE_SLACK, and verify_bounds the whole `bounds` section of `verify`
(those, the unimodularity certificate, the distance floor, the tau-diameter);
display floats are null out of range. Total unimodularity needs no check: by
Jacobi's complementary-minor identity every minor of A (A_W)^-1 is
+-det(A_S)/Delta, so the witness W of a returned Delta search certifies it.

A Delta search node on integer rows b_1..b_k keeps d_t = det G(b_1..b_t),
d_0 = 1, and lambda_{t,s} = d_s mu_{t,s} for s < t (integral Gram-Schmidt,
Cohen 1993, 2.6). Its child adding b_{k+1} runs, for s = 1..k+1 from
u = b_{k+1}.b_s, u <- (d_r u - lambda_{k+1,r} lambda_{s,r}) / d_{r-1} over
r < s, each division exact (Bareiss 1968): u ends as lambda_{k+1,s}, and as
d_{k+1} at s = k+1. Once a d_t is 0, so is every descendant's.

The distance certificate measures, for each cone C of the triangulation and
each position pos in it, sin^2 of the angle between row i = C[pos] of
A (A_W)^-1 and the span of the cone's other rows, W being the Delta
witness. With M = diag(s) A the integer rows (`ints`), (A_W)^-1 =
adj_W diag(s_W) / det_W. Take the integer column scalings D = L diag(s_W)
and D' = L' diag(1/s_W), L the lcm of the denominators of s_W and L' that
of their numerators. Since sin^2 ignores positive row scales, and
adj(XY) = adj(Y) adj(X) and adj(adj M_W) = det_W^(n-2) M_W,

    sin^2(C, pos) = (det_C det_W L L')^2
                    / (|ints_i adj_W D|^2 * |D' M_W adj_C[:, pos]|^2),

all in integers, from the (det_C, adj_C) the enumeration kept for C.
The tests keep the rational route to the same minimum (the matrix
A (A_W)^-1, then one adjugate per cone) and the full minor scan as oracles.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import factorial, gamma, lcm, log, pi, prod

from . import hull, linalg, model, serialize
from .errors import BoundViolated, BudgetExceeded, SingularMatrix
from .linalg import dot

Rows = tuple[int, ...]

DEFAULT_BUDGET = 100_000


def delta_max(ints, scales, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Rows]:
    """Largest |det| over all n-row submatrices of the rows ints_i / s_i
    (HPolyhedron.ints and .scales, or linalg.integer_row of each row's
    (num, den) pairs), with its witness rows.

    One exact branch and bound at every budget: rows in norm-descending
    order, and a subtree is dropped only when its Gram-determinant x
    remaining-norms (Hadamard-Fischer) bound is strictly below the best
    value found. Each node's Gram determinant is one step of the integral
    Gram-Schmidt recurrence (module docstring) from its parent's. Ties
    resolve to the lexicographically smallest witness in original row order;
    a matrix of rank < n gives (0, (0, ..., n-1)), and one with fewer rows
    than columns (0, ()), having no n-row submatrix. Raises BudgetExceeded
    past 50x `budget` search nodes; the tree has at most C(m+1, n) nodes.
    Squared determinants and norms of the rational rows are (num, den > 0)
    int pairs, the integer rows' own times the weights 1/s_i^2, compared by
    cross-multiplying; one Fraction, at the end.
    """
    m, n = len(ints), len(ints[0])
    if m < n:
        return Fraction(0), ()
    w_num, w_den = [s.denominator**2 for s in scales], [s.numerator**2 for s in scales]
    norms = [(dot(r, r) * a, b) for r, a, b in zip(ints, w_num, w_den)]

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

    def child(node, j):
        """node plus row j: (chosen rows, d, lambda rows (s < t), weight num, den)."""
        chosen, d, lam, wn, wd = node
        chosen, row = chosen + (j,), []
        lam += (row,)
        for s, i in enumerate(chosen if d[-1] else ()):  # d = 0 stays 0
            u = dot(ints[j], ints[i])
            for r in range(s):
                u = (d[r + 1] * u - row[r] * lam[s][r]) // d[r]
            row.append(u)
        return chosen, d + (row.pop() if row else 0,), lam, wn * w_num[j], wd * w_den[j]

    best_num, best_den, witness = 0, 1, tuple(range(n))
    node_cap, nodes = 50 * budget, 0
    # (parent, row it adds, next position); the root adds no row
    stack = [(((), (1,), (), 1, 1), None, 0)]
    while stack:
        parent, j, start = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"subdeterminant search exceeded {node_cap} nodes")
        node = parent if j is None else child(parent, j)
        chosen, d, _, wn, g_den = node
        k, g_num = len(chosen), d[-1] * wn
        if k == n:
            gain = g_num * best_den - best_num * g_den
            if gain > 0 or (gain == 0 and tuple(sorted(chosen)) < witness):
                best_num, best_den, witness = g_num, g_den, tuple(sorted(chosen))
            continue
        lhs, rhs = g_num * best_den, best_num * g_den  # g * top < best, cross-multiplied
        children = []
        for pos in range(start, m - (n - k) + 1):
            # ties may hide the lex-min witness: prune only on strict loss
            top_num, top_den = suffix_top[pos][n - k]
            if lhs * top_num < rhs * top_den:
                break
            children.append((node, order[pos], pos + 1))
        stack.extend(reversed(children))
    best_sq = Fraction(best_num, best_den).as_integer_ratio()
    return Fraction(*map(linalg.isqrt_exact, best_sq)), witness


@dataclass
class FanStats:
    """Exact statistics of a simplicial-cone family drawn from matrix rows;
    each cone's |det| is an int pair (num, den > 0) in `cone_pairs`."""

    delta: Fraction
    witness: Rows
    delta_avg: Fraction
    delta_min: Fraction
    cone_count: int
    fan_volume: Fraction
    cone_pairs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.witness)


def triangulation_stats(
    ints, scales, cones: list[Rows], int_dets, budget: int = DEFAULT_BUDGET
) -> FanStats:
    """Delta plus per-triangulation average, minimum, and exact volume of the
    rows ints_i / s_i (HPolyhedron.ints and .scales, or linalg.integer_row of
    each row's (num, den) pairs). SingularMatrix if a cone's |det| is 0.
    A cone's |det| is int_dets[cone], the |det| of its integer rows as
    hull.Triangulation.dets holds it, over the product of their scales, kept
    as (int_det * prod den s_i, prod num s_i); the minimum cross-multiplies,
    the sum is over the lcm of the pair denominators, and only the three
    results become Fractions."""
    if not cones:
        raise ValueError("empty cone list")
    s_num, s_den = [s.numerator for s in scales], [s.denominator for s in scales]
    pairs = tuple(
        (int_dets[c] * prod(s_den[i] for i in c), prod(s_num[i] for i in c)) for c in cones
    )
    low = min(pairs, key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    if low[0] == 0:
        raise SingularMatrix("triangulation contains a singular cone")
    delta, witness = delta_max(ints, scales, budget)
    den = lcm(*(b for _, b in pairs))
    total = sum(a * (den // b) for a, b in pairs)
    return FanStats(
        delta=delta,
        witness=witness,
        delta_avg=Fraction(total, den * len(pairs)),
        delta_min=Fraction(*low),
        cone_count=len(pairs),
        fan_volume=Fraction(total, den * factorial(len(ints[0]))),
        cone_pairs=pairs,
    )


def unit_ball_volume(n: int) -> float:
    """Volume of the n-dimensional Euclidean unit ball."""
    return pi ** (n / 2) / gamma(n / 2 + 1)


RELATIVE_SLACK = 1e-9


def _check(name: str, lhs_exact, factor, ball: float, rhs_desc: str) -> dict:
    """lhs_exact <= factor * ball up to RELATIVE_SLACK in exact rationals; floats for display."""
    lhs, rhs = serialize.display_float(lhs_exact), serialize.display_float(factor, ball)
    passed = lhs_exact <= factor * Fraction(ball) * Fraction(1 + RELATIVE_SLACK)
    report = {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "lhs_exact": serialize.rational_str(lhs_exact),
        "rhs_exact": rhs_desc,
        "passed": passed,
    }
    if not passed:
        raise BoundViolated(f"{name}: {lhs} > {rhs}")
    return report


def check_fan_bounds(fan_stats: FanStats, vertex_count: int) -> dict[str, dict]:
    """The vertex and cone counts against n! * (delta / delta_avg) * vol(unit
    ball), and the fan volume against delta * vol(unit ball), as report blocks.

    Raises BoundViolated at the first failure, in the order: vertex count
    above the cone count, vertex-count, fan-volume, cone-count.
    """
    delta, cones = fan_stats.delta, fan_stats.cone_count
    if vertex_count > cones:
        raise BoundViolated(f"vertex count {vertex_count} exceeds cone count {cones}")
    n, ball = fan_stats.n, unit_ball_volume(fan_stats.n)
    count_factor = factorial(n) * delta / fan_stats.delta_avg
    delta_text, avg_text = map(serialize.rational_str, (delta, fan_stats.delta_avg))
    count_desc = f"{factorial(n)}*(({delta_text})/({avg_text}))*vol_ball({n})"
    volume, volume_desc = fan_stats.fan_volume, f"{delta_text}*vol_ball({n})"
    return {
        "vertex-count": _check("vertex-count", vertex_count, count_factor, ball, count_desc),
        "fan-volume": _check("fan-volume", volume, delta, ball, volume_desc),
        "cone-count": _check("cone-count", cones, count_factor, ball, count_desc),
    }


@dataclass
class DistanceCertificate:
    """Worst basis-row angle over a cone family, kept as an exact square."""

    sin_sq_min: Fraction
    basis: Rows
    row: int

    @property
    def distance(self) -> float:
        return float(self.sin_sq_min) ** 0.5


def cone_distance_certificate(
    p: model.HPolyhedron, witness: Rows, triangulation: hull.Triangulation
) -> DistanceCertificate:
    """The least sin^2 between a row of A (A_W)^-1 and the span of the other
    rows of its cone, over the triangulation's cones, by the module
    docstring's identity on p's integer rows: one row norm per
    row, one n x n by n product per cone on the adjugate it kept, candidates
    compared as (num, den) pairs with the first minimum in (cone, position)
    order winning, and one Fraction, for the minimum."""
    ws = [p.scales[i] for i in witness]
    clear, clear_num = lcm(*(s.denominator for s in ws)), lcm(*(s.numerator for s in ws))
    det_w, adj_w = model.basis_adjugate(p, witness)
    d = [clear // s.denominator * s.numerator for s in ws]  # L s_W
    d_prime = [clear_num // s.numerator * s.denominator for s in ws]  # L' / s_W
    # ints_i adj_W D is a positive multiple of row i of A (A_W)^-1
    t_cols = [p.products([line[j] * d[j] for line in adj_w]) for j in range(p.n)]
    row_sq = [dot(t, t) for t in zip(*t_cols)]
    scaled_w = [[c * x for x in p.ints[i]] for c, i in zip(d_prime, witness)]  # D' M_W
    best = None  # (det_C^2, |ints_i adj_W D|^2 |D' M_W adj_C[:, pos]|^2, C, i)
    for rows in triangulation.cones:
        det_sq = triangulation.dets[rows] ** 2
        for i, col in zip(rows, zip(*triangulation.adjugates[rows])):
            v = [dot(line, col) for line in scaled_w]
            den = row_sq[i] * dot(v, v)
            if best is None or det_sq * best[1] < best[0] * den:
                best = (det_sq, den, rows, i)
    if best is None:
        raise ValueError("no bases given")
    num, den, basis, row = best
    scale = det_w * clear * clear_num
    return DistanceCertificate(Fraction(num * scale * scale, den), basis, row)


def verify_bounds(
    p: model.HPolyhedron,
    fan_stats: FanStats,
    triangulation: hull.Triangulation,
    vertex_count: int,
    diameter: int | None,
) -> dict[str, dict]:
    """verify's `bounds` section, raising BoundViolated at the first failure
    in the order: the fan bounds (check_fan_bounds), the distance floor, the
    tau-diameter.

    The Delta search returned, so its witness certifies total unimodularity
    (module docstring). The distance certificate over the triangulation's
    cones (cone_distance_certificate) must reach (delta_min / (n delta))^2;
    tau is its square root over n, and the graph diameter must stay within
    8n/tau * (1 + ln(1/tau)). An unbounded instance (diameter None) skips
    that check; a tau of 0.0 (sin^2 below the float range) passes it with a
    null bound, since the bound then exceeds 10^160.
    """
    bounds = check_fan_bounds(fan_stats, vertex_count)
    bounds["total-unimodularity"] = {"certificate": "delta-witness", "passed": True}
    cert = cone_distance_certificate(p, fan_stats.witness, triangulation)
    n = p.n
    floor = fan_stats.delta_min / (n * fan_stats.delta)
    if cert.sin_sq_min < floor * floor:
        raise BoundViolated(f"distance {float(cert.sin_sq_min)}^(1/2) below floor {floor}")
    bounds["delta-distance-floor"] = {
        "passed": True,
        "sin_sq_min": cert.sin_sq_min,
        "floor": floor,
        "delta_distance_float": cert.distance,
    }
    if diameter is None:
        bounds["tau-diameter"] = {"skipped": True, "reason": "unbounded instance"}
        return bounds
    tau = cert.distance / n
    bound = serialize.display_float(8 * n / tau * (1 + log(1 / tau))) if tau else None
    if bound is not None and diameter > bound * (1 + RELATIVE_SLACK):
        raise BoundViolated(f"diameter {diameter} above bound {bound}")
    bounds["tau-diameter"] = {"passed": True, "diameter": diameter, "bound": bound, "tau": tau}
    return bounds
