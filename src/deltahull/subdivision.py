"""Iterated barycentric facet subdivision and the lifted simplicial polytopes.

The base object is the integer sum-zero simplex with vertex columns
(n+1)e_i - 1 and the all-minus-ones column. Each subdivision step replaces
every facet simplex by the n simplices through its barycenter, multiplying
the cone count by n and dividing each cone determinant by n exactly. Lifting
scales each barycenter ray just past the facet it subdivides, producing a
simplicial polytope whose facet cones reproduce the fan. That polytope is
kept as its fan and the scale of each ray; its polar,
{x : <ray_i, x> <= 1/scale_i}, is the instance `generate` writes. The lift
holds each facet as an integer normal (U, D) from one adjugate and scans the
facets in integers; each new ray costs one Fraction scale.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from . import linalg, model
from .errors import EmptyAlphaInterval
from .linalg import dot

Rows = tuple[int, ...]
Point = tuple[Fraction, ...]


@dataclass
class SubdivisionFan:
    """Depth-k fan: rays indexed 0.., cones as n-tuples of ray indices."""

    n: int
    depth: int
    rays: list[Point]
    cones: list[Rows]
    parent: list[int]  # cone position at depth-1 that spawned each cone; -1 at depth 0


def base_simplex(n: int) -> list[Point]:
    """Vertex columns of the sum-zero integer simplex in dimension n."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    cols = []
    for i in range(n):
        cols.append(
            tuple(Fraction((n + 1) if j == i else 0) - 1 for j in range(n))
        )
    cols.append(tuple(Fraction(-1) for _ in range(n)))
    return cols


def base_fan(n: int) -> SubdivisionFan:
    rays = base_simplex(n)
    cones = [tuple(c) for c in combinations(range(n + 1), n)]
    return SubdivisionFan(n, 0, rays, cones, [-1] * len(cones))


def subdivide_fan(fan: SubdivisionFan) -> SubdivisionFan:
    """One barycentric step: every cone splits into n children."""
    n = fan.n
    rays = list(fan.rays)
    cones: list[Rows] = []
    parent: list[int] = []
    for ci, cone in enumerate(fan.cones):
        b = tuple(
            sum((fan.rays[r][t] for r in cone), Fraction(0)) / n
            for t in range(n)
        )
        b_idx = len(rays)
        rays.append(b)
        for r in cone:
            child = tuple(sorted(set(cone) - {r} | {b_idx}))
            cones.append(child)
            parent.append(ci)
    return SubdivisionFan(n, fan.depth + 1, rays, cones, parent)


def build_subdivision_fans(n: int, k: int) -> list[SubdivisionFan]:
    """Fans of every depth 0..k."""
    fans = [base_fan(n)]
    for _ in range(k):
        fans.append(subdivide_fan(fans[-1]))
    return fans


def expected_counts(n: int, k: int) -> dict[str, int]:
    """Closed-form cone count, fan-graph diameter, and delta ratio.

    For n = 2 the depth-k fan is a complete planar fan of 3*2^k sectors.
    Each sector meets exactly two others, across its two bounding rays, so
    the fan graph is a cycle of that length and its diameter is
    floor(3*2^k / 2): 1, 3, 6, 12, 24, ... For n >= 3 the diameter
    2^(k+1) - 1 is not proven here; it matches the measured fan graphs for
    n = 3 up to k = 5, n = 4 up to k = 4 and n = 5 up to k = 3.
    """
    return {
        "cones": (n + 1) * n**k,
        "diameter": (3 * 2**k) // 2 if n == 2 else 2 ** (k + 1) - 1,
        "delta_ratio": n**k,
    }


@dataclass
class LiftedPolytope:
    """Simplicial polytope whose facet cones are the depth-k fan."""

    fan: SubdivisionFan
    scaling: list[Fraction]

    def dual_polyhedron(self) -> model.HPolyhedron:
        """Polar polytope {x : <ray_i, x> <= 1/scale_i} as an instance."""
        return model.make_polyhedron(
            self.fan.rays,
            [1 / s for s in self.scaling],
            name=f"subdivision-dual-n{self.fan.n}-k{self.fan.depth}",
        )


def _facet_normal(points) -> tuple[tuple[int, ...], int]:
    """(U, D), D > 0 and the pair in lowest terms, with u = U / D the normal
    <u, q> = 1 at each point q given in integer form (s q, s): one adjugate
    solves <u, s q> = s, the scales cleared into an integer right-hand side."""
    clear = lcm(*(s.denominator for _, s in points))
    rhs = [s.numerator * (clear // s.denominator) for _, s in points]
    det, adj = linalg.adjugate([ints for ints, _ in points])
    u = [dot(row, rhs) for row in adj]
    g = gcd(*u, det) if det > 0 else -gcd(*u, det)
    return tuple(x // g for x in u), det * clear // g


def lift_polytope(fans: list[SubdivisionFan]) -> LiftedPolytope:
    """Scale each barycenter ray so it beats exactly its parent facet.

    Processes depths in order, keeping the running facet set, each facet T
    as its integer normal (U_T, D_T) with u_T = U_T / D_T. For a parent
    facet T, the new ray v = V / s (V its primitive integer row) gets a scale
    alpha in the open interval (1/<u_T,v>, min over other facets of
    1/<u_F,v>), taken at the midpoint, or twice the lower end when no other
    facet caps it. The scan compares w_F = U_F.V / D_F in integers by
    cross-multiplying; only lo, hi and alpha are Fractions, and the lifted
    point alpha v is stored in integer form as (V, s / alpha). The facet T
    is then replaced by its n children through the new vertex.
    """
    base = fans[0]
    scaling: list[Fraction] = [Fraction(1)] * len(base.rays)
    # lifted vertices
    points = [linalg.integer_row([x.as_integer_ratio() for x in ray]) for ray in base.rays]
    facets = {cone: _facet_normal([points[r] for r in cone]) for cone in base.cones}
    for depth in range(1, len(fans)):
        prev, fan = fans[depth - 1], fans[depth]
        for ci, parent_cone in enumerate(prev.cones):
            b = len(prev.rays) + ci  # subdivide_fan appends one barycenter per cone
            ints, s = linalg.integer_row([x.as_integer_ratio() for x in fan.rays[b]])
            u_t, d_t = facets.pop(parent_cone)
            denom = dot(u_t, ints)
            if denom <= 0:
                raise EmptyAlphaInterval(
                    f"barycenter ray leaves through its own facet at depth {depth}"
                )
            lo = Fraction(d_t, denom) * s
            best = None  # (U_F.V, D_F) of the largest positive w_F
            for u_f, d_f in facets.values():
                w = dot(u_f, ints)
                if w > 0 and (best is None or w * best[1] > best[0] * d_f):
                    best = (w, d_f)
            hi = None if best is None else Fraction(best[1], best[0]) * s
            if hi is not None and hi <= lo:
                raise EmptyAlphaInterval(
                    f"no admissible scale at depth {depth}: ({lo}, {hi})"
                )
            alpha = (lo + hi) / 2 if hi is not None else 2 * lo
            assert len(scaling) == b
            scaling.append(alpha)
            points.append((ints, s / alpha))
            for child in fan.cones[fan.n * ci : fan.n * (ci + 1)]:  # its n children, in order
                facets[child] = _facet_normal([points[q] for q in child])
    final = fans[-1]
    assert set(facets) == set(final.cones)
    return LiftedPolytope(final, scaling)


def normalize_rays(rays: list[Point], digits: int) -> list[Point]:
    """Rays rescaled to unit length, entries rounded exactly to 10^-digits,
    halves away from zero: for the ray cleared to integers Y, S = |Y|^2 and
    T = 10^digits, |Y_i| T / sqrt(S) rounds to (isqrt(4 Y_i^2 T^2 // S) + 1) // 2."""
    scale = 10**digits
    out = []
    for ray in rays:
        ints, _ = linalg.integer_row([x.as_integer_ratio() for x in ray])
        norm2 = dot(ints, ints)
        if norm2 == 0:
            raise ValueError("zero ray cannot be normalized")
        rounded = ((isqrt(4 * (y * scale) ** 2 // norm2) + 1) // 2 for y in ints)
        out.append(tuple(Fraction(r if y >= 0 else -r, scale) for r, y in zip(rounded, ints)))
    return out
