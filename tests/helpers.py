"""Test-only helpers with no caller in the package: a rational matrix
builder, the fan document loader, and the capped-sum bucket bound behind
acceptance criterion 10."""

from fractions import Fraction
from math import floor

from deltahull.errors import ParseError, PreconditionViolated
from deltahull.linalg import Mat, frac
from deltahull.serialize import parse_json, parse_rational
from deltahull.subdivision import SubdivisionFan


def to_matrix(rows) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def load_fan_json(text: str) -> SubdivisionFan:
    doc = parse_json(text)
    try:
        rays = [tuple(parse_rational(x) for x in ray) for ray in doc["rays"]]
        cones = [tuple(int(i) for i in c) for c in doc["cones"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed fan document: {exc}") from None
    n = int(doc.get("n", len(rays[0]) if rays else 0))
    depth = int(doc.get("depth", 0))
    parent = [int(x) for x in doc.get("parent", [-1] * len(cones))]
    for c in cones:
        if len(c) != n or any(i < 0 or i >= len(rays) for i in c):
            raise ParseError(f"cone {c} does not index the rays")
    return SubdivisionFan(n, depth, rays, cones, parent)


def knapsack_bound_check(x, alpha, beta, f) -> bool:
    """Sum of f over a capped vector against floor(beta/alpha + 1) * f(alpha).

    Requires 0 <= x_i <= alpha and sum(x) <= beta, with f convex,
    nondecreasing, and f(0) = 0; under those conditions the inequality is a
    theorem, so False from this function indicates a broken f.
    """
    alpha = frac(alpha)
    beta = frac(beta)
    xs = [frac(v) for v in x]
    if alpha <= 0 or beta <= 0:
        raise PreconditionViolated("alpha and beta must be positive")
    if any(v < 0 or v > alpha for v in xs):
        raise PreconditionViolated("entries must lie in [0, alpha]")
    if sum(xs, Fraction(0)) > beta:
        raise PreconditionViolated("entries must sum to at most beta")
    lhs = sum((frac(f(v)) for v in xs), Fraction(0))
    buckets = floor(beta / alpha) + 1
    return lhs <= buckets * frac(f(alpha))
