"""Integer-point counting oracle, the counting-cost figures, and the
bucket bound for convex functions on capped knapsack vectors."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .errors import BudgetExceeded, PreconditionViolated, Unbounded
from .linalg import frac
from .model import HPolyhedron
from .stats import FanStats

DEFAULT_CELL_BUDGET = 10**7


@dataclass
class CountReport:
    count: int
    box: list[tuple[int, int]]
    cells_scanned: int


def integer_box(vertices) -> list[tuple[int, int]]:
    """Per-coordinate integer candidate range from exact vertex coordinates."""
    n = len(vertices[0].point)
    box = []
    for t in range(n):
        coords = [v.point[t] for v in vertices]
        box.append((ceil(min(coords)), floor(max(coords))))
    return box


def count_integer_points_bruteforce(
    p: HPolyhedron, result, budget: int = DEFAULT_CELL_BUDGET
) -> CountReport:
    """Exact |P intersect Z^n| by scanning the vertex bounding box."""
    if result.rays:
        raise Unbounded("cannot box-scan an unbounded polyhedron")
    box = integer_box(result.vertices)
    cells = 1
    for lo, hi in box:
        cells *= max(0, hi - lo + 1)
    if cells > budget:
        raise BudgetExceeded(f"{cells} cells exceed budget {budget}")
    ranges = [range(lo, hi + 1) for lo, hi in box]
    count = sum(1 for cand in product(*ranges) if p.contains(cand))
    return CountReport(count=count, box=box, cells_scanned=cells)


@dataclass
class CostEstimate:
    """Counting-cost figures from exact fan statistics.

    `triangulation_cost` is n^4 * delta * |T| * sum of squared cone
    determinants; `envelope` is the coarser n^n * delta^4 / delta_avg.
    """

    triangulation_cost: float
    triangulation_cost_exact: Fraction
    envelope: float


def estimate_counting_cost(stats: FanStats) -> CostEstimate:
    n = stats.n
    exact = (
        Fraction(n**4)
        * stats.delta
        * stats.cone_count
        * stats.det_square_sum
    )
    envelope = float(
        Fraction(n**n) * stats.delta**4 / stats.delta_avg
    )
    return CostEstimate(float(exact), exact, envelope)


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
