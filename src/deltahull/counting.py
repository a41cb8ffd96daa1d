"""Integer-point counting oracle and the counting-cost figures."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .errors import BudgetExceeded, Unbounded
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
