"""Exact integer-point counting over the vertex box, and the counting-cost figures.

The count scans the integer bounding box of the vertex records one line at a
time: along the box's widest axis every line meets P in one integer interval,
found from the rows' integer forms by floor division, so a line costs a few
column maps instead of one membership test per cell.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import floordiv, mul, sub

from . import serialize
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
    """Per-coordinate [ceil(min), floor(max)] of the vertex records num / den,
    den > 0: a coordinate's ceiling is -(-num // den), its floor num // den."""
    return [
        (min(-(-v.num[t] // v.den) for v in vertices), max(v.num[t] // v.den for v in vertices))
        for t in range(len(vertices[0].num))
    ]


def fibre_axis(box) -> int:
    """The widest axis of `box`, the lowest index on a tie."""
    return max(range(len(box)), key=lambda j: box[j][1] - box[j][0])


def fibre_count(p: HPolyhedron, box, k: int) -> int:
    """|P intersect Z^n| within `box`, one integer interval per line along axis k.

    Row i is q_i * (ints_i x) <= r_i. On the line through an integer prefix of
    the other axes it reads c_i * x_k <= t_i, with c_i = q_i * ints_ik and
    t_i = r_i - q_i * (the row's sum over the other axes); c_i > 0 caps x_k at
    t_i // c_i, c_i < 0 floors it at -(t_i // -c_i), and c_i = 0 with t_i < 0
    empties the line. Only Python ints; the prefixes stream.
    """
    lo_k, hi_k = box[k]
    scaled = [[q * a for a in row] for row, q in zip(p.ints, p.rhs_den)]
    up = [i for i, row in enumerate(scaled) if row[k] > 0]
    down = [i for i, row in enumerate(scaled) if row[k] < 0]
    flat = [i for i, row in enumerate(scaled) if row[k] == 0]
    order = up + down + flat  # t[:s] meets caps, t[s:f] floors, t[f:] flat rows
    caps = [scaled[i][k] for i in up]
    floors = [-scaled[i][k] for i in down]
    s, f = len(up), len(up) + len(down)
    others = [j for j in range(len(box)) if j != k]
    cols = [[scaled[i][j] for i in order] for j in others]
    base = [p.rhs_num[i] for i in order]
    count = 0
    for t in _line_offsets(base, cols, [box[j] for j in others]):
        if min(t[f:], default=0) < 0:
            continue
        hi = min(hi_k, min(map(floordiv, t, caps), default=hi_k))
        lo = max(lo_k, -min(map(floordiv, t[s:f], floors), default=-lo_k))
        if hi >= lo:
            count += hi - lo + 1
    return count


def _line_offsets(t, cols, ranges):
    """t - sum_j cols[j] * x_j for each integer prefix x in `ranges`, one column
    map per step: the prefixes in lexicographic order, one empty prefix if none."""
    if not cols:
        yield t
        return
    lo, hi = ranges[0]
    t = list(map(sub, t, map(mul, cols[0], repeat(lo))))
    for _ in range(lo, hi + 1):
        yield from _line_offsets(t, cols[1:], ranges[1:])
        t = list(map(sub, t, cols[0]))


def count_integer_points_bruteforce(
    p: HPolyhedron, result, budget: int = DEFAULT_CELL_BUDGET
) -> CountReport:
    """Exact |P intersect Z^n| over the vertex box, counted along its widest axis.

    `cells_scanned` is the box volume, and the budget caps it before any scan.
    """
    if result.rays:
        raise Unbounded("cannot box-scan an unbounded polyhedron")
    box = integer_box(result.vertices)
    cells = 1
    for lo, hi in box:
        cells *= max(0, hi - lo + 1)
    if cells > budget:
        raise BudgetExceeded(f"{serialize.rational_str(cells)} cells exceed budget {budget}")
    count = fibre_count(p, box, fibre_axis(box))
    return CountReport(count=count, box=box, cells_scanned=cells)


def estimate_counting_cost(stats: FanStats) -> dict:
    """The report's counting-cost figures from exact fan statistics.

    `triangulation_cost` is n^4 * delta * |T| * sum of squared cone
    determinants, the squares summed from the cone pairs over the lcm of
    their denominators; `envelope` is the coarser n^n * delta^4 / delta_avg.
    The floats are None past the float range (serialize.display_float).
    """
    den = lcm(*(b for _, b in stats.cone_pairs))
    squares = Fraction(sum((a * (den // b)) ** 2 for a, b in stats.cone_pairs), den * den)
    exact = Fraction(stats.n**4) * stats.delta * stats.cone_count * squares
    envelope = Fraction(stats.n**stats.n) * stats.delta**4 / stats.delta_avg
    return {
        "triangulation_cost": serialize.display_float(exact),
        "triangulation_cost_exact": exact,
        "envelope": serialize.display_float(envelope),
    }
