"""Command-line entry point.

Subcommands: vertices, verify, generate, count, stats, diameter. Reports go
to stdout as canonical JSON (or to --json PATH); diagnostics go to stderr.
Exit codes: 0 ok, 2 infeasible, 3 not pointed, 4 parse or usage error
(argparse's own status 2 is mapped to 4) or a given feasible point outside
the polyhedron, 5 bound violated, 6 unbounded, 7 budget exceeded.
"""

import argparse
import sys
import time
from functools import cache, cached_property

from . import counting, graphs, hull, model, serialize, stats, subdivision
from .errors import (
    BoundViolated,
    BudgetExceeded,
    Infeasible,
    InfeasiblePoint,
    NotPointed,
    ParseError,
    Unbounded,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_POINTED = 3
EXIT_PARSE = 4
EXIT_BOUND_VIOLATED = 5
EXIT_UNBOUNDED = 6
EXIT_BUDGET = 7

# (error type, exit code, stderr prefix) for main; the first match wins,
# and any other error propagates.
ERROR_EXITS = (
    (ParseError, EXIT_PARSE, "parse error: "),
    (InfeasiblePoint, EXIT_PARSE, "given point outside the polyhedron: "),
    (NotPointed, EXIT_NOT_POINTED, "not pointed: "),
    (Infeasible, EXIT_INFEASIBLE, "infeasible: "),
    (Unbounded, EXIT_UNBOUNDED, "unbounded: "),
    (BudgetExceeded, EXIT_BUDGET, "budget exceeded: "),
    (OSError, EXIT_PARSE, ""),
)


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


@cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltahull",
        description="Exact vertex enumeration and subdeterminant analysis "
        "for rational H-polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")

    instance = argparse.ArgumentParser(add_help=False, parents=[common])
    instance.add_argument("path", help="instance file (JSON or CSV)")
    instance.add_argument("--budget", type=positive_int, default=None,
                          help="cap N on every combinatorial scan: 50*N Delta "
                          "search nodes, N box cells (default: 100000, but "
                          "10^7 cells)")
    instance.add_argument("--seed", type=int, default=None,
                          help="echoed into the report for reproducibility "
                          "bookkeeping")
    instance.add_argument("--feasible-point", metavar="FILE", default=None,
                          help="JSON array of rationals to skip phase one")
    instance.add_argument("--strip-redundant", action="store_true",
                          help="remove redundant rows before analysis "
                          "(default: warn only)")

    for name, project, text in (
        ("vertices", cmd_vertices, "enumerate vertices and the fan triangulation"),
        ("verify", cmd_verify, "run every bound check end to end"),
        ("stats", cmd_stats, "subdeterminant statistics and volume bounds"),
        ("diameter", cmd_diameter, "exact vertex-edge graph diameter"),
        ("count", cmd_count, "count integer points, one interval per line of the vertex box"),
    ):
        p = sub.add_parser(name, parents=[instance], help=text)
        p.set_defaults(func=run_instance, project=project)
    sub.choices["verify"].add_argument("--count", action="store_true",
                                       help="also count integer points when bounded")

    p = sub.add_parser("generate", parents=[common],
                       help="emit a subdivision-family fan and dual instance")
    p.add_argument("prefix", help="output path prefix")
    p.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    p.add_argument("--k", type=int, required=True, help="subdivision depth")
    p.add_argument("--normalize", type=int, metavar="DIGITS", default=None,
                   help="also emit rays normalized to unit length at "
                   "10^-DIGITS precision (DIGITS <= 308)")
    p.set_defaults(func=cmd_generate)
    return parser


def _emit(report: dict, args) -> None:
    text = serialize.canonical_dumps(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _warn(message: str) -> None:
    print(f"deltahull: {message}", file=sys.stderr)


class Analysis:
    """The analysis of one instance; each phase runs once, on first use.

    `loaded` parses the instance, enumerates its vertices from the given
    feasible point, if any (hull.run_enumeration runs phase one otherwise),
    and takes the redundant rows from hull.redundant_rows. So an empty
    system exits before any redundancy warning. After --strip-redundant, the
    enumeration runs again on the stripped system, from the given point or
    its own phase one, so the report equals that of the stripped system's
    own file.
    `fan_stats` takes the subdeterminant statistics of the normal-fan
    triangulation, and `graph` builds the vertex-edge graph.
    `--budget` caps every scan; without it the Delta search (50x the budget
    in nodes) uses stats.DEFAULT_BUDGET, and the vertex box's cells
    counting.DEFAULT_CELL_BUDGET. Every bound verdict, and every bound block
    of a report, comes from `stats`.
    """

    def __init__(self, args):
        self.args = args
        given = args.budget is not None
        self.scan_budget = args.budget if given else stats.DEFAULT_BUDGET
        self.cell_budget = args.budget if given else counting.DEFAULT_CELL_BUDGET

    @cached_property
    def loaded(self) -> tuple[model.HPolyhedron, hull.EnumerationResult, list[int]]:
        """The system, its enumeration, its redundant rows."""
        doc = serialize.load_instance_path(self.args.path)
        p, given = doc.polyhedron, doc.feasible_point
        if self.args.feasible_point:
            text = serialize.read_text(self.args.feasible_point)
            given = serialize.parse_point(serialize.parse_json(text), p.n)
        result = hull.run_enumeration(p, given)
        redundant = hull.redundant_rows(p, result)
        if redundant and self.args.strip_redundant:
            _warn(f"stripped redundant rows {redundant}")
            p = model.drop_rows(p, redundant)
            result = hull.run_enumeration(p, given)
            redundant = []
        elif redundant:
            _warn(f"redundant rows present: {redundant}")
        return p, result, redundant

    @property
    def p(self) -> model.HPolyhedron:
        return self.loaded[0]

    @property
    def result(self) -> hull.EnumerationResult:
        return self.loaded[1]

    @cached_property
    def fan_stats(self) -> stats.FanStats:
        p, t = self.p, self.result.triangulation
        return stats.triangulation_stats(p.ints, p.scales, t.cones, t.dets, self.scan_budget)

    @cached_property
    def graph(self) -> dict[int, list[int]]:
        return graphs.build_polytope_graph(self.result)

    def adjacency(self) -> dict[str, list[int]]:
        """The graph keyed by strings, so that the report sorts them as text."""
        return {str(v): near for v, near in self.graph.items()}

    def instance_block(self) -> dict:
        p, _, redundant = self.loaded
        a, b = serialize.rows_as_given(p)
        return {"name": p.name, "m": p.m, "n": p.n, "A": a, "b": b, "redundant_rows": redundant}

    def work_block(self) -> dict:
        c = self.result.counters
        return {
            "bases_visited": c.bases_visited,
            "ratio_mults": c.ratio_mults,
            "max_basis_mults": c.max_basis_mults,
            "per_basis_mult_cap": 2 * self.p.n * self.p.n * self.p.m,
        }

    def counts_block(self) -> dict:
        """The integer-point count; its cost figures need the Delta search in budget."""
        count = counting.count_integer_points_bruteforce(
            self.p, self.result, self.cell_budget
        )
        try:
            cost = counting.estimate_counting_cost(self.fan_stats)
        except BudgetExceeded:
            cost = None
        return {
            "integer_points": count.count,
            "box": [list(b) for b in count.box],
            "cells_scanned": count.cells_scanned,
            "cost": cost,
        }


def _points_block(result: hull.EnumerationResult) -> dict:
    write = serialize.rational_str
    vertices = [
        {"point": [write(x, v.den) for x in v.num], "tight": list(v.tight), "simple": v.simple}
        for v in result.vertices
    ]
    return {"vertices": vertices, "rays": [[write(c) for c in d] for _, d in result.rays]}


def _stats_block(fan_stats: stats.FanStats) -> dict:
    return {
        "delta": fan_stats.delta,
        "delta_witness": list(fan_stats.witness),
        "delta_avg": fan_stats.delta_avg,
        "delta_min": fan_stats.delta_min,
        "cone_count": fan_stats.cone_count,
        "fan_volume": fan_stats.fan_volume,
        "fan_volume_float": serialize.display_float(fan_stats.fan_volume),
    }


def cmd_vertices(a: Analysis) -> dict:
    return {
        "instance": a.instance_block(),
        **_points_block(a.result),
        "triangulation": {
            "cones_by_vertex": [
                [list(c) for c in group]
                for group in a.result.triangulation.cones_by_vertex
            ]
        },
        "work": a.work_block(),
    }


def cmd_verify(a: Analysis) -> dict:
    result, fan_stats = a.result, a.fan_stats
    diameter = graphs.graph_diameter(a.graph) if result.bounded else None
    bounds = stats.verify_bounds(
        a.p, fan_stats, result.triangulation, len(result.vertices), diameter
    )
    report = {
        "instance": a.instance_block(),
        **_points_block(result),
        "stats": _stats_block(fan_stats),
        "graph": {"adjacency": a.adjacency(), "diameter": diameter},
        "bounds": bounds,
        "work": a.work_block(),
    }
    if a.args.count and result.bounded:
        report["counts"] = a.counts_block()
    return report


def cmd_stats(a: Analysis) -> dict:
    return {
        "instance": a.instance_block(),
        "stats": _stats_block(a.fan_stats),
        "bounds": stats.check_fan_bounds(a.fan_stats, len(a.result.vertices)),
        "work": a.work_block(),
    }


def cmd_diameter(a: Analysis) -> dict:
    return {
        "instance": a.instance_block(),
        "graph": {
            "adjacency": a.adjacency(),
            "diameter": graphs.graph_diameter(a.graph),
            "nodes": len(a.graph),
            "edges": len(a.result.edges),
        },
    }


def cmd_count(a: Analysis) -> dict:
    return {"instance": a.instance_block(), "counts": a.counts_block()}


def run_instance(args) -> int:
    """Project one Analysis into the subcommand's report, time it, emit it.

    A violated bound prints the system as a reproducer instance on stderr.
    `timings.total_s` runs from the start of parsing to just before emit.
    """
    start = time.perf_counter()
    analysis = Analysis(args)
    try:
        report = args.project(analysis)
    except BoundViolated as exc:
        _warn(f"bound violated: {exc}")
        _warn("reproducer instance follows")
        print(serialize.dump_instance(analysis.p), file=sys.stderr)
        return EXIT_BOUND_VIOLATED
    report["timings"] = {"total_s": round(time.perf_counter() - start, 6)}
    if args.seed is not None:
        report["seed"] = args.seed
    _emit(report, args)
    return EXIT_OK


def cmd_generate(args) -> int:
    top = 308  # the documented --normalize cap; normalize_rays itself is exact at any width
    if args.n < 2 or args.k < 0 or not 0 <= (args.normalize or 0) <= top:
        _warn(f"generate needs --n >= 2, --k >= 0 and 0 <= --normalize <= {top}")
        return EXIT_PARSE
    fans = subdivision.build_subdivision_fans(args.n, args.k)
    lifted = subdivision.lift_polytope(fans)
    fan = fans[-1]
    fan_path = f"{args.prefix}.fan.json"
    instance_path = f"{args.prefix}.instance.json"
    with open(fan_path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dump_fan(fan) + "\n")
    dual = lifted.dual_polyhedron()
    with open(instance_path, "w", encoding="utf-8") as fh:
        fh.write(serialize.dump_instance(dual, feasible_point=[0] * args.n) + "\n")
    report = {
        "expected": subdivision.expected_counts(args.n, args.k),
        "rays": len(fan.rays),
        "cones": len(fan.cones),
        "files": {"fan": fan_path, "instance": instance_path},
    }
    if args.normalize is not None:
        normalized = subdivision.normalize_rays(fan.rays, args.normalize)
        norm_path = f"{args.prefix}.rays-normalized.json"
        doc = {"digits": args.normalize, "rays": [list(r) for r in normalized]}
        with open(norm_path, "w", encoding="utf-8") as fh:
            fh.write(serialize.canonical_dumps(doc) + "\n")
        report["files"]["rays_normalized"] = norm_path
    _emit(report, args)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except Exception as exc:
        for kind, code, prefix in ERROR_EXITS:
            if isinstance(exc, kind):
                _warn(prefix + str(exc))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
