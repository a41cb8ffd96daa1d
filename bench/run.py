"""deltahull benchmark: `verify` through `deltahull.cli.main`, one op at a time.

    python3 bench/run.py --workload fuzz100 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A closed loop with one client in one process, no threads: each op reads an
instance file and writes the canonical JSON report, then the next op starts.
A run repeats whole passes over the workload's ops, in an order drawn from
--seed, until the timed op wall reaches --seconds. Every report is checked
against the reference recorded in data/reference.json.

--trace 0 reports the end-to-end metrics with tracing off. Op times are
reported in reference units: wall time over the time of a fixed probe sampled
while the op ran (hostspeed.py), so that the host's speed swings cancel out;
the raw seconds are printed beside them. --trace 1 runs one
untraced pass, then at least two traced passes, and reports per-layer
metrics; every exact count must repeat between the traced passes.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Run it from a checkout that holds `src/deltahull`.
"""

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Sampler
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUDGET = "100000"  # the documented default of DELTAHULL_BUDGET
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_SECONDS = 2.0
TRACED_PASSES_MIN = 2


def ref_loop_s() -> float:
    """A fixed pure-Python loop; its time shows how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "deltahull").glob("*.py"))
    )


def import_time_s() -> float:
    """Start a fresh interpreter that imports deltahull, wait for its exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import deltahull"], env=env, check=True)
    return time.perf_counter() - start


def set_up(workloads, name, workdir, fuzz_base):
    """Interpreter start plus import, and input building, each repeated.

    Repeats at least SETUP_REPEATS times and until SETUP_SECONDS have passed
    (at most SETUP_REPEATS_MAX). Returns the inputs, set-up time as the sum of
    the two medians, and the median time spent in subdivision.lift_polytope.
    """
    imports, builds, lifts = [], [], []
    start_all = time.perf_counter()
    while len(builds) < SETUP_REPEATS or (
        len(builds) < SETUP_REPEATS_MAX
        and time.perf_counter() - start_all < SETUP_SECONDS
    ):
        imports.append(import_time_s())
        start = time.perf_counter()
        inputs = workloads.build_inputs(name, workdir, fuzz_base)
        builds.append(time.perf_counter() - start)
        lifts.append(inputs.lift_s)
    setup_s = statistics.median(imports) + statistics.median(builds)
    return inputs, setup_s, statistics.median(lifts)


@dataclass
class Result:
    """What one op leaves for the metrics; the report itself is dropped."""

    op: object
    code: int
    wall: float
    cost_ref: float | None  # wall less probe time, over the probe level
    counts: Counter  # report_counts() of the op's report
    reported_total_s: float | None  # the report's timings.total_s
    report_bytes: int
    trace: dict | None  # Tracer.snapshot() of this op, traced runs only


class Runner:
    """Runs passes over the ops and checks every report."""

    def __init__(self, workloads, ops, seed, workdir, tracer=None, sampler=None):
        self.workloads = workloads
        self.ops = ops
        self.order = list(range(len(ops)))
        self.rng = random.Random(seed)
        self.report_path = workdir / "report.json"
        self.reference = workloads.load_reference()
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.problems = []

    def run_pass(self) -> list:
        self.rng.shuffle(self.order)
        results = []
        for i in self.order:
            op = self.ops[i]
            if self.tracer:
                self.tracer.reset()
            stolen_s = self.sampler.stolen_s if self.sampler else 0.0
            start = time.perf_counter()
            code, wall = self.workloads.run_op(op, self.report_path)
            cost_ref = None
            if self.sampler:
                end = time.perf_counter()
                busy = wall - (self.sampler.stolen_s - stolen_s)
                cost_ref = busy / self.sampler.level(start, end)
            trace = self.tracer.snapshot() if self.tracer else None
            report = self.workloads.read_report(code, self.report_path)
            self._check(op, code, report)
            results.append(
                Result(
                    op, code, wall, cost_ref, report_counts(report),
                    report["timings"]["total_s"] if report else None,
                    self.report_path.stat().st_size if report else 0,
                    trace,
                )
            )
        return results

    def run_passes(self, seconds: float, min_passes: int = 1) -> list:
        passes = []
        timed = 0.0
        while timed < seconds or len(passes) < min_passes:
            passes.append(self.run_pass())
            timed += sum(r.wall for r in passes[-1])
        return passes

    def _check(self, op, code, report):
        self.attempted += 1
        entry = self.reference.get(op.key)
        if entry is not None:
            bad = self.workloads.check_against_reference(entry, code, report)
        else:
            bad = self.workloads.check_invariants(op, code, report)
        if bad:
            self.problems.append(f"{op.name}: {', '.join(bad)}")


def p95(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(passes: list, setup_s: float) -> dict:
    costs = [r.cost_ref for results in passes for r in results]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_p50_ref": (statistics.median(costs), "ref"),
        "ops_per_kref": (1000 * len(costs) / sum(costs), "1/kref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def informational(passes: list, sampler: Sampler) -> dict:
    """Raw seconds and the tail, printed but not in the result line.

    A p95 has ten samples beyond it only on fuzz100; on a dual it is close
    to the slowest of a handful of ops.
    """
    walls = [r.wall for results in passes for r in results]
    costs = [r.cost_ref for results in passes for r in results]
    return {
        "op_p95_ref": (p95(costs), "ref"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p95_s": (p95(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "host.probe_s": (sampler.median_s(), "s"),
        "host.probes": (len(sampler.durations), "count"),
    }


def report_counts(report) -> Counter:
    """Work counts the report states; zero for an op that wrote none."""
    if report is None:
        return Counter()
    tu = report["bounds"].get("total-unimodularity", {})
    adjacency = report["graph"]["adjacency"].values()
    return Counter(
        bases_visited=report["work"]["bases_visited"],
        ratio_mults=report["work"]["ratio_mults"],
        minors_checked=tu.get("minors_checked", 0),
        cells_scanned=report.get("counts", {}).get("cells_scanned", 0),
        graph_edges=sum(len(vs) for vs in adjacency) // 2,
    )


def exact_counts(result: Result) -> dict:
    """Every count of one op that must repeat exactly on the same code."""
    counts = dict(result.counts)
    counts.update({f"{name}.calls": n for name, n in result.trace["calls"].items()})
    counts.update(
        {f"{a}>{b}": n for (a, b), n in result.trace["edges"].items() if a}
    )
    return counts


def repeat_problems(traced: list) -> list:
    first = {}
    problems = []
    for results in traced:
        for r in results:
            counts = exact_counts(r)
            if first.setdefault(r.op.name, counts) != counts:
                problems.append(f"{r.op.name}: counts differ between traced passes")
    return problems


def per_layer(untraced: list, traced: list, lift_s, drift, host_s) -> dict:
    """Per-op means over the traced passes, plus run-level diagnostics."""
    results = [r for results in traced for r in results]
    calls, total_s, self_s, edges, work = (Counter() for _ in range(5))
    wall = top = 0.0
    for r in results:
        wall += r.wall
        top += r.trace["top_s"]
        calls.update(r.trace["calls"])
        total_s.update(r.trace["total_s"])
        self_s.update(r.trace["self_s"])
        edges.update(r.trace["edges"])
        work.update(r.counts)
    ops = len(results)
    counting_s = total_s["counting.count_integer_points_bruteforce"]
    reported = [r.reported_total_s / r.wall for r in untraced
                if r.reported_total_s is not None]

    def each(table, name):
        return table[name] / ops

    return {
        "model.redundancy_scan.self_s": (each(self_s, "model.redundancy_scan"), "s"),
        "model.redundancy_scan.share": (total_s["model.redundancy_scan"] / wall, "ratio"),
        "model.simplex_max.calls": (each(calls, "model.simplex_max"), "count"),
        "model.make_polyhedron.calls": (each(calls, "model.make_polyhedron"), "count"),
        "model.phase_one.s": (each(total_s, "model.phase_one"), "s"),
        "model.phase_one.simplex_calls": (
            each(edges, ("model.phase_one", "model.simplex_max")), "count"),
        "model.find_initial_vertex.s": (each(total_s, "model.find_initial_vertex"), "s"),
        "hull.enumerate_vertices.self_s": (each(self_s, "hull.enumerate_vertices"), "s"),
        "hull.triangulate_normal_cone.s": (
            each(total_s, "hull.triangulate_normal_cone"), "s"),
        "hull.bases_visited": (each(work, "bases_visited"), "count"),
        "hull.ratio_mults": (each(work, "ratio_mults"), "count"),
        "linalg.det_exact.calls": (each(calls, "linalg.det_exact"), "count"),
        "linalg.det_exact.s": (each(total_s, "linalg.det_exact"), "s"),
        "linalg.invert.calls": (each(calls, "linalg.invert"), "count"),
        "linalg.invert.s": (each(total_s, "linalg.invert"), "s"),
        "linalg.solve_linear.calls": (each(calls, "linalg.solve_linear"), "count"),
        "linalg.rank_of.calls": (each(calls, "linalg.rank_of"), "count"),
        "linalg.basis_inverse_update.calls": (
            each(calls, "linalg.basis_inverse_update"), "count"),
        "stats.delta_max.s": (each(total_s, "stats.delta_max"), "s"),
        "stats.delta_max.subsets": (
            each(edges, ("stats.delta_max", "linalg.det_exact")), "count"),
        "stats.triangulation_stats.self_s": (
            each(self_s, "stats.triangulation_stats"), "s"),
        "stats.verify_total_unimodularity.s": (
            each(total_s, "stats.verify_total_unimodularity"), "s"),
        "stats.delta_tu.share": (
            (total_s["stats.delta_max"] + total_s["stats.verify_total_unimodularity"])
            / wall, "ratio"),
        "stats.minors_checked": (each(work, "minors_checked"), "count"),
        "stats.wideness_and_diameter_bound.s": (
            each(total_s, "stats.wideness_and_diameter_bound"), "s"),
        "graphs.build_polytope_graph.s": (
            each(total_s, "graphs.build_polytope_graph"), "s"),
        "graphs.graph_diameter.s": (each(total_s, "graphs.graph_diameter"), "s"),
        "graphs.edges": (each(work, "graph_edges"), "count"),
        "counting.count_integer_points_bruteforce.s": (
            each(total_s, "counting.count_integer_points_bruteforce"), "s"),
        "counting.share": (counting_s / wall, "ratio"),
        "counting.cells_scanned": (each(work, "cells_scanned"), "count"),
        "counting.cells_per_s": (
            work["cells_scanned"] / counting_s if counting_s else 0.0, "1/s"),
        "serialize.load_instance_path.s": (
            each(total_s, "serialize.load_instance_path"), "s"),
        "serialize.canonical_dumps.s": (each(total_s, "serialize.canonical_dumps"), "s"),
        "serialize.report_bytes": (
            statistics.mean(r.report_bytes for r in results), "bytes"),
        "cli.op_wall_s": (wall / ops, "s"),
        "cli.unattributed_s": ((wall - top) / ops, "s"),
        "cli.reported_total_ratio": (
            statistics.median(reported) if reported else 0.0, "ratio"),
        "trace.overhead_ratio": (
            sum(r.wall for r in traced[0]) / sum(r.wall for r in untraced), "ratio"),
        "subdivision.lift_polytope.s": (lift_s, "s"),
        "setup.generator_drift": (int(drift), "count"),
        "host.ref_loop_s": (host_s, "s"),
    }


def run_one(args, workloads) -> int:
    host_start = ref_loop_s()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs, setup_s, lift_s = set_up(
            workloads, args.workload, workdir, args.fuzz_base
        )
        tracer = Tracer() if args.trace else None
        # The probes would land inside traced spans, so a traced run has none.
        sampler = None if args.trace else Sampler()
        runner = Runner(workloads, inputs.ops, args.seed, workdir, tracer, sampler)
        info = {}
        if args.trace:
            untraced = runner.run_pass()
            tracer.install()
            try:
                traced = runner.run_passes(args.seconds, TRACED_PASSES_MIN)
            finally:
                tracer.uninstall()
            runner.problems += repeat_problems(traced)
            host_s = (host_start + ref_loop_s()) / 2
            metrics = per_layer(untraced, traced, lift_s, inputs.generator_drift, host_s)
            samples = sum(len(results) for results in traced)
        else:
            sampler.start()
            try:
                passes = runner.run_passes(args.seconds)
            finally:
                sampler.stop()
            host_s = (host_start + ref_loop_s()) / 2
            metrics = end_to_end(passes, setup_s)
            info = informational(passes, sampler)
            samples = sum(len(results) for results in passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(
        f"workload {args.workload}: seed {args.seed}, trace {args.trace}, "
        f"{len(inputs.ops)} ops per pass, {samples} timed op samples"
    )
    print(
        f"env: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"DELTAHULL_BUDGET {BUDGET}, src_lines {src_lines()}, "
        f"host.ref_loop_s {host_s:.4f}"
    )
    print(f"inputs: generator drift {'YES' if inputs.generator_drift else 'no'}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"error_rate = {len(runner.problems) / runner.attempted:.4f} "
          f"({len(runner.problems)} of {runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"{name} = {value:.6g} {unit} (informational)")
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": len(runner.problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--fuzz-base", str(args.fuzz_base),
        ]
        status = max(status, subprocess.run(argv).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fuzz100, dual-n2k5, dual-n4k2, or all")
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the ops of each pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed op wall to reach, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-base", type=int, default=10_000,
                        help="first fuzz generator seed; other bases have no "
                        "stored reference and are checked by invariants")
    args = parser.parse_args()
    if not (SRC / "deltahull" / "__init__.py").is_file():
        print(f"bench: no deltahull sources under {SRC}", file=sys.stderr)
        return 2
    # A terminated run still stops its timer and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # stats.DEFAULT_BUDGET reads this at import time.
    os.environ["DELTAHULL_BUDGET"] = BUDGET
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}")
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
