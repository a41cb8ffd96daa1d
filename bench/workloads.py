"""Benchmark inputs, the single `verify` operation, and its reference check.

Workloads:
  fuzz100    the first 100 instances of the seeded fuzz corpus of
             tests/conftest.py, rebuilt here with the same acceptance rule,
             each run through `verify --count`;
  dual-n2k5  the frozen polar of the depth-5 planar subdivision fan;
  dual-n4k2  the frozen polar of the depth-2 fan in dimension 4.
The dual files are the output of `deltahull generate`; set-up regenerates them
and reports whether the generator still produces the same bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from deltahull import cli, errors, hull, model, serialize, subdivision

DATA = Path(__file__).resolve().parent / "data"
FUZZ_SEED_BASE = 10_000
FUZZ_COUNT = 100
DUALS = {"dual-n2k5": (2, 5), "dual-n4k2": (4, 2)}
WORKLOADS = ("fuzz100", *DUALS)
EXIT_RAISED = -1  # the op raised instead of returning an exit code


@dataclass
class Op:
    """One `verify` call on one instance file."""

    name: str
    path: str
    argv: list
    key: str  # sha256 of the instance file, the reference lookup key


@dataclass
class Inputs:
    ops: list
    generator_drift: bool
    lift_s: float  # time in subdivision.lift_polytope, 0.0 when not lifted


def file_key(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fuzz_corpus(seed_base: int, count: int) -> list:
    """Accepted fuzz instances, by the rule of tests/conftest.py.

    Candidates are tried in seed order; rank-deficient, duplicate-row,
    infeasible and flat candidates are skipped.
    """
    accepted = []
    candidate = 0
    while len(accepted) < count:
        rng = random.Random(seed_base + candidate)
        candidate += 1
        n = rng.choice([2, 2, 3, 3, 3, 4])
        m = rng.randint(n + 1, 12)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-5, 5) for _ in range(m)]
        try:
            p = model.make_polyhedron(rows, b, name=f"fuzz-{candidate - 1}")
        except (errors.DimensionMismatch, errors.DuplicateRow, errors.NotPointed):
            continue
        try:
            model.phase_one(p)
        except errors.Infeasible:
            continue
        if model.strict_interior_point(p) is None:
            continue
        accepted.append(p)
    return accepted


def dual_text(n: int, k: int) -> tuple[str, float]:
    """The instance file `deltahull generate --n N --k K` writes, and lift time."""
    fans = subdivision.build_subdivision_fans(n, k)
    start = time.perf_counter()
    lifted = subdivision.lift_polytope(fans)
    lift_s = time.perf_counter() - start
    dual = lifted.dual_polyhedron()
    text = serialize.dump_instance(dual, feasible_point=[Fraction(0)] * n) + "\n"
    return text, lift_s


def build_inputs(workload: str, workdir: Path, fuzz_base: int) -> Inputs:
    """Write or check the workload's instance files; return its ops."""
    if workload == "fuzz100":
        ops = []
        for p in fuzz_corpus(fuzz_base, FUZZ_COUNT):
            data = (serialize.dump_instance(p) + "\n").encode()
            path = workdir / f"{p.name}.instance.json"
            path.write_bytes(data)
            ops.append(Op(p.name, str(path), ["--count"], file_key(data)))
        return Inputs(ops, False, 0.0)
    n, k = DUALS[workload]
    path = DATA / f"{workload}.instance.json"
    frozen = path.read_bytes()
    text, lift_s = dual_text(n, k)
    return Inputs(
        [Op(workload, str(path), [], file_key(frozen))],
        text.encode() != frozen,
        lift_s,
    )


def run_op(op: Op, report_path: Path) -> tuple[int, float]:
    """One `verify` call through the public entry point: exit code and wall.

    An exception out of `cli.main` is printed and counted as exit code
    EXIT_RAISED, so one broken op fails the check instead of the run.
    """
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    argv = ["verify", op.path, *op.argv, "--json", str(report_path)]
    messages = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(messages):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - reported and counted as a failed op
        traceback.print_exc()
        code = EXIT_RAISED
    wall = time.perf_counter() - start
    return code, wall


def read_report(code: int, report_path: Path):
    if code != cli.EXIT_OK:
        return None
    return json.loads(report_path.read_text(encoding="utf-8"))


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def semantic_digests(report) -> dict:
    """Digests of the report fields a correct `verify` must reproduce.

    `timings` and `work` are left out, so timers and counters may change.
    """
    if report is None:
        return {}
    bounds = {
        name: {k: b[k] for k in ("passed", "lhs_exact", "skipped") if k in b}
        for name, b in report["bounds"].items()
    }
    fields = {
        "instance.redundant_rows": report["instance"]["redundant_rows"],
        "vertices": report["vertices"],
        "rays": report["rays"],
        "stats": report["stats"],
        "graph.diameter": report["graph"]["diameter"],
        "bounds": bounds,
        "counts": report.get("counts"),
    }
    return {name: _digest(value) for name, value in fields.items()}


def load_reference() -> dict:
    with open(DATA / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def check_against_reference(entry: dict, code: int, report) -> list:
    """Names of the mismatching fields; empty when the op is correct."""
    if code != entry["exit"]:
        return [f"exit {code} != {entry['exit']}"]
    got = semantic_digests(report)
    return sorted(k for k in set(got) | set(entry["fields"])
                  if got.get(k) != entry["fields"].get(k))


def check_invariants(op: Op, code: int, report) -> list:
    """Checks for an instance with no stored reference (another fuzz base).

    Exit code 0 or 7, every bound passed or skipped, and the vertex set equal
    to the exhaustive basis oracle's.
    """
    if code not in (cli.EXIT_OK, cli.EXIT_BUDGET):
        return [f"exit {code}"]
    if report is None:
        return []
    problems = [
        f"bound {name} failed"
        for name, b in report["bounds"].items()
        if not (b.get("passed") or b.get("skipped"))
    ]
    p = serialize.load_instance_path(op.path).polyhedron
    oracle = hull.enumerate_all_bases_oracle(p)
    want = {tuple(serialize.rational_str(x) for x in v) for v in oracle.vertex_points()}
    got = {tuple(v["point"]) for v in report["vertices"]}
    if got != want:
        problems.append("vertex set differs from the basis oracle")
    return problems
