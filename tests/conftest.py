"""Shared instances, the seeded fuzz corpus, its cached analysis, and the
benchmark's frozen duals."""

import random
from itertools import product
from pathlib import Path

import pytest

from deltahull import errors, hull, model, serialize
from deltahull import stats as dstats

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def record_criterion(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} [{title}]: {verdict}{suffix}")


def square(side=1):
    """x <= side, y <= side, x >= 0, y >= 0 with this fixed row order."""
    return model.make_polyhedron(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], [side, side, 0, 0], name="square"
    )


def cube(n=3, side=1):
    rows = []
    for i in range(n):
        rows.append([1 if j == i else 0 for j in range(n)])
    for i in range(n):
        rows.append([-1 if j == i else 0 for j in range(n)])
    return model.make_polyhedron(
        rows, [side] * n + [0] * n, name=f"cube{n}"
    )


def square_pyramid():
    """Apex (0,0,1) with four tight rows; base square at z=0."""
    return model.make_polyhedron(
        [[0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
        [0, 1, 1, 1, 1],
        name="square-pyramid",
    )


def tall_pyramid():
    """Same combinatorics as square_pyramid, apex at (0,0,3)."""
    return model.make_polyhedron(
        [[0, 0, -1], [3, 0, 1], [-3, 0, 1], [0, 3, 1], [0, -3, 1]],
        [0, 3, 3, 3, 3],
        name="tall-pyramid",
    )


def octahedron():
    """All vertices degenerate: four tight rows each."""
    rows = [list(signs) for signs in product([1, -1], repeat=3)]
    return model.make_polyhedron(rows, [1] * 8, name="octahedron")


def cross_polytope(n):
    rows = [list(signs) for signs in product([1, -1], repeat=n)]
    return model.make_polyhedron(rows, [1] * len(rows), name=f"cross{n}")


def standard_simplex(n, t=1):
    rows = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows.append([1] * n)
    return model.make_polyhedron(
        rows, [0] * n + [t], name=f"simplex{n}-t{t}"
    )


DEGENERATE_FAMILY = (square_pyramid, tall_pyramid, octahedron)

FUZZ_COUNT = 200
FUZZ_SEED_BASE = 10_000


def _random_instance(rng: random.Random):
    n = rng.choice([2, 2, 3, 3, 3, 4])
    m = rng.randint(n + 1, 12)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    b = [rng.randint(-5, 5) for _ in range(m)]
    return rows, b


def build_fuzz_corpus(count=FUZZ_COUNT):
    """Deterministic random instances: pointed, feasible, full-dimensional.

    Candidate seeds run in a fixed order; rejections (rank-deficient,
    duplicate rows, infeasible, or flat) are skipped so the accepted list is
    reproducible across runs.
    """
    accepted = []
    candidate = 0
    while len(accepted) < count:
        rng = random.Random(FUZZ_SEED_BASE + candidate)
        candidate += 1
        rows, b = _random_instance(rng)
        try:
            p = model.make_polyhedron(rows, b, name=f"fuzz-{candidate - 1}")
        except (errors.DimensionMismatch, errors.DuplicateRow, errors.NotPointed):
            continue
        try:  # phase one runs inside and raises Infeasible
            interior = model.strict_interior_point(p)
        except errors.Infeasible:
            continue
        if interior is not None:
            accepted.append(p)
    return accepted


@pytest.fixture(scope="session")
def fuzz_corpus():
    return build_fuzz_corpus()


@pytest.fixture(scope="session")
def corpus_analysis(fuzz_corpus):
    """Enumeration plus triangulation statistics for every corpus instance."""
    out = []
    for p in fuzz_corpus:
        result = hull.run_enumeration(p)
        t = result.triangulation
        stats = dstats.triangulation_stats(p.ints, p.scales, t.cones, t.dets)
        out.append((p, result, stats))
    return out


BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


@pytest.fixture(scope="session")
def bench_duals():
    """The benchmark's frozen duals, each as (polyhedron, enumeration)."""
    out = {}
    for name in ("dual-n2k5", "dual-n4k2"):
        doc = serialize.load_instance_path(str(BENCH_DATA / f"{name}.instance.json"))
        p = doc.polyhedron
        out[name] = (p, hull.run_enumeration(p, doc.feasible_point))
    return out
