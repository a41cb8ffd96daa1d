"""Golden gate for the instance subcommands of the command line driver.

Each case runs one subcommand on one instance through `deltahull.cli.main`
and compares three things with `tests/data/cli_golden.json`: the exit code,
the report with `timings` removed, and stderr. The file stores each report
itself, so a re-record shows which keys moved, and a mismatch names the
first key path that differs. Before comparing, the case checks that the
bytes the CLI wrote are already the canonical form, so a report written in
another key order fails too. Record the file again with

    PYTHONPATH=src python3 tests/test_cli_golden.py

only when a report is meant to change; the stored file is the reference the
driver's reports are held to.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from deltahull import serialize
from deltahull.cli import main
from deltahull.model import make_polyhedron
from deltahull.serialize import canonical_dumps, dump_instance

from conftest import (
    build_fuzz_corpus,
    cross_polytope,
    cube,
    octahedron,
    square,
    square_pyramid,
    tall_pyramid,
)
from helpers import rationalize

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FUZZ = 10

SUBCOMMANDS = {
    "vertices": ["vertices"],
    "verify": ["verify"],
    "verify-count": ["verify", "--count"],
    "stats": ["stats"],
    "diameter": ["diameter"],
    "count": ["count"],
}

LABELS = [
    "square",
    "cube3",
    "square-pyramid",
    "octahedron",
    "cross4",
    "tall-pyramid",
    *[f"fuzz{i}" for i in range(FUZZ)],
    "quadrant",
    "padded",
    "padded-strip",
    "dual-n2k2",
]

CASES = [(label, sub) for label in LABELS for sub in SUBCOMMANDS]


def write_instances(directory: Path) -> dict[str, list[str]]:
    """Instance files for every label: its path plus any extra flags."""
    padded = make_polyhedron(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 9]
    )
    systems = {
        "square": square(),
        "cube3": cube(3),
        "square-pyramid": square_pyramid(),
        "octahedron": octahedron(),
        "cross4": cross_polytope(4),
        "tall-pyramid": tall_pyramid(),
        **{f"fuzz{i}": p for i, p in enumerate(build_fuzz_corpus(FUZZ))},
        "quadrant": make_polyhedron([[-1, 0], [0, -1]], [0, 0]),
        "padded": padded,
    }
    inputs = {}
    for label, p in systems.items():
        path = directory / f"{label}.json"
        path.write_text(dump_instance(p) + "\n", encoding="utf-8")
        inputs[label] = [str(path)]
    inputs["padded-strip"] = inputs["padded"] + ["--strip-redundant"]
    prefix = str(directory / "dual-n2k2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", prefix, "--n", "2", "--k", "2"]) == 0
    inputs["dual-n2k2"] = [prefix + ".instance.json"]
    return inputs


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = None
    if out.getvalue():
        report = json.loads(out.getvalue())
        # The CLI's own bytes are the canonical form, not only its parse.
        assert out.getvalue() == canonical_dumps(report) + "\n"
        report.pop("timings", None)
    return {"exit": code, "report": report, "stderr": err.getvalue()}


def first_difference(got, want, path: str = "") -> str | None:
    """The first key path, in sorted key order, at which two JSON values
    differ, such as `report.work.bases_visited` or `report.vertices[3]`;
    None when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            where = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return where
            found = first_difference(got[key], want[key], where)
            if found is not None:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for k, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{k}]")
            if found is not None:
                return found
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    same = got == want and type(got) is type(want)
    return None if same else path or "(top)"


def case_id(label: str, sub: str) -> str:
    return f"{label} {sub}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(label, sub) for label, sub in CASES)


@pytest.mark.parametrize("label,sub", CASES, ids=[case_id(*c) for c in CASES])
def test_cli_matches_golden(inputs, golden, label, sub):
    got = run_case(SUBCOMMANDS[sub] + inputs[label])
    where = first_difference(got, golden[case_id(label, sub)])
    assert where is None, f"first difference at {where}"


def test_first_difference_names_the_key_path():
    want = {"exit": 0, "report": {"work": {"a": 1, "b": [1, [2, 3]]}}, "stderr": ""}
    assert first_difference(want, want) is None
    got = {"exit": 0, "report": {"work": {"a": 1, "b": [1, [2, 4]]}}, "stderr": ""}
    assert first_difference(got, want) == "report.work.b[1][1]"
    assert first_difference({**want, "exit": 7}, want) == "exit"
    assert first_difference({**want, "report": None}, want) == "report"
    assert first_difference({"report": {"work": {"a": 1}}}, want) == "exit"
    assert first_difference([1], [1, 2]) == "[1]"
    assert first_difference(1, 1.0) == "(top)"  # an int written as a float is a change


def test_canonical_dumps_matches_the_rationalize_oracle(
    inputs, golden, fuzz_corpus, tmp_path, monkeypatch
):
    """Every report of the golden cases, and the verify report of every
    corpus instance, is written as json.dumps of its rationalize copy."""
    paths = []
    for p in fuzz_corpus:
        paths.append(tmp_path / f"{p.name}.json")
        paths[-1].write_text(dump_instance(p) + "\n", encoding="utf-8")
    reports = []

    def keep(obj):
        reports.append(obj)
        return canonical_dumps(obj)

    monkeypatch.setattr(serialize, "canonical_dumps", keep)
    for label, sub in CASES:
        run_case(SUBCOMMANDS[sub] + inputs[label])
    for path in paths:
        run_case(["verify", str(path)])
    with_report = sum(1 for case in golden.values() if case["report"] is not None)
    assert len(reports) == with_report + len(fuzz_corpus)
    for report in reports:
        want = json.dumps(rationalize(report), sort_keys=True, separators=(",", ":"))
        assert canonical_dumps(report) == want


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_instances(Path(tmp))
        cases = {
            case_id(label, sub): run_case(SUBCOMMANDS[sub] + inputs[label])
            for label, sub in CASES
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    record()
