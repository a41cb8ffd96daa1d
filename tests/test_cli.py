"""Command line driver: subcommands, exit codes, canonical reports."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltahull import cli
from deltahull.cli import main
from deltahull.serialize import canonical_dumps, dump_instance, rational_str

from conftest import BENCH_DATA, cube, square, square_pyramid
from helpers import a_of, b_of, fractions_built, long_rational_text


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dump_instance(square()) + "\n", encoding="utf-8")
    return str(path)


def test_package_import_loads_the_layer_modules_only():
    """`import deltahull` loads its nine layer modules, and neither the CLI
    nor argparse."""
    probe = (
        "import sys, deltahull; "
        "print(sorted(m for m in sys.modules if m.startswith('deltahull')), "
        "'argparse' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    layers = "counting errors graphs hull linalg model serialize stats subdivision".split()
    want = sorted(["deltahull"] + [f"deltahull.{name}" for name in layers])
    assert out == f"{want} False\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_vertices_square(capsys, square_file):
    code, out, _ = run_cli(capsys, ["vertices", square_file])
    assert code == 0
    report = json.loads(out)
    assert len(report["vertices"]) == 4
    assert report["rays"] == []
    assert report["instance"]["m"] == 4
    assert report["work"]["bases_visited"] == 4
    assert report["work"]["max_basis_mults"] <= report["work"]["per_basis_mult_cap"]


def test_vertices_report_is_canonical_json(capsys, square_file):
    code, out, _ = run_cli(capsys, ["vertices", square_file])
    assert code == 0
    text = out.strip()
    assert canonical_dumps(json.loads(text)) == text


def test_verify_square_all_bounds_pass(capsys, square_file):
    code, out, _ = run_cli(capsys, ["verify", square_file])
    assert code == 0
    report = json.loads(out)
    assert report["bounds"]
    for name, block in report["bounds"].items():
        assert block.get("passed", True) is True, name


def test_verify_with_count_flag(capsys, square_file):
    code, out, _ = run_cli(capsys, ["verify", square_file, "--count"])
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["integer_points"] == 4
    assert report["counts"]["cost"] is not None


def test_stats_square(capsys, square_file):
    code, out, _ = run_cli(capsys, ["stats", square_file])
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["delta"] == "1"
    assert report["stats"]["cone_count"] == 4


def test_diameter_square(capsys, square_file):
    code, out, _ = run_cli(capsys, ["diameter", square_file])
    assert code == 0
    report = json.loads(out)
    assert report["graph"]["diameter"] == 2
    assert report["graph"]["nodes"] == 4
    assert report["graph"]["edges"] == 4


def test_count_square(capsys, square_file):
    code, out, _ = run_cli(capsys, ["count", square_file])
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["integer_points"] == 4
    assert report["counts"]["box"] == [[0, 1], [0, 1]]


def test_json_flag_writes_identical_report(capsys, square_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["vertices", square_file, "--json", str(out_path)])
    assert code == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8").strip()
    assert canonical_dumps(json.loads(text)) == text


def test_feasible_point_file_short_circuits_phase_one(capsys, square_file, tmp_path):
    fp = tmp_path / "fp.json"
    fp.write_text('["1/2", "1/2"]', encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["vertices", square_file, "--feasible-point", str(fp)]
    )
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 4


def test_redundant_rows_warn_and_strip(capsys, tmp_path):
    from deltahull.model import make_polyhedron

    p = make_polyhedron(
        [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [1, 1, 0, 0, 9]
    )
    path = tmp_path / "padded.json"
    path.write_text(dump_instance(p) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert code == 0
    assert "redundant rows present: [4]" in err
    assert json.loads(out)["instance"]["redundant_rows"] == [4]
    code, out, err = run_cli(capsys, ["vertices", str(path), "--strip-redundant"])
    assert code == 0
    assert "stripped redundant rows [4]" in err
    report = json.loads(out)
    assert report["instance"]["m"] == 4
    assert len(report["vertices"]) == 4


def test_strip_redundant_matches_prestripped_instance(capsys, tmp_path):
    from deltahull.model import drop_rows, make_polyhedron

    # Row 1 is redundant. Phase one on the stripped system starts the
    # enumeration at another vertex than a feasible point of the full one
    # would, and the vertex order follows the start.
    p = make_polyhedron([[-1, 4], [-4, -3], [0, -3], [-2, 2]], [3, -6, 0, -6])
    full = tmp_path / "full.json"
    full.write_text(dump_instance(p) + "\n", encoding="utf-8")
    stripped = tmp_path / "stripped.json"
    stripped.write_text(dump_instance(drop_rows(p, [1])) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(full), "--strip-redundant"])
    assert code == 0
    assert "stripped redundant rows [1]" in err
    via_strip = json.loads(out)
    code, out, _ = run_cli(capsys, ["vertices", str(stripped)])
    assert code == 0
    direct = json.loads(out)
    del via_strip["timings"], direct["timings"]
    assert via_strip == direct


def test_strip_redundant_keeps_a_flat_polyhedron(capsys, tmp_path):
    from deltahull.model import drop_rows, make_polyhedron

    # The segment [0,1] x {0}: rows 2 (x <= 1) and 3 (x + y <= 1) cut the
    # same endpoint, so either is redundant while the other stays.
    p = make_polyhedron([[0, 1], [0, -1], [1, 0], [1, 1], [-1, 0]], [0, 0, 1, 1, 0])
    full = tmp_path / "flat.json"
    full.write_text(dump_instance(p) + "\n", encoding="utf-8")
    stripped = tmp_path / "stripped.json"
    stripped.write_text(dump_instance(drop_rows(p, [2])) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(full), "--strip-redundant"])
    assert code == 0
    assert "stripped redundant rows [2]" in err
    via_strip = json.loads(out)
    code, out, _ = run_cli(capsys, ["vertices", str(stripped)])
    assert code == 0
    direct = json.loads(out)
    del via_strip["timings"], direct["timings"]
    assert via_strip == direct
    assert len(direct["vertices"]) == 2
    assert direct["rays"] == []


@pytest.mark.parametrize("flags", [[], ["--strip-redundant"]], ids=["warn", "strip"])
@pytest.mark.parametrize(
    "doc",
    [
        {"A": [[1, 0], [0, 1], [-1, -1]], "b": [0, 0, -1]},
        # x <= 0, x >= 1, x >= 2: two of the row-deleted systems are empty
        # too, so a redundancy scan run before phase one calls rows 1 and 2
        # redundant.
        {"A": [[1], [-1], [-1]], "b": [0, -1, -2]},
        {"A": [[1, 0], [-1, 0], [-1, 0], [0, 1], [0, -1]], "b": [0, -1, -2, 1, 0]},
    ],
    ids=["corner", "line", "plane"],
)
def test_exit_code_infeasible(capsys, tmp_path, doc, flags):
    # The document is valid; the system is empty, which only phase one sees.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["vertices", str(path), *flags])
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("deltahull: infeasible:")


def test_exit_code_not_pointed(capsys, tmp_path):
    doc = {"A": [[1, 0], [-1, 0]], "b": [1, 0]}
    path = tmp_path / "slab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["vertices", str(path)])
    assert code == 3
    assert "not pointed" in err


def test_exit_code_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"A": [[0.25, 1]], "b": [1]}', encoding="utf-8")
    code, _, err = run_cli(capsys, ["vertices", str(path)])
    assert code == 4
    assert "parse error" in err
    code, _, err = run_cli(capsys, ["vertices", str(tmp_path / "missing.json")])
    assert code == 4


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"A": [[]], "b": ["1"]}, "zero-dimensional ambient space"),
        ({"A": [["1"]], "b": 5}, "b must be an array"),
    ],
    ids=["empty-row", "scalar-b"],
)
def test_malformed_instance_shape_is_a_parse_error(capsys, tmp_path, doc, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert (code, out) == (4, "")
    assert err == f"deltahull: parse error: {message}\n"


def test_overlong_json_integer_is_a_parse_error(capsys, tmp_path):
    # Past Python's 4,300-digit limit json.loads raises a plain ValueError.
    path = tmp_path / "long.json"
    path.write_text('{"A": [[%s, 0], [0, 1]], "b": [1, 1]}' % ("9" * 5001), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert code == 4
    assert out == ""
    assert "parse error" in err


@pytest.mark.parametrize("command", ["vertices", "diameter"])
def test_report_with_6000_digit_denominators(capsys, tmp_path, command):
    # The vertex off the two long rows has a denominator of about 6,000
    # digits, past Python's 4,300-digit limit on str(int).
    long_rows = [["7" * 3000, "1"], ["1", "3" * 3000], ["-1", "0"], ["0", "-1"]]
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"A": long_rows, "b": ["1", "1", "0", "0"]}), encoding="utf-8")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 0
    assert err == ""
    report = json.loads(out)
    if command == "diameter":
        assert report["graph"]["diameter"] == 2
        return
    a, c = 7 * (10**3000 - 1) // 9, 3 * (10**3000 - 1) // 9
    far = [Fraction(c - 1, a * c - 1), Fraction(a - 1, a * c - 1)]
    assert [long_rational_text(x) for x in far] in [v["point"] for v in report["vertices"]]
    assert len(report["vertices"]) == 4


@pytest.mark.parametrize("command", ["stats", "verify"])
def test_bound_text_past_the_digit_limit(capsys, tmp_path, command):
    # Delta = s^2 has about 5,000 digits over as many, yet a moderate value,
    # so only the exact bound texts pass Python's limit on str(int).
    s = Fraction(10**2500 + 1, 10**2500)
    text = f"{s.numerator}/{s.denominator}"
    rows = [[text, "0"], ["0", text], ["-1", "0"], ["0", "-1"]]
    path = tmp_path / "long-square.json"
    path.write_text(json.dumps({"A": rows, "b": ["1", "1", "0", "0"]}), encoding="utf-8")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 0
    assert err == ""
    fan_volume = json.loads(out)["bounds"]["fan-volume"]
    assert fan_volume["rhs_exact"] == long_rational_text(s * s) + "*vol_ball(2)"


# Values past the float range: the box with rows N x <= 1, N y <= 1 for
# N = 10^3000 - 1 (fan volume and cost figures about 10^6000 and more), and
# the triangle under (10^400, 10^400) x <= 1, whose sin^2 also underflows, so
# its tau reads 0.0 and its tau-diameter bound, above 10^160, is null.
N3000, T400 = str(10**3000 - 1), str(10**400)
PAST_FLOAT_RANGE = {
    "box3000": ([[N3000, "0"], ["0", N3000], ["-1", "0"], ["0", "-1"]], ["1", "1", "0", "0"]),
    "tri400": ([["-1", "0"], ["0", "-1"], [T400, T400]], ["0", "0", "1"]),
}


@pytest.mark.parametrize("command", ["stats", "verify", "count"])
@pytest.mark.parametrize("name", PAST_FLOAT_RANGE)
def test_display_floats_past_the_float_range_are_null(capsys, tmp_path, name, command):
    rows, b = PAST_FLOAT_RANGE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"A": rows, "b": b}), encoding="utf-8")
    code, out, err = run_cli(capsys, [command, str(path)])
    assert code == 0
    assert err == ""
    assert "Infinity" not in out and "NaN" not in out
    report = json.loads(out)
    if command == "count":
        assert report["counts"]["integer_points"] == 1
        cost = report["counts"]["cost"]
        assert cost["triangulation_cost"] is None and cost["envelope"] is None
        assert len(cost["triangulation_cost_exact"]) > 400  # digits: past 10^400
        return
    assert report["stats"]["fan_volume_float"] is None
    bounds = report["bounds"]
    fan_volume = bounds["fan-volume"]
    assert fan_volume["passed"] and fan_volume["lhs"] is None and fan_volume["rhs"] is None
    assert len(fan_volume["lhs_exact"]) > 400
    vertices = len(rows)  # a box and a triangle: one vertex per row
    for key in ("vertex-count", "cone-count"):  # small counts, in range
        assert bounds[key]["passed"] and bounds[key]["lhs"] == vertices
        assert 0 < bounds[key]["rhs"] < 100
    if command == "verify":
        tau = bounds["tau-diameter"]
        assert tau["passed"]
        if name == "tri400":
            assert tau["tau"] == 0.0 and tau["bound"] is None
        else:
            assert tau["tau"] == 0.5 and tau["bound"] > tau["diameter"]


# Entries up to 10^3000 in absolute value and random rationals.
long_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda k, d, sign: sign * (10**k + d),
              st.integers(1, 3000), st.integers(-2, 2), st.sampled_from([1, -1])),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def long_instances(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, n + 3))
    row = st.lists(long_entries, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(long_entries, min_size=m, max_size=m))
    return {"A": [[str(x) for x in r] for r in rows], "b": [str(x) for x in b]}


COMMANDS = [["vertices"], ["verify"], ["verify", "--count"], ["stats"], ["diameter"], ["count"]]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(long_instances(), st.sampled_from(COMMANDS))
def test_long_rational_instances_exit_with_a_documented_code(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("long") / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in {0, 2, 3, 4, 5, 6, 7}
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text)


def test_exit_code_unbounded_count(capsys, tmp_path):
    doc = {"A": [[-1, 0], [0, -1]], "b": [0, 0]}
    path = tmp_path / "quadrant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["count", str(path)])
    assert code == 6
    assert "unbounded" in err
    # vertices still works on the same instance.
    code, out, _ = run_cli(capsys, ["vertices", str(path)])
    assert code == 0
    assert len(json.loads(out)["rays"]) == 2


def test_exit_code_budget_exceeded(capsys, tmp_path):
    doc = {"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [9, 9, 0, 0]}
    path = tmp_path / "bigbox.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["count", str(path), "--budget", "5"])
    assert code == 7
    assert "budget" in err


def test_count_budget_caps_box_volume_of_a_strip(capsys, tmp_path):
    # 2 lines along the long axis, but 2000 cells: the budget reads the cells.
    doc = {"A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [1, 0, 999, 0]}
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["count", str(path), "--budget", "1999"])
    assert code == 7
    assert "2000 cells exceed budget 1999" in err
    code, out, _ = run_cli(capsys, ["count", str(path), "--budget", "2000"])
    assert code == 0
    assert json.loads(out)["counts"]["integer_points"] == 2000


def test_generate_round_trip(capsys, tmp_path):
    prefix = str(tmp_path / "fam")
    code, out, _ = run_cli(
        capsys, ["generate", prefix, "--n", "2", "--k", "1", "--normalize", "4"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["expected"] == {"cones": 6, "diameter": 3, "delta_ratio": 2}
    fan_doc = json.loads((tmp_path / "fam.fan.json").read_text(encoding="utf-8"))
    assert len(fan_doc["cones"]) == 6
    norm_doc = json.loads(
        (tmp_path / "fam.rays-normalized.json").read_text(encoding="utf-8")
    )
    assert len(norm_doc["rays"]) == 6
    # The emitted dual instance runs the full verify pipeline cleanly.
    code, out, _ = run_cli(capsys, ["verify", prefix + ".instance.json"])
    assert code == 0
    report = json.loads(out)
    assert len(report["vertices"]) == 6


def test_generate_normalizes_up_to_the_float_range(capsys, tmp_path):
    prefix = str(tmp_path / "wide")
    code, _, _ = run_cli(capsys, ["generate", prefix, "--n", "2", "--k", "0", "--normalize", "308"])
    assert code == 0
    norm_doc = json.loads((tmp_path / "wide.rays-normalized.json").read_text(encoding="utf-8"))
    assert norm_doc["digits"] == 308 and len(norm_doc["rays"]) == 3


def test_generate_expected_diameter_matches_planar_dual(capsys, tmp_path):
    # Depth 2 is the first planar depth where the cycle diameter floor(3*2^k/2)
    # and 2^(k+1)-1 differ.
    prefix = str(tmp_path / "planar")
    code, out, _ = run_cli(capsys, ["generate", prefix, "--n", "2", "--k", "2"])
    assert code == 0
    assert json.loads(out)["expected"]["diameter"] == 6
    code, out, _ = run_cli(capsys, ["diameter", prefix + ".instance.json"])
    assert code == 0
    assert json.loads(out)["graph"]["diameter"] == 6


def test_generate_rejects_bad_parameters(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["generate", str(tmp_path / "x"), "--n", "1", "--k", "2"])
    assert code == 4
    code, _, err = run_cli(capsys, ["generate", str(tmp_path / "x"), "--n", "3", "--k", "-1"])
    assert code == 4
    for digits in ("-1", "309"):  # 308 digits is the documented CLI cap
        code, _, err = run_cli(
            capsys, ["generate", str(tmp_path / "x"), "--n", "2", "--k", "1", "--normalize", digits]
        )
        assert code == 4
        assert "Traceback" not in err
    for flag in (["--budget", "1"], ["--seed", "9"]):  # only the instance subcommands read them
        code, _, err = run_cli(
            capsys, ["generate", str(tmp_path / "x"), "--n", "2", "--k", "1", *flag]
        )
        assert code == 4
        assert "unrecognized arguments" in err
    assert not list(tmp_path.glob("x.*"))


def test_seed_is_echoed(capsys, square_file):
    code, out, _ = run_cli(capsys, ["vertices", square_file, "--seed", "7"])
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_degenerate_instance_verifies(capsys, tmp_path):
    path = tmp_path / "pyramid.json"
    path.write_text(dump_instance(square_pyramid()) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["verify", str(path)])
    assert code == 0
    report = json.loads(out)
    assert len(report["vertices"]) == 5


def test_verify_count_respects_budget(capsys, square_file):
    # The unit square's box has 4 cells; --budget caps the cell scan too.
    code, _, err = run_cli(capsys, ["verify", square_file, "--count", "--budget", "3"])
    assert code == 7
    assert "4 cells exceed budget 3" in err


@pytest.mark.parametrize("budget", [5, 10, 82, 83, None], ids=["5", "10", "82", "83", "default"])
def test_verify_tu_block_follows_budget(capsys, tmp_path, budget):
    # The cube has 83 square minors; the verdict is the Delta witness's
    # certificate at every budget, and names no minor count.
    path = tmp_path / "cube.json"
    path.write_text(dump_instance(cube(3)) + "\n", encoding="utf-8")
    flags = [] if budget is None else ["--budget", str(budget)]
    code, out, _ = run_cli(capsys, ["verify", str(path), *flags])
    assert code == 0
    report = json.loads(out)
    assert report["stats"]["delta"] == "1"
    assert report["bounds"]["total-unimodularity"] == {
        "certificate": "delta-witness",
        "passed": True,
    }


def test_count_reports_a_null_cost_when_the_delta_search_exceeds_budget(capsys, tmp_path):
    # A 20-gon of inradius 1/2 about (1/2, 1/2), its normals of length 25:
    # the box scan fits in 4 cells, the Delta search not in 50 * 4 nodes.
    normals = [[sx * x, sy * y] for x, y in [(7, 24), (24, 7), (15, 20), (20, 15)]
               for sx in (1, -1) for sy in (1, -1)]
    normals += [[25, 0], [-25, 0], [0, 25], [0, -25]]
    doc = {"A": normals, "b": [str(Fraction(a + b + 25, 2)) for a, b in normals]}
    path = tmp_path / "gon20.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["count", str(path), "--budget", "4"])
    assert code == 0
    counts = json.loads(out)["counts"]
    assert (counts["cells_scanned"], counts["cost"]) == (4, None)
    for command in ["verify", "stats"]:
        code, out, err = run_cli(capsys, [command, str(path), "--budget", "4"])
        assert (code, out) == (7, "")
        assert err == "deltahull: budget exceeded: subdeterminant search exceeded 200 nodes\n"


def test_verify_exits_7_when_the_delta_search_exceeds_budget(capsys, tmp_path):
    # The 4-cube's Delta search visits more than 50 * 1 nodes.
    path = tmp_path / "cube4.json"
    path.write_text(dump_instance(cube(4)) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify", str(path), "--budget", "1"])
    assert code == 7
    assert out == ""
    assert err == "deltahull: budget exceeded: subdeterminant search exceeded 50 nodes\n"


def test_every_instance_report_has_total_time(capsys, square_file):
    for command in ("vertices", "verify", "stats", "diameter", "count"):
        code, out, _ = run_cli(capsys, [command, square_file])
        assert code == 0
        assert json.loads(out)["timings"]["total_s"] >= 0, command


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_bound_violation_prints_reproducer(capsys, monkeypatch, square_file, command):
    from deltahull import stats
    from deltahull.serialize import load_instance_json

    monkeypatch.setattr(stats, "RELATIVE_SLACK", -1)
    code, out, err = run_cli(capsys, [command, square_file])
    assert code == 5
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("deltahull: bound violated: ")
    assert lines[1] == "deltahull: reproducer instance follows"
    assert load_instance_json(lines[2]).polyhedron == square()


# Fan statistics of the unit square doctored to break bounds, and the first
# violation `verify` reports: vertex count above cone count, vertex-count,
# fan-volume, cone-count, distance floor, then tau-diameter.
VIOLATIONS = {
    "vertex-over-cone": ({"cone_count": 3}, False, "vertex count 4 exceeds cone count 3"),
    # The vertex and cone counts share one right-hand side: both fail.
    "vertex-count": ({"delta_avg": 2}, False, "vertex-count: 4.0 > 3.141592653589793"),
    "fan-volume": ({"fan_volume": 4}, False, "fan-volume: 4.0 > 3.141592653589793"),
    "cone-count": ({"cone_count": 7}, False, "cone-count: 7.0 > 6.283185307179586"),
    "distance-floor": ({"delta_min": 3}, False, "distance 1.0^(1/2) below floor 3/2"),
    "tau-diameter": ({}, True, "diameter 1000000 above bound 54.18070977791825"),
    "vertex-over-cone-and-fan-volume": (
        {"cone_count": 3, "fan_volume": 4}, False, "vertex count 4 exceeds cone count 3"
    ),
    "fan-volume-and-cone-count": (
        {"fan_volume": 4, "cone_count": 7}, False, "fan-volume: 4.0 > 3.141592653589793"
    ),
    "cone-count-and-distance-floor": (
        {"cone_count": 7, "delta_min": 3}, False, "cone-count: 7.0 > 6.283185307179586"
    ),
    "distance-floor-and-tau-diameter": (
        {"delta_min": 3}, True, "distance 1.0^(1/2) below floor 3/2"
    ),
}


@pytest.mark.parametrize("doctored, far, message", VIOLATIONS.values(), ids=VIOLATIONS)
def test_verify_reports_the_first_violated_bound(
    capsys, monkeypatch, square_file, doctored, far, message
):
    from dataclasses import replace

    from deltahull import graphs, stats

    fan_stats = stats.triangulation_stats

    def doctor(*args):
        return replace(fan_stats(*args), **doctored)

    monkeypatch.setattr(stats, "triangulation_stats", doctor)
    if far:
        monkeypatch.setattr(graphs, "graph_diameter", lambda g: 10**6)
    code, out, err = run_cli(capsys, ["verify", square_file])
    assert code == 5
    assert out == ""
    assert err.splitlines()[0] == f"deltahull: bound violated: {message}"


@pytest.mark.parametrize(
    "point", ['["0"]', "not json", "5", '["1/2", "x"]'],
    ids=["short", "not-json", "not-array", "bad-entry"],
)
def test_bad_feasible_point_file_is_a_parse_error(capsys, square_file, tmp_path, point):
    fp = tmp_path / "fp.json"
    fp.write_text(point, encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify", square_file, "--feasible-point", str(fp)])
    assert code == 4
    assert out == ""
    assert "parse error" in err


def test_short_feasible_point_in_instance_is_a_parse_error(capsys, tmp_path):
    doc = {"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": [1, 1, 0, 0],
           "feasible_point": ["0"]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, ["verify", str(path)])
    assert code == 4
    assert "point has 1 coordinates, expected 2" in err


def test_infeasible_given_point_is_a_parse_error(capsys, square_file, tmp_path):
    fp = tmp_path / "fp.json"
    fp.write_text('["5", "5"]', encoding="utf-8")
    code, out, err = run_cli(capsys, ["verify", square_file, "--feasible-point", str(fp)])
    assert code == 4
    assert out == ""
    assert "given point outside the polyhedron" in err


def test_infeasibility_messages_past_the_digit_limit(capsys, tmp_path):
    # 1/q1 and 1/q2 have 4,201-digit denominators, accepted on input, and
    # each message's value one of about 8,400 digits.
    q1, q2 = 10**4200, 10**4200 + 1
    empty = {"A": [["1"], ["-1"]], "b": [f"1/{q1}", f"-2/{q2}"]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert (code, out) == (2, "")
    t = (Fraction(2, q2) - Fraction(1, q1)) / 2  # min t with x - t <= 1/q1, -x - t <= -2/q2
    assert err == f"deltahull: infeasible: phase one optimum t = {long_rational_text(t)} > 0\n"
    path = tmp_path / "square.json"
    rows = [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"], ["1", "1"]]
    point = [f"{q1 + 1}/{q1}", f"{q2 + 1}/{q2}"]
    doc = {"A": rows, "b": ["5", "5", "0", "0", "2"], "feasible_point": point}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert (code, out) == (4, "")
    value = long_rational_text(-Fraction(1, q1) - Fraction(1, q2))  # 2 - x - y
    assert err == f"deltahull: given point outside the polyhedron: row 4 violated by {value}\n"


@pytest.mark.parametrize("target", ["instance", "feasible-point"])
def test_non_utf8_file_is_a_parse_error(capsys, square_file, tmp_path, target):
    bad = tmp_path / "bad.json"
    if target == "instance":
        bad.write_bytes(b'{"A": [[1, 0], [0, 1], [-1, 0], [0, -1]], "b": ["\xff"]}')
        argv = ["vertices", str(bad)]
    else:
        bad.write_bytes(b'["\xff", "0"]')
        argv = ["vertices", square_file, "--feasible-point", str(bad)]
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("deltahull: parse error: ")
    assert err.count("\n") == 1
    assert "not UTF-8" in err


@pytest.mark.parametrize("target", ["instance", "feasible-point"])
def test_deeply_nested_json_is_a_parse_error(capsys, square_file, tmp_path, target):
    # json.loads raises RecursionError, not a ValueError, past the recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    argv = ["vertices", str(deep)]
    if target == "feasible-point":
        argv = ["vertices", square_file, "--feasible-point", str(deep)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("deltahull: parse error: invalid JSON: ")
    assert err.count("\n") == 1


def test_csv_empty_field_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("1,0,1\n0,1,1\n-1,0,0\n0,-1,,0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert (code, out, err) == (4, "", "deltahull: parse error: CSV record 4 has an empty field\n")


def test_csv_field_past_the_size_limit_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("1," + "1" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["vertices", str(path)])
    assert (code, out) == (4, "")
    assert err.startswith("deltahull: parse error: invalid CSV: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["vertices"],
        ["vertices", "x.json", "--no-such-flag"],
        ["vertices", "x.json", "--budget", "abc"],
        ["vertices", "x.json", "--budget", "0"],
        ["verify", "x.json", "--budget", "-1"],
    ],
    ids=["command", "missing-path", "flag", "budget-abc", "budget-0", "budget-neg"],
)
def test_usage_error_exits_4_with_argparse_message(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("usage: deltahull")
    assert "error: " in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, ["vertices", "--help"])
    assert code == 0
    assert out.startswith("usage: deltahull vertices")


def test_report_rationals_build_no_fraction():
    """The instance and points blocks of a dual-n2k5 verify report are
    written from the integer form and the vertex records, with no Fraction,
    and say what the rows and points as Fractions say."""
    args = cli.build_parser().parse_args(["verify", str(BENCH_DATA / "dual-n2k5.instance.json")])
    analysis = cli.Analysis(args)
    p, result, _ = analysis.loaded
    with fractions_built() as built:
        instance, points = analysis.instance_block(), cli._points_block(result)
    assert built == []
    assert instance["A"] == [[rational_str(x) for x in row] for row in a_of(p)]
    assert instance["b"] == [rational_str(x) for x in b_of(p)]
    want = [[rational_str(x) for x in v.point] for v in result.vertices]
    assert [v["point"] for v in points["vertices"]] == want and want
