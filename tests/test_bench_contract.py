"""The package surface the frozen benchmark calls, run through the
benchmark's own workload code (bench/workloads.py, loaded read-only), so
that a change to the package which breaks the benchmark fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

from deltahull import cli, serialize

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_fuzz_corpus_is_the_tests_corpus(workloads, fuzz_corpus):
    # make_polyhedron, phase_one and strict_interior_point build both, so a
    # change to the LP layer that accepts other candidates shows here, and
    # as ops with no stored reference.
    count = workloads.FUZZ_COUNT
    assert workloads.fuzz_corpus(workloads.FUZZ_SEED_BASE, count) == fuzz_corpus[:count]
    reference = workloads.load_reference()
    for p in fuzz_corpus[:count]:
        key = workloads.file_key((serialize.dump_instance(p) + "\n").encode())
        assert key in reference, p.name


def test_dual_text_is_what_generate_writes(workloads, tmp_path):
    text, _ = workloads.dual_text(2, 1)
    prefix = tmp_path / "dual"
    assert cli.main(["generate", str(prefix), "--n", "2", "--k", "1",
                     "--json", str(tmp_path / "report.json")]) == cli.EXIT_OK
    assert (tmp_path / "dual.instance.json").read_text(encoding="utf-8") == text


@pytest.mark.parametrize("n, k", [(2, 5), (4, 2)])
def test_generate_writes_the_frozen_dual(tmp_path, n, k):
    # The bench runs the frozen files and only prints a drift; a change to
    # the lift that moves their bytes fails here.
    prefix = tmp_path / "dual"
    assert cli.main(["generate", str(prefix), "--n", str(n), "--k", str(k),
                     "--json", str(tmp_path / "report.json")]) == cli.EXIT_OK
    frozen = (BENCH / "data" / f"dual-n{n}k{k}.instance.json").read_bytes()
    assert (tmp_path / "dual.instance.json").read_bytes() == frozen


def test_one_fuzz_op_passes_the_reference_and_the_oracle(workloads, tmp_path):
    p = workloads.fuzz_corpus(workloads.FUZZ_SEED_BASE, 1)[0]
    data = (serialize.dump_instance(p) + "\n").encode()
    path = tmp_path / f"{p.name}.instance.json"
    path.write_bytes(data)
    op = workloads.Op(p.name, str(path), ["--count"], workloads.file_key(data))
    report_path = tmp_path / "report.json"
    code, _ = workloads.run_op(op, report_path)
    assert code == cli.EXIT_OK
    report = workloads.read_report(code, report_path)
    # check_invariants compares the vertices with enumerate_all_bases_oracle.
    assert workloads.check_invariants(op, code, report) == []
    entry = workloads.load_reference()[op.key]
    assert workloads.check_against_reference(entry, code, report) == []


@pytest.mark.parametrize("workload", ["fuzz100", "dual-n2k5", "dual-n4k2"])
def test_every_bench_op_matches_the_reference(workloads, tmp_path, workload):
    # The bench's own inputs and check: a report change that would fail the
    # benchmark fails here. Fuzz files go to tmp_path; the duals are read
    # from bench/data.
    inputs = workloads.build_inputs(workload, tmp_path, workloads.FUZZ_SEED_BASE)
    reference = workloads.load_reference()
    report_path = tmp_path / "report.json"
    problems = {}
    for op in inputs.ops:
        code, _ = workloads.run_op(op, report_path)
        report = workloads.read_report(code, report_path)
        bad = workloads.check_against_reference(reference[op.key], code, report)
        if bad:
            problems[op.name] = bad
    assert problems == {}
