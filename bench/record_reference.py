"""Write data/reference.json: the expected outcome of every benchmark op.

    python3 bench/record_reference.py

Runs each instance of every workload once (default fuzz base) and stores,
under the sha256 of the instance file, the exit code and the digests of the
report fields that `workloads.semantic_digests` compares. Run it only on a
commit whose outputs are the reference.
"""

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ["DELTAHULL_BUDGET"] = "100000"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    instances = {}
    try:
        for name in workloads.WORKLOADS:
            inputs = workloads.build_inputs(name, workdir, workloads.FUZZ_SEED_BASE)
            for op in inputs.ops:
                report_path = workdir / "report.json"
                code, _ = workloads.run_op(op, report_path)
                report = workloads.read_report(code, report_path)
                instances[op.key] = {
                    "name": op.name,
                    "exit": code,
                    "fields": workloads.semantic_digests(report),
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = workloads.DATA / "reference.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"instances": instances}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(instances)} references to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
