"""Record the reference results the benchmark checks every run against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs every operation that has a recorded reference once, in-process,
and writes ``perfbench/reference.json``.  Generated rigidity inputs have
inline expectations instead (see ``workloads.check``); the identity suites'
verdicts do not depend on the seed, so seed 0 records them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from elliptica.cli import main as cli_main  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in workloads.WORKLOADS:
            _, files = workloads.write_inputs(workload, 0, tmp)
            for op in workloads.operations(workload, 0, files):
                if op.expected is not None:
                    continue
                out = Path(tmp) / "report.json"
                code = cli_main(list(op.argv) + ["--out", str(out)])
                if code != op.exit_code:
                    raise SystemExit(f"{op.name}: exit code {code}, expected {op.exit_code}")
                report = json.loads(out.read_text(encoding="utf-8"))
                reference[op.name] = workloads.results_of(report)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} references to {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
