"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from elliptica.cli import main as cli_main  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _run_op(op, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(list(op.argv) + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_generator_is_deterministic_per_seed(tmp_path):
    assert workloads.generate_actions(11) == workloads.generate_actions(11)
    assert workloads.generate_actions(11) != workloads.generate_actions(12)
    for act in workloads.generate_actions(11):
        assert len(set(act["params"])) == 4
        assert all(c in workloads.PARAMETER_RANGE for c in act["params"])
    written = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        written.append(workloads.write_inputs("rigidity", 11, tmp_path / name)[1])
    first, second = written
    assert first.keys() == second.keys()
    for key in first:
        assert Path(first[key]).read_bytes() == Path(second[key]).read_bytes()


def test_generated_twin_differs_from_its_action_in_one_sign():
    for rigid, twin in workloads.generated_manifolds(workloads.generate_actions(3)):
        flat = [w for p in rigid["points"] for w in p["weights"]]
        flat_twin = [w for p in twin["points"] for w in p["weights"]]
        assert sum(a != b for a, b in zip(flat, flat_twin)) == 1
        assert sorted(map(abs, flat)) == sorted(map(abs, flat_twin))


def test_gate_accepts_true_results_and_flags_wrong_ones(tmp_path):
    reference = workloads.load_reference()
    _, files = workloads.write_inputs("rigidity", 5, tmp_path)
    ops = {op.name: op for op in workloads.operations("rigidity", 5, files)}

    twin = ops["rigidity gen0_flipped"]
    code, report = _run_op(twin, tmp_path)
    assert workloads.check(twin, code, report, reference) is None
    # the flipped twin expected rigid: the gate must refuse it
    wrong = dataclasses.replace(twin, exit_code=0, expected="rigid")
    assert workloads.check(wrong, code, report, reference) is not None
    wrong_code_only = dataclasses.replace(twin, exit_code=0)
    assert workloads.check(wrong_code_only, code, report, reference) is not None

    rigid = ops["rigidity gen0"]
    code, report = _run_op(rigid, tmp_path)
    assert workloads.check(rigid, code, report, reference) is None
    assert workloads.check(dataclasses.replace(rigid, expected="not rigid"),
                           code, report, reference) is not None

    s2 = ops["rigidity s2"]
    code, report = _run_op(s2, tmp_path)
    assert workloads.check(s2, code, report, reference) is None
    report["constants"][1] = "1"
    assert workloads.check(s2, code, report, reference) is not None
    assert workloads.check(s2, code, None, reference) is not None


def test_reference_covers_every_recorded_operation():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        files = {"cp3_flipped": "x"} | {f"gen{k}{s}": "x"
                                        for k in range(workloads.GENERATED_ACTIONS)
                                        for s in ("", "_flipped")}
        for op in workloads.operations(workload, 0, files):
            assert op.expected is not None or op.name in reference, op.name


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    proc = _run_benchmark("--workload", "rigidity", "--seed", "1", "--seconds", "1",
                       "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if trace:
        m = last["metrics"]
        assert 0 <= m["trace.unattributed_s"]["value"] < 0.05 * sum(
            v["value"] for k, v in m.items() if k.endswith(".self_s"))
    assert not (ROOT / ".perfbench_work").exists()


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark("--workload", "translations", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
