"""elliptica benchmark runner.

    python3 perfbench/run.py --workload {translations,rigidity,identities}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each sample is a cold run: a fresh
interpreter (perfbench/child.py) imports the package from ``src/``, runs
the workload's commands through ``elliptica.cli.main`` and checks every
report against ``perfbench/reference.json`` before its clock stops.  CLI
users pay cold series caches on every command, so no cache survives from
one sample to the next.  Samples run one at a time until the next one would
overrun ``--seconds``; metrics are medians over the samples.

Host speed.  On a shared host the same computation was measured to take
anywhere from 1x to 2x its fastest time, in spells lasting about a minute,
so raw medians of 40-second runs a few minutes apart spread by up to a
quarter.  Each sample therefore also times a fixed calibration slice every
20 ms, in its own process (see child.py).  In slow spells the slice slowed
by about 1.7x where the package's workloads slowed by about 1.3x; the square
root of the slice's slowdown matched all three workloads (fitted exponents
0.5 to 0.6).  The graded time ``wall_ref_s`` is therefore the sample's wall
time, less the slices, times the square root of the reference slice time
over the sample's median slice time: seconds at the reference host speed.
The raw seconds are printed on the line before the result.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
``wall_ref_s`` (first command to last checked report, in reference
seconds), ``setup_s`` (interpreter
spawn to first command: interpreter, ``import elliptica``, manifold loading)
and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced samples
alternate and the last line reports the per-layer metrics of the traced
samples (see perfbench/tracer.py) plus ``trace.overhead_ratio``.  Failed
operations (an exception, an unexpected exit code, a result that differs
from the reference, or reports that differ between samples) are counted in
``failed``; a run with any failure reports ``correct: false``, no metrics,
and exits 1.  Earlier stdout lines record the pinned environment, the
generated inputs and the sample counts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_ref_s": "ref_s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 120
# the calibration slice time (child.py) that defines a reference second:
# about its median in fast spells on the 2-core Xeon host the benchmark was
# defined on
REFERENCE_SLICE_S = 0.0002
# how the package's time scales with the slice's time across host spells
HOST_SPEED_ELASTICITY = 0.5
# ELLIPTICA_THREADS switches identity_check onto its thread-pool path
CHILD_ENV_UNSET = ("ELLIPTICA_THREADS",)
CHILD_ENV_PINNED = {"PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("max_degree"):
        return "degree"
    return "count"


def _git_sha():
    """The checkout's commit, read from .git directly (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_UNSET}
    env.update(CHILD_ENV_PINNED)
    return env


def environment_record():
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "child_env_pinned": CHILD_ENV_PINNED | {"PYTHONPATH": "src"},
        "child_env_unset": list(CHILD_ENV_UNSET),
    }


def run_child(work, index, args, files_json, trace):
    """One cold sample; returns the child's result with the spawn time and
    the report bytes, or a result whose every operation failed."""
    out_dir = work / f"sample{index}"
    out_dir.mkdir()
    result_file = out_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--files", str(files_json), "--out-dir", str(out_dir),
           "--trace", str(trace), "--result", str(result_file)]
    failure = None
    with open(out_dir / "stderr.txt", "wb") as err:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                failure = f"child exited {proc.returncode}"
        except subprocess.TimeoutExpired:
            failure = f"child timed out after {CHILD_TIMEOUT_S} s"
    if failure is not None:
        failure += ": " + (out_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(failure, file=sys.stderr)
        ops = workloads.operations(args.workload, args.seed, json.loads(files_json.read_text()))
        return {"trace": trace, "ops": [{"op": op.name, "problem": failure} for op in ops]}
    res = json.loads(result_file.read_text(encoding="utf-8"))
    res.update(trace=trace, t_spawn=t_spawn)
    for op in res["ops"]:
        path = out_dir / op["report"]
        op["bytes"] = path.read_bytes() if path.exists() else None
    return res


def check_identical_reports(samples):
    """Every sample of a run has the same inputs, so its reports must be
    byte-identical to the first sample's, traced or not."""
    first = samples[0]["ops"]
    for s in samples[1:]:
        for mine, ref in zip(s["ops"], first):
            if mine["problem"] is None and mine["bytes"] != ref.get("bytes"):
                mine["problem"] = "report differs from the first sample's"


def raw_wall(s):
    return s["t_end"] - s["t_first"]


def ref_wall(s):
    """Wall seconds without the calibration slices, at the reference speed."""
    speed = REFERENCE_SLICE_S / s["cal_median_s"]
    return (raw_wall(s) - s["cal_total_s"]) * speed ** HOST_SPEED_ELASTICITY


def summarize(samples, trace):
    untraced = [s for s in samples if not s["trace"]]
    if not trace:
        values = {
            "wall_ref_s": statistics.median(ref_wall(s) for s in untraced),
            "setup_s": statistics.median(s["t_first"] - s["t_spawn"] for s in untraced),
            "peak_rss_mb": statistics.median(s["rss_kb"] / 1024 for s in untraced),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced = [s for s in samples if s["trace"]]
    names = list(traced[0]["layers"])
    metrics = {n: statistics.median(s["layers"][n] for s in traced) for n in names}
    metrics["trace.overhead_ratio"] = (statistics.median(ref_wall(s) for s in traced)
                                       / statistics.median(ref_wall(s) for s in untraced))
    return {n: {"value": v, "unit": layer_unit(n)} for n, v in sorted(metrics.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description="elliptica benchmark runner")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind normally: the running sample is killed and reaped,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "elliptica" / "__init__.py").is_file():
        print(f"no elliptica sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # byte-compile once up front, as an installed package would be, so that
    # no sample pays for compilation
    if not compileall.compile_dir(str(SRC / "elliptica"), quiet=1):
        print("byte-compiling src/elliptica failed", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        actions, files = workloads.write_inputs(args.workload, args.seed, work)
        files_json = work / "files.json"
        files_json.write_text(json.dumps(files), encoding="utf-8")
        print(json.dumps({"environment": environment_record()}))
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "generated_actions": actions}))

        samples = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for trace in ((0, 1) if args.trace else (0,)):
                samples.append(run_child(work, len(samples), args, files_json, trace))
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    check_identical_reports(samples)
    attempted = sum(len(s["ops"]) for s in samples)
    problems = [(i, op["op"], op["problem"]) for i, s in enumerate(samples)
                for op in s["ops"] if op["problem"] is not None]
    timed = [s for s in samples if "t_end" in s and not s["trace"]]
    print(json.dumps({"samples": len(samples),
                      "traced_samples": sum(1 for s in samples if s["trace"]),
                      "operations_per_sample": len(samples[0]["ops"]),
                      "raw_wall_s": statistics.median(raw_wall(s) for s in timed) if timed else None,
                      "raw_wall_s_samples": [raw_wall(s) for s in timed],
                      "setup_s_samples": [s["t_first"] - s["t_spawn"] for s in timed],
                      "calibration_slice_s_samples": [s["cal_median_s"] for s in timed],
                      "failed_ratio": len(problems) / attempted,
                      "elliptica": next((s["elliptica"] for s in samples if "elliptica" in s), None),
                      "problems": [f"sample {i}: {op}: {p}" for i, op, p in problems[:20]]}))
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(problems),
                          "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": summarize(samples, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
