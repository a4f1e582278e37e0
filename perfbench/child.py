"""One cold run of one workload, in the fresh interpreter that run.py starts.

The workload's commands run in-process through ``elliptica.cli.main`` with
``--out`` to a file, and every report is checked against the reference
before the clock stops.  The result goes to ``--result`` as JSON: the
clock readings, the host speed, the outcome of each operation, the peak
resident set and, with ``--trace 1``, the per-layer metrics.

Host speed is read while the workload runs: every 20 ms a SIGALRM handler
times one fixed slice of Fraction arithmetic (about 0.25 ms) in this
process, so the slices see the same core at the same moments as the
workload.  The slices' time falls to the layer they interrupt, about 1 %.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

CAL_INTERVAL_S = 0.02
_CAL_A = tuple(Fraction(k + 1, k + 2) for k in range(8))
_CAL_B = tuple(Fraction(2 * k - 3, k + 5) for k in range(8))


def _calibration_slice():
    """Fixed exact arithmetic, never changed with the package, so its time
    measures the host alone."""
    out = [Fraction(0)] * (len(_CAL_A) + len(_CAL_B) - 1)
    for i, x in enumerate(_CAL_A):
        for j, y in enumerate(_CAL_B):
            out[i + j] += x * y
    return out


class HostSpeed:
    """Times a calibration slice every CAL_INTERVAL_S between start and stop."""

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _calibration_slice()
        self.slices.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def layer_metrics(tr, wall_s, report_bytes, rigidity_coeffs):
    """Per-layer readings of one traced run, named as in BENCHMARK.json
    (``trace.overhead_ratio`` is added by run.py, which sees both runs)."""
    from tracer import LAYERS

    m = {f"{layer}.self_s": tr.self_s[layer] for layer in LAYERS}
    m.update({
        "ring.gcd.calls": tr.calls("ring.poly_gcd"),
        "ring.gcd.s": tr.seconds("ring.poly_gcd"),
        "ring.gcd.useful_ratio": tr.gcd_useful_ratio(),
        "ring.gcd.max_degree": tr.gcd_max_degree,
        "ring.divmod.calls": tr.calls("ring.poly_divmod"),
        "ring.rf_new.calls": tr.calls("ring.RationalFunctionQi.__init__"),
        "qseries.regrade.calls": tr.calls("qseries.ps_substitute_t[p_shift]"),
        "qseries.regrade.s": tr.seconds("qseries.ps_substitute_t[p_shift]"),
        "qseries.mul.calls": tr.calls("qseries.PSeries.__mul__"),
        "qseries.mul.s": tr.seconds("qseries.PSeries.__mul__"),
        "qseries.compose.calls": tr.calls("qseries.ps_compose_power"),
        "elliptic.phi_exact.calls": tr.calls("elliptic.phi_exact"),
        "elliptic.phi_exact.s": tr.seconds("elliptic.phi_exact"),
        "elliptic.phi_exact.cache_hit_ratio": tr.cache_hit_ratio("elliptic.phi_exact"),
        "elliptic.phi_numeric.calls": tr.calls("elliptic.phi_numeric"),
        "elliptic.phi_numeric.raised": tr.raised("elliptic.phi_numeric"),
        "witten.calls": tr.layer_calls["witten"],
        "witten.raised": tr.layer_raised["witten"],
        "spinchar.calls": tr.layer_calls["spinchar"],
        "spinchar.raised": tr.layer_raised["spinchar"],
        "zem.z_fun.calls": tr.calls("zem.z_fun"),
        "zem.em_fun.calls": tr.calls("zem.em_fun"),
        "zem.raised": tr.layer_raised["zem"],
        "fixedpoint.index.s": tr.seconds("fixedpoint.equivariant_index"),
        "fixedpoint.rigidity.coeffs": rigidity_coeffs,
        "cli.report_bytes": report_bytes,
        "trace.unattributed_s": wall_s - sum(tr.self_s[layer] for layer in LAYERS),
    })
    for suite in workloads.IDENTITY_SUITES:
        m[f"zem.suite.{suite}.s"] = (tr.seconds(f"zem.identity_check[{suite}]")
                                     + tr.seconds(f"zem.degenerate_reduction_check[{suite}]"))
    for name in workloads.RIGIDITY_MANIFOLDS:
        m[f"fixedpoint.rigidity.{name}.s"] = tr.seconds(f"fixedpoint.rigidity_check[{name}]")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--files", required=True, help="JSON file naming the input files")
    ap.add_argument("--out-dir", required=True, help="directory for the reports")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    # cli.main is looked up at each call, so the tracer's wrapper is used
    from elliptica import cli
    from elliptica.fixedpoint import load_manifold

    files = json.loads(Path(args.files).read_text(encoding="utf-8"))
    for path in files.values():
        load_manifold(path)
    ops = workloads.operations(args.workload, args.seed, files)
    reference = workloads.load_reference()
    out_dir = Path(args.out_dir)
    tr = None
    if args.trace:
        from tracer import Tracer

        tr = Tracer().install()

    outcomes = []
    report_bytes = 0
    rigidity_coeffs = 0
    host = HostSpeed()
    if tr is not None:
        tr.start()
    host.start()
    t_first = time.perf_counter()
    for k, op in enumerate(ops):
        out = out_dir / f"{k:02d}.json"
        try:
            try:
                code = cli.main(list(op.argv) + ["--out", str(out)])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            report = None
            if out.exists():
                raw = out.read_bytes()
                report_bytes += len(raw)
                report = json.loads(raw)
                rigidity_coeffs += len(report.get("constants", ()))
            problem = workloads.check(op, code, report, reference)
        except Exception:  # a command that raises is a failed operation
            problem = "raised: " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        outcomes.append({"op": op.name, "report": out.name, "problem": problem})
    t_end = time.perf_counter()
    host.stop()

    result = {
        "t_first": t_first,
        "t_end": t_end,
        "cal_total_s": sum(host.slices),
        "cal_median_s": statistics.median(host.slices),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": outcomes,
        "elliptica": sys.modules["elliptica"].__file__,
    }
    if tr is not None:
        result["layers"] = layer_metrics(tr, t_end - t_first, report_bytes, rigidity_coeffs)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
