"""Command-line surface: identity suites, series expansion, index and
rigidity computation, catalog access.

Machine-readable JSON goes to stdout (sorted keys, no timestamps: a fixed
seed and configuration reproduce the report byte for byte); a short human
summary goes to stderr.  Exit codes: 0 all checks passed, 1 a mathematical
failure was detected, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import json
import math
import os
import sys

from .elliptic import (
    EllipticParams,
    TRANSLATIONS,
    phi_exact,
    phi_numeric,
    phi_translate_check,
)
from .fixedpoint import (
    CATALOG,
    DERIVED_TWISTS,
    ManifoldValidationError,
    equivariant_index,
    index_numeric,
    load_manifold,
    rigidity_check,
    simplify_character,
    special_orders,
    witten_index,
    witten_index_numeric,
)
from .zem import SUITE_NAMES, _require_tol, identity_check

USAGE_ERROR = 2
MATH_FAILURE = 1

ALL_SUITES = ("translations",) + SUITE_NAMES


def _json_safe(value):
    """The report with every non-finite float replaced by its name as a
    string ("NaN", "Infinity", "-Infinity"), which standard JSON can carry;
    finite reports come back unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class UsageError(Exception):
    """Bad input: ``main`` prints it as one stderr line and returns 2."""


def _check_out(out_path):
    """Refuse, before the work and with the reason ``open`` would give, an
    --out that is a directory or whose directory cannot be reached; nothing
    is created or truncated, and ``_emit`` reports what only writing finds."""
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.dirname(out_path) or ".")
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _emit(report, out_path):
    text = json.dumps(_json_safe(report), sort_keys=True, indent=1,
                      allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: "
                             f"{exc.strerror or exc}") from None
    else:
        print(text)


def _summary(line):
    print(line, file=sys.stderr)


def _parse_complex(raw):
    try:
        return complex(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a complex number: {raw!r}"
        ) from None


def _parse_tau(raw):
    tau = _parse_complex(raw.replace(" ", ""))
    try:
        EllipticParams(tau=tau)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tau


def _parse_point(raw):
    """A point z, checked here and kept as typed, since reports echo it."""
    if not cmath.isfinite(_parse_complex(raw)):
        raise argparse.ArgumentTypeError(
            f"not a complex number with finite parts: {raw!r}"
        )
    return raw


def _tolerance(raw):
    """A tolerance that ``zem._require_tol`` accepts."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    try:
        _require_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _bounded_int(low, high=None):
    def integer(raw):
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be an integer <= {high}")
        return value

    return integer


# the tolerance that verify's config echoes when --tol is not given
DEFAULT_TOL = 1e-8

# the deepest --q-order: the time of an exact product grows about cubically
# with it (expand --phi 1 took 0.3, 1.8 and 20.6 s, and 21, 43 and 151 MB,
# at 640, 1280 and 2560 on a 2-core Xeon), and an order of 10**20 would
# build factors until memory ran out
MAX_Q_ORDER = 4096

_SHARED_OPTIONS = {
    "q_order": ("--q-order", dict(dest="q_order",
                                  type=_bounded_int(0, MAX_Q_ORDER), default=80)),
    "tau": ("--tau", dict(type=_parse_tau, default=1j)),
}


def cmd_verify(args):
    if args.suite == "all":
        suites = list(ALL_SUITES)
    else:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not suites:
            raise UsageError(f"no suite named in {args.suite!r}")
        for i, s in enumerate(suites):
            if s not in ALL_SUITES:
                raise UsageError(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")
            if s in suites[:i]:
                raise UsageError(f"suite {s!r} is named twice")
    results = []
    all_passed = True
    for suite in suites:
        if suite == "translations":
            checks = [phi_translate_check(w, args.q_order).to_json()
                      for w in TRANSLATIONS]
            passed = all(c["passed"] for c in checks)
            results.append(
                {"suite": "translations", "checks": checks, "passed": passed,
                 "q_order": args.q_order}
            )
        else:
            # without --tol each suite keeps its own tolerance
            rep = identity_check(
                suite, trials=args.trials, dims=args.dims, seed=args.seed,
                tol=args.tol,
            )
            passed = rep.passed
            results.append(rep.to_json())
        all_passed &= passed
        _summary(f"suite {suite:22s} {'pass' if passed else 'FAIL'}")
    report = {
        "command": "verify",
        "config": {
            "seed": args.seed,
            "trials": args.trials,
            "tol": DEFAULT_TOL if args.tol is None else args.tol,
            "q_order": args.q_order,
            "dims": args.dims,
        },
        "suites": results,
        "passed": all_passed,
    }
    _emit(report, args.out)
    _summary("verify: " + ("all suites passed" if all_passed else "FAILURES"))
    return 0 if all_passed else MATH_FAILURE


# what a numeric evaluation at a point raises at a pole (PoleError and
# WittenDenominatorError are ValueErrors), where rounding z - m tau into the
# theta series' strip would cost half of the digits of phi_i, where pi z leaves
# the floats (ValueError from cmath.exp), or where z is too far off (OverflowError)
_AT_ERRORS = (ValueError, ArithmeticError)


def _load(source):
    try:
        return load_manifold(source)
    except ManifoldValidationError as exc:
        raise UsageError(f"invalid manifold data: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"invalid manifold data: {source}: {exc}") from None
    except OSError as exc:
        raise UsageError(str(exc)) from None


def cmd_index(args):
    m = _load(args.manifold)
    bundle = None
    if args.twist not in ("none", "tangent_witten"):
        try:
            bundle = m.bundle_twist(args.twist)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    report = {
        "command": "index",
        "manifold": m.name,
        "twist": args.twist,
        "spin_parity_ok": m.spin_parity_ok,
    }
    witten = args.twist == "tangent_witten"
    # the point is evaluated before the exact sum, which a pole would waste
    if args.at is not None:
        z = complex(args.at)
        try:
            value, max_term = (witten_index_numeric(m, EllipticParams(tau=args.tau), z)
                               if witten else index_numeric(m, z, bundle))
        except _AT_ERRORS as exc:
            raise UsageError(f"cannot evaluate at z = {args.at}: {exc}") from None
        report["at"] = {"z": str(args.at), "value": str(value),
                        "max_term": str(max_term)}
        if witten:  # the one sum that depends on tau
            report["at"]["tau"] = str(args.tau)
    failed = False
    if witten:
        report["series"] = witten_index(m, args.q_order).to_json()
    else:
        theta = equivariant_index(m, bundle)
        simp = simplify_character(theta)
        report["character"] = str(theta)
        report["simplified"] = simp.to_json()
        failed = not (simp.ok and simp.integral)
    _emit(report, args.out)
    _summary(f"index of {m.name} / {args.twist} computed")
    return MATH_FAILURE if failed else 0


def cmd_rigidity(args):
    m = _load(args.manifold)
    rep = rigidity_check(m, args.q_order)
    report = {"command": "rigidity", **rep.to_json()}
    _emit(report, args.out)
    _summary(
        f"rigidity of {m.name}: {'rigid' if rep.rigid else 'NOT RIGID'} "
        f"through p^{args.q_order}"
    )
    return 0 if rep.rigid else MATH_FAILURE


def cmd_special(args):
    m = _load(args.manifold)
    orders, reps = special_orders(m)
    report = {
        "command": "special",
        "manifold": m.name,
        "orders": orders,
        "representatives": {str(k): [str(g) for g in v] for k, v in reps.items()},
    }
    _emit(report, args.out)
    _summary(f"special orders of {m.name}: {orders}")
    return 0


def cmd_expand(args):
    # phi_numeric finds a pole before the exact series is built
    if args.at is not None:
        try:
            value = phi_numeric(args.phi, EllipticParams(tau=args.tau),
                                complex(args.at))
        except _AT_ERRORS as exc:
            raise UsageError(f"cannot evaluate at z = {args.at}: {exc}") from None
    series = phi_exact(args.phi, args.q_order)
    report = {
        "command": "expand",
        "phi": args.phi,
        "series": series.to_json(),
    }
    if args.at is not None:
        p0 = cmath.exp(0.5j * cmath.pi * args.tau)
        try:
            s0 = cmath.exp(1j * cmath.pi * complex(args.at))
            series_value = series.evaluate(s0, p0)
        except _AT_ERRORS as exc:
            raise UsageError(f"cannot evaluate at z = {args.at}: {exc}") from None
        report["at"] = {
            "z": str(args.at),
            "tau": str(args.tau),
            "numeric": str(value),
            "series_value": str(series_value),
        }
    _emit(report, args.out)
    _summary(f"phi_{args.phi} expanded to order p^{args.q_order}")
    return 0


def cmd_catalog(args):
    names = list(CATALOG)
    if args.dump:
        if args.dump not in CATALOG:
            raise UsageError(f"no catalog entry {args.dump!r}; available: {names}")
        m = load_manifold(args.dump)
        _emit({"name": m.name, "half_dim": m.half_dim,
               "points": [{"weights": ws} for ws in m.points]}, args.out)
        return 0
    _emit({"command": "catalog", "manifolds": names}, args.out)
    _summary(f"{len(names)} bundled manifolds")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elliptica",
        description="identity suites, theta-quotient expansions, and "
        "equivariant index computations at isolated fixed points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        """The shared options named, each declared only by the subcommands
        that read it, and --out, which every subcommand reads."""
        for name in names:
            flag, kwargs = _SHARED_OPTIONS[name]
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("verify", help="run identity suites")
    common(p, "q_order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_bounded_int(1), default=100)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="the tolerance of every suite run (default: each "
                   "suite's own)")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated list of suite names")
    p.add_argument("--dims", type=_bounded_int(2), default=8,
                   help="cap on the real dimension of random torus data")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("index", help="equivariant index from fixed-point data")
    common(p, "q_order", "tau")
    p.add_argument("--manifold", required=True,
                   help="path to a manifold JSON file or a catalog name")
    p.add_argument("--twist", default="none",
                   help=f"none | tangent_witten | {' | '.join(DERIVED_TWISTS)}"
                   " | a bundle twist stored in the manifold file")
    p.add_argument("--at", type=_parse_point, default=None,
                   help="also evaluate numerically at z")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("rigidity", help="per-coefficient constancy check")
    common(p, "q_order")
    p.add_argument("--manifold", required=True)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("special", help="special orders and torsion points")
    common(p)
    p.add_argument("--manifold", required=True)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("expand", help="exact series of a theta quotient")
    common(p, "q_order", "tau")
    p.add_argument("--phi", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--at", type=_parse_point, default=None,
                   help="also evaluate numerically at z")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("catalog", help="list or dump bundled manifolds")
    common(p)
    p.add_argument("--dump", default=None,
                   help="print one catalog entry as a manifold file")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        _summary(str(exc))
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
