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
import json
import math
import sys

from .elliptic import (
    EllipticParams,
    PoleError,
    TRANSLATIONS,
    phi_exact,
    phi_numeric,
    phi_translate_check,
)
from .fixedpoint import (
    ManifoldValidationError,
    SpecialPointError,
    TwistSpec,
    consistency_check,
    equivariant_index,
    index_numeric,
    list_catalog,
    load_manifold,
    rigidity_check,
    simplify_character,
    special_orders,
)
from .witten import WittenDenominatorError
from .zem import SUITE_NAMES, LatticeElement, identity_check

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


def _emit(report, out_path):
    text = json.dumps(_json_safe(report), sort_keys=True, indent=1,
                      allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
        EllipticParams(tau=tau).cutoff()
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


def _positive_float(raw):
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _bounded_int(low):
    def integer(raw):
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return value

    return integer


# the tolerance that verify's config echoes, and consistency's default, when
# --tol is not given
DEFAULT_TOL = 1e-8

_SHARED_OPTIONS = {
    "seed": ("--seed", dict(type=int, default=0)),
    "trials": ("--trials", dict(type=_bounded_int(1), default=100)),
    "tol": ("--tol", dict(type=_positive_float, default=DEFAULT_TOL)),
    "q_order": ("--q-order", dict(dest="q_order", type=_bounded_int(0),
                                  default=80)),
    "tau": ("--tau", dict(type=_parse_tau, default=None)),
}


def cmd_verify(args):
    if args.suite == "all":
        suites = list(ALL_SUITES)
    else:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not suites:
            _summary(f"no suite named in {args.suite!r}")
            return USAGE_ERROR
        for s in suites:
            if s not in ALL_SUITES:
                _summary(
                    f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}"
                )
                return USAGE_ERROR
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
            # --tol defaults to None here: each suite keeps its own tolerance
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


# what a numeric evaluation at a point raises at a pole, or where its floats
# overflow or underflow (|Im z| in the hundreds)
_AT_ERRORS = (PoleError, WittenDenominatorError, ZeroDivisionError,
              OverflowError)


def _cannot_evaluate(at, exc):
    _summary(f"cannot evaluate at z = {at}: {exc}")
    return USAGE_ERROR


def _load_or_exit(source):
    try:
        return load_manifold(source), 0
    except ManifoldValidationError as exc:
        _summary(f"invalid manifold data: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _summary(f"invalid manifold data: {source}: {exc}")
    except OSError as exc:
        _summary(str(exc))
    return None, USAGE_ERROR


def cmd_index(args):
    m, code = _load_or_exit(args.manifold)
    if m is None:
        return code
    if args.twist in ("none", "tangent_witten"):
        twist = TwistSpec(args.twist)
    else:
        try:
            twist = m.bundle_twist(args.twist)
        except KeyError as exc:
            _summary(str(exc.args[0]))
            return USAGE_ERROR
    report = {
        "command": "index",
        "manifold": m.name,
        "twist": args.twist,
        "spin_parity_ok": m.spin_parity_ok,
    }
    failed = False
    if twist.kind == "tangent_witten":
        series = equivariant_index(m, twist, args.q_order)
        report["series"] = series.to_json()
    else:
        theta = equivariant_index(m, twist)
        simp = simplify_character(theta)
        report["character"] = str(theta)
        report["simplified"] = simp.to_json()
        failed = not (simp.ok and simp.integral)
    if args.at is not None:
        tau = args.tau if args.tau is not None else 1j
        try:
            value = index_numeric(
                m, twist, EllipticParams(tau=tau), complex(args.at)
            )
        except _AT_ERRORS as exc:
            return _cannot_evaluate(args.at, exc)
        report["at"] = {"z": str(args.at), "tau": str(tau), "value": str(value)}
    _emit(report, args.out)
    _summary(f"index of {m.name} / {args.twist} computed")
    return MATH_FAILURE if failed else 0


def cmd_rigidity(args):
    m, code = _load_or_exit(args.manifold)
    if m is None:
        return code
    rep = rigidity_check(m, args.q_order)
    report = {"command": "rigidity", **rep.to_json()}
    _emit(report, args.out)
    _summary(
        f"rigidity of {m.name}: {'rigid' if rep.rigid else 'NOT RIGID'} "
        f"through p^{args.q_order}"
    )
    return 0 if rep.rigid else MATH_FAILURE


def cmd_special(args):
    m, code = _load_or_exit(args.manifold)
    if m is None:
        return code
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
    series = phi_exact(args.phi, args.q_order)
    report = {
        "command": "expand",
        "phi": args.phi,
        "series": series.to_json(),
    }
    if args.at is not None:
        tau = args.tau if args.tau is not None else 1j
        nparams = EllipticParams(tau=tau)
        p0 = cmath.exp(0.5j * cmath.pi * tau)
        try:
            value = phi_numeric(args.phi, nparams, complex(args.at))
            s0 = cmath.exp(1j * cmath.pi * complex(args.at))
            series_value = series.evaluate(s0, p0)
        except _AT_ERRORS as exc:
            return _cannot_evaluate(args.at, exc)
        report["at"] = {
            "z": str(args.at),
            "tau": str(tau),
            "numeric": str(value),
            "series_value": str(series_value),
        }
    _emit(report, args.out)
    _summary(f"phi_{args.phi} expanded to order p^{args.q_order}")
    return 0


def cmd_consistency(args):
    m, code = _load_or_exit(args.manifold)
    if m is None:
        return code
    try:
        gamma = LatticeElement.torsion(args.alpha, args.beta, args.order_k)
    except ValueError as exc:
        _summary(str(exc))
        return USAGE_ERROR
    tau = args.tau if args.tau is not None else 1j
    try:
        rep = consistency_check(
            m, gamma, EllipticParams(tau=tau), trials=args.trials,
            seed=args.seed, tol=args.tol,
        )
    except SpecialPointError as exc:
        _summary(str(exc))
        return USAGE_ERROR
    report = {"command": "consistency", **rep.to_json()}
    _emit(report, args.out)
    _summary(f"consistency at {gamma}: {'pass' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else MATH_FAILURE


def cmd_catalog(args):
    names = list_catalog()
    if args.dump:
        if args.dump not in names:
            _summary(f"no catalog entry {args.dump!r}; available: {names}")
            return USAGE_ERROR
        from importlib import resources

        text = (
            resources.files("elliptica")
            .joinpath("catalog", f"{args.dump}.json")
            .read_text(encoding="utf-8")
        )
        print(text, end="")
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
    common(p, "seed", "trials", "tol", "q_order")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated list of suite names")
    p.add_argument("--dims", type=_bounded_int(2), default=8,
                   help="cap on the real dimension of random torus data")
    p.set_defaults(func=cmd_verify, tol=None)

    p = sub.add_parser("index", help="equivariant index from fixed-point data")
    common(p, "q_order", "tau")
    p.add_argument("--manifold", required=True,
                   help="path to a manifold JSON file or a catalog name")
    p.add_argument("--twist", default="none",
                   help="none | tangent_witten | a named bundle twist")
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

    p = sub.add_parser("consistency",
                       help="local vs direct evaluation at a nonspecial point")
    common(p, "seed", "trials", "tol", "tau")
    p.add_argument("--manifold", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--order-k", dest="order_k", type=int, required=True)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("catalog", help="list or dump bundled manifolds")
    common(p)
    p.add_argument("--dump", default=None, help="print one catalog file")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifoldValidationError as exc:
        _summary(f"invalid input: {exc}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
