"""Isolated-fixed-point models of spin circle-manifolds and their indices.

A manifold is given purely by its fixed-point data: at each of the
finitely many fixed points, n nonzero integer weights (dim M = 2n).  The
stored sign convention makes every point contribute with coefficient +1:

    untwisted        point term   prod_j 1/(s^{-a_j} - s^{a_j})
    bundle twist W   point term   (sum_w s^{2w}) * prod_j 1/(s^{-a_j}-s^{a_j})
    tangent Witten   point term   prod_j phi_1(a_j z, tau)

with s = u^{1/2} = e^{i pi z}; a local orientation mismatch is encoded by
flipping one weight's sign (the re-coding move), never by an external
sign.  The spin-parity condition (all points share the parity of the
weight sum) is validated and flagged, not enforced: non-spin data is
allowed through so the rigidity checker can demonstrate failure on it.

The exact fixed-point sum of every twist (``equivariant_index``, at an
integer order; ``index_numeric`` evaluates it at a point) is one
``laurent_sum`` of the points' ``z_term``s, over the common denominator
prod (1 - s^{2a}).  The equivariant index of a twisted Dirac operator is
a virtual character, hence a finite Laurent polynomial in u with integer
coefficients; ``simplify_character`` reduces the rational-function sum to
that form or reports the residual denominator.  Witten rigidity is the
statement that every p-coefficient of the tangent-Witten series reduces to
a degree-zero rational function: that is exactly what ``rigidity_check``
tests.
"""

from __future__ import annotations

import cmath
import json
import os
import random
import warnings
from dataclasses import asdict, dataclass, field
from importlib import resources
from math import gcd

from .ring import PoleEvaluationError, RationalFunctionQi
from .elliptic import PoleError, phi_numeric
from .spinchar import RotationData
from .witten import WittenDenominatorError, laurent_sum
from .zem import (
    LatticeElement,
    SpecialCollisionError,
    _require_tol,
    _require_trials,
    _worst,
    z_fun,
    z_term,
)


class ManifoldValidationError(ValueError):
    """Schema violation in manifold data, carrying the field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class SpecialPointError(ValueError):
    """A computation was requested at a special point it cannot handle."""


@dataclass(frozen=True)
class FixedPointDatum:
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        for w in self.weights:
            if w == 0:
                raise ManifoldValidationError("weights", "zero weight")


@dataclass(frozen=True)
class TwistSpec:
    """kind 'none' | 'tangent_witten' | 'bundle'; bundle twists carry one
    integer weight list per fixed point."""

    kind: str = "none"
    bundle_weights: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "tangent_witten", "bundle"):
            raise ValueError(f"unknown twist kind {self.kind!r}")
        object.__setattr__(
            self,
            "bundle_weights",
            tuple(tuple(int(w) for w in ws) for ws in self.bundle_weights),
        )


@dataclass
class SpinCircleManifold:
    name: str
    half_dim: int
    points: list
    twists: dict = field(default_factory=dict)
    spin_parity_ok: bool = True

    def __post_init__(self):
        if self.half_dim < 1:
            raise ManifoldValidationError("half_dim", "must be >= 1")
        if not self.points:
            raise ManifoldValidationError("points", "at least one fixed point")
        for i, pt in enumerate(self.points):
            if len(pt.weights) != self.half_dim:
                raise ManifoldValidationError(
                    f"points[{i}].weights",
                    f"expected {self.half_dim} weights, got {len(pt.weights)}",
                )
        parities = {sum(pt.weights) % 2 for pt in self.points}
        if len(parities) > 1:
            self.spin_parity_ok = False
            warnings.warn(
                f"manifold {self.name!r}: weight-sum parity differs between "
                "fixed points (data is not spin); rigidity may fail",
                stacklevel=2,
            )

    def bundle_twist(self, name):
        if name not in self.twists:
            raise KeyError(
                f"manifold {self.name!r} has no twist {name!r}; "
                f"available: {sorted(self.twists)}"
            )
        return TwistSpec(kind="bundle", bundle_weights=self.twists[name])


def _is_int(x):
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def manifold_from_dict(data):
    """Validate raw JSON data into a SpinCircleManifold, with precise
    error locations on failure."""
    if not isinstance(data, dict):
        raise ManifoldValidationError("$", "manifold must be a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ManifoldValidationError("name", "nonempty string required")
    half_dim = data.get("half_dim")
    if not _is_int(half_dim) or half_dim < 1:
        raise ManifoldValidationError("half_dim", "positive integer required")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ManifoldValidationError("points", "nonempty list required")
    points = []
    for i, raw in enumerate(raw_points):
        if not isinstance(raw, dict) or "weights" not in raw:
            raise ManifoldValidationError(
                f"points[{i}]", "object with a 'weights' list required"
            )
        ws = raw["weights"]
        if not isinstance(ws, list):
            raise ManifoldValidationError(f"points[{i}].weights", "list required")
        if len(ws) != half_dim:
            raise ManifoldValidationError(
                f"points[{i}].weights",
                f"expected {half_dim} weights, got {len(ws)}",
            )
        for j, w in enumerate(ws):
            if not _is_int(w):
                raise ManifoldValidationError(
                    f"points[{i}].weights[{j}]", "integer required"
                )
            if w == 0:
                raise ManifoldValidationError(
                    f"points[{i}].weights[{j}]", "zero weight"
                )
        points.append(FixedPointDatum(tuple(ws)))
    twists = {}
    raw_twists = data.get("twists", {})
    if not isinstance(raw_twists, dict):
        raise ManifoldValidationError("twists", "object required")
    for tname, lists in raw_twists.items():
        if not isinstance(lists, list) or len(lists) != len(points):
            raise ManifoldValidationError(
                f"twists.{tname}",
                f"one weight list per fixed point required ({len(points)})",
            )
        for i, ws in enumerate(lists):
            if not isinstance(ws, list) or not all(_is_int(w) for w in ws):
                raise ManifoldValidationError(
                    f"twists.{tname}[{i}]", "list of integers required"
                )
        twists[tname] = tuple(tuple(ws) for ws in lists)
    return SpinCircleManifold(
        name=name, half_dim=half_dim, points=points, twists=twists
    )


def load_manifold(source):
    """Load a manifold from a file path or a bundled catalog name."""
    if isinstance(source, str) and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return manifold_from_dict(json.load(fh))
    name = str(source)
    if name.endswith(".json"):
        name = name[:-5]
    base = resources.files("elliptica").joinpath("catalog")
    candidate = base.joinpath(f"{name}.json")
    try:
        text = candidate.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no such manifold file or catalog entry: {source!r} "
            f"(catalog: {', '.join(list_catalog())})"
        ) from None
    return manifold_from_dict(json.loads(text))


def list_catalog():
    base = resources.files("elliptica").joinpath("catalog")
    names = []
    for entry in base.iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


# ---------------------------------------------------------------------------
# derived twists


def tangent_complex_weights(weights):
    """Weights of the complexified tangent space at a point: a and -a."""
    return tuple(weights) + tuple(-w for w in weights)


def sym2_weights(weights):
    ws = list(weights)
    return tuple(
        ws[i] + ws[j] for i in range(len(ws)) for j in range(i, len(ws))
    )


def lambda3_weights(weights):
    ws = list(weights)
    n = len(ws)
    return tuple(
        ws[i] + ws[j] + ws[k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


# ---------------------------------------------------------------------------
# special points


def special_orders(m):
    """O(M) (all |weight| values) and, per order k, the torsion points
    (alpha + beta tau)/k with 0 <= alpha, beta < k and exact order k."""
    orders = sorted({abs(w) for pt in m.points for w in pt.weights})
    reps = {}
    for k in orders:
        reps[k] = [
            LatticeElement.torsion(a, b, k)
            for a in range(k)
            for b in range(k)
            if gcd(gcd(a, b), k) == 1
        ]
    return orders, reps


# ---------------------------------------------------------------------------
# indices


def _require_bundle_shape(m, twist):
    if twist.kind == "bundle" and len(twist.bundle_weights) != len(m.points):
        raise ManifoldValidationError(
            "twist.bundle_weights",
            f"expected {len(m.points)} weight lists, got "
            f"{len(twist.bundle_weights)}",
        )


def equivariant_index(m, twist, order=0):
    """Exact fixed-point sum for the twisted Dirac index: a PSeries over
    Q(s) truncated at ``order`` (kind 'tangent_witten') or, from the same
    sum at depth 0, a RationalFunctionQi in s (kinds 'none'/'bundle', one
    term per bundle weight w with s^{2w} in its monomial, ``order`` only
    checked).  An order below 0 raises ValueError for every kind."""
    _require_bundle_shape(m, twist)
    kind = twist.kind
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    order = order if kind == "tangent_witten" else 0
    terms = []
    for i, pt in enumerate(m.points):
        num, den, (p_pow, s_pow, sign) = z_term(pt.weights, order)
        ws = twist.bundle_weights[i] if kind == "bundle" else (0,)
        terms += [(num, den, (p_pow, s_pow + 2 * w, sign)) for w in ws]
    series = laurent_sum(order, terms)
    return series if kind == "tangent_witten" else series.coeffs[0]


def index_numeric(m, twist, params, z):
    """The fixed-point sum of ``equivariant_index`` as a complex value at
    the point z, with the products of ``params``."""
    _require_bundle_shape(m, twist)
    kind = twist.kind
    z = complex(z)
    total = 0j
    for i, pt in enumerate(m.points):
        term = 1.0 + 0j
        if kind == "tangent_witten":
            for a in pt.weights:
                term *= phi_numeric(1, params, a * z)
        else:
            for a in pt.weights:
                e = cmath.exp(1j * cmath.pi * a * z)
                term *= 1.0 / (1.0 / e - e)
            if kind == "bundle":
                term *= sum(
                    cmath.exp(2j * cmath.pi * w * z)
                    for w in twist.bundle_weights[i]
                )
        total += term
    return total


@dataclass
class SimplifyResult:
    ok: bool
    laurent: dict | None = None
    integral: bool = False
    residual_denominator: str | None = None

    def to_json(self):
        out = {"ok": self.ok, "integral": self.integral}
        if self.laurent is not None:
            out["laurent"] = {str(e): str(c) for e, c in sorted(self.laurent.items())}
        if self.residual_denominator is not None:
            out["residual_denominator"] = self.residual_denominator
        return out


def simplify_character(theta):
    """Reduce an index to Laurent-polynomial form.

    A genuine equivariant index is a virtual character: after reduction the
    denominator must be a monomial and all coefficients integers.  A
    non-monomial denominator is reported as a failure with the residual.
    The Laurent form is keyed by the exponent of s = u^{1/2}: even keys are
    honest powers of u, odd keys the half-integer powers that odd-parity
    spin data produces (the action only lifts to the double cover).
    """
    lau = theta.as_laurent()
    if lau is None:
        return SimplifyResult(ok=False, residual_denominator=theta.den_str())
    # the content is 1, so every x / lead is an integer exactly when lead is 1
    lead = theta.lead
    if lead != 1:
        lau = {e: str(RationalFunctionQi.from_integer_laurent({0: x}, {0: lead}))
               for e, x in lau.items()}
    return SimplifyResult(ok=True, laurent=lau, integral=lead == 1)


# ---------------------------------------------------------------------------
# rigidity


@dataclass
class RigidityReport:
    manifold: str
    twist: str
    q_order: int
    rigid: bool
    constants: list
    nonconstant_orders: list
    spin_parity_ok: bool

    def to_json(self):
        return asdict(self)


def rigidity_check(m, q_order):
    """Expand the tangent-Witten index and test, coefficient by
    coefficient, that the rational function in s is a constant."""
    theta = equivariant_index(m, TwistSpec("tangent_witten"), q_order)
    constants = []
    bad = []
    for k, c in enumerate(theta.coeffs):
        if c.is_constant():
            constants.append(str(c))
        else:
            constants.append(None)
            bad.append(k)
    return RigidityReport(
        manifold=m.name,
        twist="tangent_witten",
        q_order=q_order,
        rigid=not bad,
        constants=constants,
        nonconstant_orders=bad,
        spin_parity_ok=m.spin_parity_ok,
    )


# ---------------------------------------------------------------------------
# local-vs-direct consistency at non-special points


@dataclass
class ConsistencyReport:
    manifold: str
    gamma: str
    trials: int
    max_residual: float
    tol: float
    passed: bool

    def to_json(self):
        return asdict(self)


# the errors of a draw that lands on a pole or a special point; any other
# error is a bug and propagates
_DEGENERATE_DRAW = (PoleError, SpecialCollisionError, WittenDenominatorError,
                    PoleEvaluationError, ZeroDivisionError)


def consistency_check(m, gamma, params, trials=20, seed=0, tol=1e-9):
    """At a non-special torsion point, the tangent-Witten index evaluated
    through each point's local invariant (the character route of Z) must
    match the direct product evaluation at gamma + y + z."""
    if not (isinstance(gamma, LatticeElement) and gamma.is_torsion):
        raise SpecialPointError("consistency_check needs a torsion point")
    _require_tol(tol)
    _require_trials(trials)
    orders, _ = special_orders(m)
    if gamma.k in orders:
        raise SpecialPointError(
            f"gamma has order {gamma.k}, which is special for "
            f"{m.name!r} (O(M) = {orders}); the transfer identities at "
            "special points are covered by the zem identity suites"
        )
    rng = random.Random(seed)
    gv = gamma.value(params.tau)
    worst = 0.0
    done = 0
    attempts = 0
    while done < trials and attempts < 40 * trials:
        attempts += 1
        y = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05))
        zz = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.05, 0.05))
        try:
            direct = index_numeric(
                m, TwistSpec("tangent_witten"), params, gv + y + zz
            )
            local = 0j
            scale = 1e-30
            for pt in m.points:
                jdata = RotationData(pt.weights, 1)
                offsets = RotationData(
                    tuple(a * (y + zz) for a in pt.weights), 1
                )
                term = z_fun(gamma, jdata, offsets, params, route="character")
                local += term
                scale = max(scale, abs(term))
        except _DEGENERATE_DRAW:
            continue
        # the fixed-point sum cancels (often to exactly 0), so residuals are
        # measured against the size of the individual contributions
        worst = _worst(worst, abs(direct - local) / scale)
        done += 1
    if done < trials:
        raise SpecialPointError("could not complete consistency trials")
    return ConsistencyReport(
        manifold=m.name,
        gamma=str(gamma),
        trials=trials,
        max_residual=worst,
        tol=tol,
        passed=worst < tol,
    )
