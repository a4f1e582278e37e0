"""Isolated-fixed-point models of spin circle-manifolds and their indices.

A manifold is given purely by its fixed-point data: at each of the
finitely many fixed points, a tuple of n nonzero integer weights
(dim M = 2n); a bundle twist is one tuple of integer weights per point,
stored under a name or derived from the weights (``DERIVED_TWISTS``).
``SpinCircleManifold`` states every rule of this data once, for data built
in code and for ``manifold_from_dict``'s JSON alike.  The stored sign
convention makes every point contribute with coefficient +1:

    untwisted        point term   prod_j 1/(s^{-a_j} - s^{a_j})
    bundle twist W   point term   (sum_w s^{2w}) * prod_j 1/(s^{-a_j}-s^{a_j})
    tangent Witten   point term   prod_j phi_1(a_j z, tau)

with s = u^{1/2} = e^{i pi z}; a local orientation mismatch is encoded by
flipping one weight's sign (the re-coding move), never by an external
sign.  The spin-parity condition (all points share the parity of the
weight sum) is validated and flagged, not enforced: non-spin data is
allowed through so the rigidity checker can demonstrate failure on it.

Each sum has its own functions: ``equivariant_index`` (untwisted or
bundle, a RationalFunctionQi in s) and ``witten_index`` (tangent Witten, a
PSeries truncated at an integer order) are one ``laurent_sum`` of the
points' ``theta_term``s, over the common denominator prod (1 - s^{2a});
``index_numeric`` and ``witten_index_numeric`` (with the theta series of
an ``EllipticParams``) evaluate them at a point.  The equivariant index of
a twisted Dirac operator is a virtual character, hence a finite Laurent
polynomial in u with integer coefficients; ``simplify_character`` reduces
the rational-function sum to that form or reports the residual
denominator.  Witten rigidity is the statement that every p-coefficient of
the tangent-Witten series reduces to a degree-zero rational function: that
is exactly what ``rigidity_check`` tests.
"""

from __future__ import annotations

import cmath
import itertools
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from math import gcd, isqrt

from .ring import _poly_str
from .elliptic import theta_term
from .witten import laurent_sum
from .zem import LatticeElement


class ManifoldValidationError(ValueError):
    """Schema violation in manifold data, carrying the field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# the largest |weight| of a point or a stored twist: `special` grows about
# quadratically with it (README, "Command line"), and +-10**9 ran out of memory
MAX_WEIGHT = 1024


def _is_int(x):
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class SpinCircleManifold:
    """Fixed-point data: each point a tuple of ``half_dim`` nonzero integer
    weights, each stored bundle twist one weight tuple per point, all of
    one length (the rank of the bundle), and no |weight| above MAX_WEIGHT.
    The constructor states every rule of the model, raising
    ManifoldValidationError with the path of the field that breaks it, and
    derives ``spin_parity_ok``."""

    name: str
    half_dim: int
    points: list
    twists: dict = field(default_factory=dict)
    spin_parity_ok: bool = field(init=False)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ManifoldValidationError("name", "nonempty string required")
        if not _is_int(self.half_dim) or self.half_dim < 1:
            raise ManifoldValidationError("half_dim", "positive integer required")
        if not self.points:
            raise ManifoldValidationError("points", "at least one fixed point")
        for i, ws in enumerate(self.points):
            path = f"points[{i}].weights"
            if not isinstance(ws, (list, tuple)):
                raise ManifoldValidationError(path, "list required")
            if len(ws) != self.half_dim:
                raise ManifoldValidationError(
                    path, f"expected {self.half_dim} weights, got {len(ws)}"
                )
            for j, w in enumerate(ws):
                if not _is_int(w):
                    raise ManifoldValidationError(f"{path}[{j}]", "integer required")
                if w == 0:
                    raise ManifoldValidationError(f"{path}[{j}]", "zero weight")
                if abs(w) > MAX_WEIGHT:
                    raise ManifoldValidationError(
                        f"{path}[{j}]", f"|weight| above {MAX_WEIGHT}")
        points = self.points = [tuple(ws) for ws in self.points]
        twists = {}
        for tname, lists in self.twists.items():
            path = f"twists.{tname}"
            if tname in ("none", "tangent_witten", *DERIVED_TWISTS):
                raise ManifoldValidationError(path, "reserved name")
            if not isinstance(lists, (list, tuple)) or len(lists) != len(points):
                raise ManifoldValidationError(
                    path, f"one weight list per fixed point required ({len(points)})"
                )
            for i, ws in enumerate(lists):
                if not isinstance(ws, (list, tuple)) or not all(map(_is_int, ws)):
                    raise ManifoldValidationError(
                        f"{path}[{i}]", "list of integers required"
                    )
                if max(map(abs, ws), default=0) > MAX_WEIGHT:
                    raise ManifoldValidationError(
                        f"{path}[{i}]", f"|weight| above {MAX_WEIGHT}")
                if len(ws) != len(lists[0]):
                    raise ManifoldValidationError(
                        f"{path}[{i}]", f"expected {len(lists[0])} weights, "
                        f"the rank at point 0, got {len(ws)}"
                    )
            twists[tname] = tuple(tuple(ws) for ws in lists)
        self.twists = twists
        self.spin_parity_ok = len({sum(ws) % 2 for ws in points}) == 1
        if not self.spin_parity_ok:
            warnings.warn(
                f"manifold {self.name!r}: weight-sum parity differs between "
                "fixed points (data is not spin); rigidity may fail",
                stacklevel=2,
            )

    def bundle_twist(self, name):
        """The bundle twist ``name``, one weight tuple per point: stored, else
        derived from the weights by its rule in ``DERIVED_TWISTS``."""
        if name in self.twists:
            return self.twists[name]
        if name not in DERIVED_TWISTS:
            raise KeyError(
                f"manifold {self.name!r} has no twist {name!r}; stored: "
                f"{sorted(self.twists)}, derived: {sorted(DERIVED_TWISTS)}"
            )
        rule = DERIVED_TWISTS[name]
        return tuple(rule(tangent_complex_weights(ws)) for ws in self.points)


def manifold_from_dict(data):
    """Raw JSON data as a SpinCircleManifold.  The JSON shapes that the
    constructor never sees (the objects around the weight lists) are
    checked here; the constructor checks the rest, with the same paths."""
    if not isinstance(data, dict):
        raise ManifoldValidationError("$", "manifold must be a JSON object")
    raw_points = data.get("points")
    if not isinstance(raw_points, list):
        raise ManifoldValidationError("points", "list required")
    for i, raw in enumerate(raw_points):
        if not isinstance(raw, dict) or "weights" not in raw:
            raise ManifoldValidationError(
                f"points[{i}]", "object with a 'weights' list required"
            )
    twists = data.get("twists", {})
    if not isinstance(twists, dict):
        raise ManifoldValidationError("twists", "object required")
    return SpinCircleManifold(
        name=data.get("name"), half_dim=data.get("half_dim"),
        points=[raw["weights"] for raw in raw_points], twists=twists,
    )


def load_manifold(source):
    """Load a manifold from a ``CATALOG`` name or a file path; a bare
    catalog name is never read as a file (write ``./cp3`` for that)."""
    if (isinstance(source, str) and source not in CATALOG
            and os.path.exists(source)):
        with open(source, "r", encoding="utf-8") as fh:
            return manifold_from_dict(json.load(fh))
    name = str(source).removesuffix(".json")
    if name not in CATALOG:
        raise FileNotFoundError(
            f"no such manifold file or catalog entry: {source!r} "
            f"(catalog: {', '.join(CATALOG)})"
        )
    points = CATALOG[name]
    return SpinCircleManifold(name, len(points[0]), points)


# ---------------------------------------------------------------------------
# the bundled catalog, generated from weight rules


def linear_points(x):
    """The fixed points of the circle with speeds x_0, ..., x_n acting
    linearly on CP^n: point i has the weights x_j - x_i, j != i."""
    return [tuple(xj - xi for j, xj in enumerate(x) if j != i)
            for i, xi in enumerate(x)]


def product_points(*factors):
    """The fixed points of a product, one point of each factor with their
    weights joined, in ``itertools.product`` order."""
    return [sum(pts, ()) for pts in itertools.product(*factors)]


# name -> the points its rule generates, in the sorted order `catalog` lists
CATALOG = {
    "cp3": linear_points((0, 1, 2, 3)),
    "cp3_alt": linear_points((0, 1, 3, 7)),
    "s2": linear_points((0, 1)),
    "s2xs2xs2": product_points(*(linear_points((0, a)) for a in (1, 2, 3))),
}


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


# the twists every manifold has: name -> rule on the weights of T_C at a point
DERIVED_TWISTS = {"s2t": sym2_weights, "lambda3t": lambda3_weights}


# ---------------------------------------------------------------------------
# special points


def _orders(m):
    """O(M): every positive divisor of a |weight|, in increasing order (a
    torsion point of order k meets the poles of each weight that k divides)."""
    weights = {abs(w) for pt in m.points for w in pt}
    return sorted({d for w in weights for e in range(1, isqrt(w) + 1)
                   if w % e == 0 for d in (e, w // e)})


def special_orders(m):
    """O(M) (every divisor of a |weight|) and, per order k, the torsion
    points (alpha + beta tau)/k with 0 <= alpha, beta < k and exact order k."""
    orders = _orders(m)
    return orders, {k: [LatticeElement.torsion(a, b, k) for a in range(k)
                        for b in range(k) if gcd(gcd(a, b), k) == 1]
                    for k in orders}


# ---------------------------------------------------------------------------
# indices


def _require_bundle(m, bundle):
    if bundle is not None and len(bundle) != len(m.points):
        raise ManifoldValidationError(
            "bundle", f"expected {len(m.points)} weight lists, got {len(bundle)}"
        )


def _sum_and_max(terms):
    """The sum of the list of complex ``terms`` and the largest |term| in
    it: a sum far below that is rounding noise."""
    total = 0j
    for term in terms:
        total += term
    return total, max(0.0, *map(abs, terms))


def equivariant_index(m, bundle=None):
    """The index of the Dirac operator twisted by ``bundle`` (one weight
    tuple per point, as ``bundle_twist`` gives it; None: untwisted) as a
    RationalFunctionQi in s: the depth-0 ``laurent_sum`` of the points'
    ``theta_term``s, one per bundle weight w with s^{2w} in its monomial."""
    _require_bundle(m, bundle)
    terms = []
    for i, pt in enumerate(m.points):
        num, den, (p_pow, s_pow, sign) = theta_term(1, pt, 0)
        ws = (0,) if bundle is None else bundle[i]
        terms += [(num, den, (p_pow, s_pow + 2 * w, sign)) for w in ws]
    return laurent_sum(0, terms).coeffs[0]


def witten_index(m, order):
    """The tangent-Witten index, sum over points of prod_a phi_1(a z), as a
    PSeries over Q(s) truncated at ``order`` (ValueError below 0)."""
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return laurent_sum(order, [theta_term(1, pt, order) for pt in m.points])


def index_numeric(m, z, bundle=None):
    """``equivariant_index`` as a complex value at the point z, and the
    largest |term| of its fixed-point sum.  OverflowError names z where
    e^{i pi a z} leaves the floats."""
    _require_bundle(m, bundle)
    z = complex(z)
    terms = []
    for i, pt in enumerate(m.points):
        term = 1.0 + 0j
        for a in pt:
            try:
                e = cmath.exp(1j * cmath.pi * a * z)
                if not e:
                    raise OverflowError
            except OverflowError:
                raise OverflowError(f"z = {z} is too far from the real axis: "
                                    f"e^(i pi a z) at a = {a} is no nonzero float") from None
            term *= 1.0 / (1.0 / e - e)
        if bundle is not None:
            term *= sum(cmath.exp(2j * cmath.pi * w * z) for w in bundle[i])
        terms.append(term)
    return _sum_and_max(terms)


def witten_index_numeric(m, params, z):
    """``witten_index`` as a complex value at the point z, with the theta
    series of ``params``, and the largest |term| of its fixed-point sum."""
    z = complex(z)
    return _sum_and_max([params.theta_product(1, [a * z for a in pt])
                         for pt in m.points])


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
        lau = {e: _poly_str((x,), lead) for e, x in lau.items()}
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
    theta = witten_index(m, q_order)
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
