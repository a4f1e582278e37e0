"""The invariant functions Z, EM_eps, EM and the executable identity suite.

For integer rotation data J (entries a, one per 2-plane, orientation sign
nu) and per-plane offsets r_a, the fundamental product is

    Z(gamma, J)(R) = nu * prod_a phi_1(a*gamma + r_a, tau),

equal by construction to C_1 / Str evaluated at the combined rotation;
both are implemented (``z_fun``, ``z_character``) and cross-checked.  J
alone carries the orientation: the offsets R = (r_a) are a plain sequence.
Os(J/k, o), the orientation sign of the angles a * 2 pi / k, is
``spinchar.os_sign`` on the rotation numbers themselves.
EM_eps covers the parity cases at even-order torsion points via the
W_2/W_3/W_4 characters that ``elliptic.HALF_PERIODS`` selects, with their
traces and scalar constants; EM glues an adapted-K Z-value on the part
where the cyclic action has no -1 eigenvalue with EM_eps on the -1
eigenspace.

``identity_check`` runs the nine identity suites of ``SUITE_NAMES``.
Eight are randomized numeric verifications (and, for the two periodicity
suites, exact coefficient comparisons) of the transfer and periodicity
identities, at a default tolerance of 1e-8.  The ninth,
``degenerate-reduction``, is the q -> 0 limit of the transfer identity:
with the theta series cut to their constant terms (series terms 0), both
sides must equal their reciprocal-supertrace (chi) expressions, at a
default tolerance of 1e-10.  Every trial derives its generator from
(seed, suite, trial), so reports are reproducible and trials independent.
That independence lets ``identity_check`` split a suite's trials into
contiguous shares, one per CPU the process may run on: it forks one worker
per share after the first, runs the first itself and merges the shares in
trial order, so the report is the same byte for byte on any number of CPUs.
"""

from __future__ import annotations

import cmath
import marshal
import math
import os
import random
import signal
from dataclasses import dataclass, field
from math import gcd

from .elliptic import (
    HALF_PERIODS,
    POLE_GUARD,
    PREFACTORS,
    EllipticParams,
    PoleError,
    _lattice_offset,
    translation_difference,
)
from .spinchar import (
    CyclicAction,
    RotationData,
    SpinCharError,
    chi,
    epsilon_J,
    os_sign,
    spinor_trace,
    v_sign,
)
from .witten import WittenDenominatorError, witten_char

_TWO_PI = 2.0 * math.pi
_TWO_I_PI = 2j * cmath.pi


class ZemError(ValueError):
    """Base class for invariant-function errors."""


class SpecialCollisionError(ZemError):
    """a*gamma fell on the lattice for a rotation number a."""

    def __init__(self, message, rotation_number):
        super().__init__(message)
        self.rotation_number = rotation_number


class BothEvenError(ZemError):
    """EM_eps requested with alpha and beta both even."""


class DegenerateDrawError(ZemError):
    """A suite could not find a nondegenerate random configuration."""


# ---------------------------------------------------------------------------
# points of the elliptic curve


@dataclass(frozen=True, slots=True)
class LatticeElement:
    """A torsion point (alpha + beta*tau)/k of E_tau; a free point is a
    plain complex number.

    Torsion data is kept reduced, gcd(alpha, beta, k) = 1, so the point has
    exact order k; representatives differing by (k, 0) or (0, k) describe
    the same point but are deliberately not collapsed, since the functions
    of gamma built here transform under such shifts rather than being
    invariant.
    """

    alpha: int
    beta: int
    k: int

    @classmethod
    def torsion(cls, alpha, beta, k):
        if k < 1:
            raise ZemError("torsion order k must be >= 1")
        if gcd(gcd(abs(alpha), abs(beta)), k) != 1:
            raise ZemError(
                f"torsion data ({alpha}, {beta}, {k}) is not reduced: the "
                "point does not have exact order k"
            )
        return cls(alpha, beta, k)

    def value(self, tau):
        return (self.alpha + self.beta * complex(tau)) / self.k

    def translate(self, d_alpha, d_beta):
        """gamma + d_alpha + d_beta*tau, staying in torsion form."""
        return LatticeElement(
            self.alpha + d_alpha * self.k, self.beta + d_beta * self.k, self.k
        )

    def __str__(self):
        return f"({self.alpha}+{self.beta}*tau)/{self.k}"


# ---------------------------------------------------------------------------
# Z


def _z_points(gamma, J, offsets, params, strict):
    """(nu, points) of Z(gamma, J)(R): the orientation sign of J and the
    points a*gamma + r_a, after the ``strict`` collision check: does
    a*gamma lie on the lattice, the poles of phi_1 (exactly for torsion,
    within POLE_GUARD for free points)?"""
    entries = J.entries
    zero = False
    for a in entries:
        if not isinstance(a, int):
            raise ZemError("z_fun needs integer rotation data J")
        if not a:
            zero = True
    if zero:
        raise ZemError("z_fun needs invertible J (no zero rotation numbers)")
    if offsets is not None and len(offsets) != len(entries):
        raise ZemError("offsets must give one r_a per plane of J")
    torsion = isinstance(gamma, LatticeElement)
    gv = gamma.value(params.tau) if torsion else complex(gamma)
    if strict:
        for a in entries:
            if (a * gamma.alpha % gamma.k == 0 and a * gamma.beta % gamma.k == 0
                    if torsion else _lattice_offset(a * gv, params.tau)[0] < POLE_GUARD):
                raise SpecialCollisionError(
                    f"a*gamma lies on the lattice for rotation number a = {a}", a
                )
    points = ([a * gv for a in entries] if offsets is None
              else [a * gv + complex(r) for a, r in zip(entries, offsets)])
    return J.orientation_sign, points


def z_fun(gamma, J, offsets, params, *, strict=True):
    """The product invariant nu * prod_a phi_1(a*gamma + r_a), evaluated.

    gamma is a LatticeElement or complex; J carries the integer rotation
    numbers and the orientation sign nu; ``offsets`` is the sequence of
    per-plane offsets r_a (z-scale; None means 0).  ``strict`` enforces the
    analyticity condition a*gamma not in the lattice; disable it for the
    identities that intentionally sit on lattice translates with the
    offsets keeping the arguments off the poles.  ``z_character`` evaluates
    the same function as C_1/Str, and nu times the ``laurent_sum`` of
    ``elliptic.theta_term(1, J.entries, order)`` is the formal series.
    """
    nu, points = _z_points(gamma, J, offsets, params, strict)
    return nu * params.theta_product(1, points)


def z_character(gamma, J, offsets, params):
    """``z_fun`` (strict) as C_1/Str: through the spinor-trace and
    Witten-character code at the same points, not the phi_1 products."""
    nu, points = _z_points(gamma, J, offsets, params, True)
    return _z_tau_series_value(points, nu, params)


def _offset_angles(offsets, sign):
    """Offsets r (z-scale) as angle data 2 pi r with orientation ``sign``,
    plus the eigenvalue e = e^{2 pi i r} of each plane (the other is 1/e)."""
    angles, eigs = [], []
    for r in offsets:
        r = complex(r)
        angles.append(_TWO_PI * r)
        eigs.append(cmath.exp(_TWO_I_PI * r))
    return RotationData(angles, sign), eigs


def _theta_parts(case, angles, eigs, params):
    """(trace, W_i, power): the spinor trace (``PREFACTORS``) and the W_i
    character of the quotient phi_i that the parity case selects
    (``HALF_PERIODS``), and the power, -1 or 1, at which the trace enters."""
    i = HALF_PERIODS[case][0]
    kind, power, _ = PREFACTORS[i]
    return spinor_trace(kind, angles), witten_char(i, eigs, params), power


def _z_tau_series_value(offsets, sign, params):
    """Z(tau, N, o_N)(R) at ``offsets`` R, with o_N given by ``sign``, as
    C_1 / Str: ``z_character`` at the points a * gamma + r_a."""
    angles, eigs = _offset_angles(offsets, sign)
    st, w, _ = _theta_parts((0, 0), angles, eigs, params)
    if abs(st) < 1e-140:
        raise ZemError("supertrace vanished in C_1 / Str")
    return w / st


# ---------------------------------------------------------------------------
# EM_eps and EM


def _c_constant(case, alpha, beta, planes):
    """(i, unit, p_pow, sign) of the constant c of a parity case, with
    (i, unit, p_pow) its row of ``HALF_PERIODS``:
    c = (i^unit p^p_pow)^{dim N/2} sign, sign = (-1)^{e/4},
    e = (alpha + beta - 1) dim N for c2 and c3, (alpha + beta) dim N for c1
    and c4."""
    # The q-power is q^{dim N/8} = (q^{1/4})^{dim N/2}: one factor q^{1/4}
    # per plane, forced by the half-period translation of phi_1 (the
    # printed constants q^{dim N/2} fail against the product formula; see
    # the regression test pinning this).
    i, unit, p_pow = HALF_PERIODS[case]
    e = (alpha + beta - (1 if case in ((1, 0), (0, 1)) else 0)) * 2 * planes
    if e % 4:
        # an explicit check, not an assert: it must survive python -O, and a
        # ZemError would be retried as a degenerate draw
        raise ValueError(
            f"parity case {case} does not fit (alpha, beta) = ({alpha}, "
            f"{beta}) on {planes} planes: sign exponent {e} is not a "
            "multiple of 4"
        )
    return i, unit, p_pow, -1 if (e // 4) % 2 else 1


def _c_constant_numeric(case, alpha, beta, planes, params):
    _, unit, p_pow, sign = _c_constant(case, alpha, beta, planes)
    return (1j**unit * params.p**p_pow) ** planes * float(sign)


def _em_case(gamma):
    """(alpha mod 2, beta mod 2) of an even-order torsion point, for EM_eps."""
    if not isinstance(gamma, LatticeElement):
        raise ZemError("em_eps needs a torsion point")
    if gamma.k % 2 != 0:
        raise ZemError("em_eps needs even torsion order")
    case = (gamma.alpha % 2, gamma.beta % 2)
    if case == (0, 0):
        raise BothEvenError(
            "alpha and beta are both even: excluded at exact even order"
        )
    return case


def em_eps(gamma, R, params):
    """The parity-selected invariant at an even-order torsion point.

    alpha odd / beta even:  c2 * C_2(R) / Tr(e^R, S_N)
    alpha even / beta odd:  c3 * Tr(e^R, S_N) * C_3(R)
    both odd:               c4 * Str(e^R, S_N, o_N) * C_4(R)

    with c2 = i^{dim N/2} (-1)^{(alpha+beta-1) dim N/4},
         c3 = q^{dim N/8} (-1)^{(alpha+beta-1) dim N/4},
         c4 = (i q^{1/4})^{dim N/2} (-1)^{(alpha+beta) dim N/4}:
    the quotient phi_i of ``HALF_PERIODS`` and its trace of ``PREFACTORS``.
    """
    case = _em_case(gamma)
    c = _c_constant_numeric(case, gamma.alpha, gamma.beta, R.planes, params)
    angles, eigs = _offset_angles(R.entries, R.orientation_sign)
    trace, w, power = _theta_parts(case, angles, eigs, params)
    return c * w / trace if power < 0 else c * trace * w


def em_fun(gamma, zeta, R, params):
    """EM at a torsion point for a cyclic action without eigenvalue 1 (its
    ``normalized_residues`` refuses one, with SpinCharError).

    Planes where zeta acts by -1 (residue k/2) go through em_eps; on the
    rest, Os(K/k, o)^{alpha+beta} * Z(gamma, K)(R) with the canonical
    adapted K.  The orientation sign carried by R is assigned to the
    unreflected part; the reflected part is computed in its own positive
    orientation, realizing the product-orientation convention.
    """
    if not isinstance(gamma, LatticeElement):
        raise ZemError("em_fun needs a torsion point")
    k = zeta.k
    if gamma.k != k:
        raise ZemError("gamma must have the exact order of the action")
    if R.planes != zeta.planes:
        raise ZemError("R must give one offset per plane of the action")
    sigma = R.orientation_sign
    res = zeta.normalized_residues()
    half = k // 2 if k % 2 == 0 else None  # the residue of the -1 action
    b_idx = [j for j, r in enumerate(res) if r == half]
    g_idx = [j for j, r in enumerate(res) if r != half]
    out = 1.0 + 0j
    if b_idx:
        # when the unreflected part is empty the total orientation sign
        # belongs to the reflected factor
        b_sign = sigma if not g_idx else 1
        r_b = RotationData([R.entries[j] for j in b_idx], b_sign)
        out *= em_eps(gamma, r_b, params)
    if g_idx:
        g_res = [res[j] for j in g_idx] if b_idx else res
        kdata = RotationData(g_res, sigma)
        r_g = [R.entries[j] for j in g_idx] if b_idx else R.entries
        os_k = os_sign(g_res, k, sigma)
        out *= (os_k ** (gamma.alpha + gamma.beta)) * z_fun(
            gamma, kdata, r_g, params
        )
    return out


# ---------------------------------------------------------------------------
# identity suites


@dataclass
class IdentityReport:
    suite: str
    trials: int
    seed: int
    tol: float
    max_residual: float = 0.0
    failures: list = field(default_factory=list)
    exact_checks: dict | None = None
    passed: bool = True

    def record(self, trial, residual, data):
        # _worst of the two: a NaN kept stays, a NaN residual replaces, and
        # else the larger, the first of two equal ones
        worst = self.max_residual
        if worst == worst and (residual != residual or residual > worst):
            self.max_residual = residual
        if residual >= self.tol or residual != residual:  # NaN guard
            self.failures.append(
                {"trial": trial, "residual": residual, "data": data}
            )
            self.passed = False

    def merge(self, max_residual, failures):
        """Take in a share of trials recorded by another report."""
        self.max_residual = _worst(self.max_residual, max_residual)
        self.failures += failures
        self.passed = self.passed and not failures

    def to_json(self):
        out = {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "failures": self.failures,
            "passed": self.passed,
        }
        if self.exact_checks is not None:
            out["exact_checks"] = self.exact_checks
        return out


def _worst(*residuals):
    """The largest residual, or a NaN if there is one: the builtin max keeps
    or drops a NaN depending on its position."""
    for r in residuals:
        if r != r:
            return r
    return max(residuals)


def _require_tol(tol):
    """Reject a tolerance under which no verdict means anything: none
    passes below 0, and any finite one passes from 1 on, since a residual
    is at most 2 and is 1 wherever one side is 0."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must be finite, > 0 and < 1, got {tol!r}")


def _residual(lhs, rhs):
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


# The trials draw through these helpers, in fewer Python calls than the
# random.Random methods they stand for; each returns what its method returns,
# from the same raw draws (tests/test_draws.py pins them).


def _randint(rng, a, b):
    """rng.randint(a, b), and rng.choice(seq) as seq[_randint(rng, 0,
    len(seq) - 1)]: a plus a draw below the width n = b - a + 1, read from
    getrandbits(n.bit_length()) and read again until it is below n."""
    n = b - a + 1
    if n < 1:
        raise ValueError(f"randint({a}, {b}) has an empty range")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def _draw_complex(rng, re_low, re_high, im_low, im_high):
    """complex(rng.uniform(re_low, re_high), rng.uniform(im_low, im_high)),
    where uniform(a, b) is a + (b - a) * random()."""
    random = rng.random
    return complex(re_low + (re_high - re_low) * random(),
                   im_low + (im_high - im_low) * random())


def _draw_angle(rng):
    return _draw_complex(rng, 0.1, 3.0, -0.2, 0.2)


def _draw_offset(rng):
    return _draw_complex(rng, 0.1, 3.0, -0.2, 0.2) / _TWO_PI


def _draw_sign(rng):
    return 1 if rng.random() < 0.5 else -1


def _draw_nonzero_int(rng, bound):
    while True:
        a = _randint(rng, -bound, bound)
        if a:
            return a


def _draw_reduced_torsion(rng, k, bound=2):
    m = bound * k
    for _ in range(200):
        alpha = _randint(rng, -m, m)
        beta = _randint(rng, -m, m)
        if gcd(alpha, beta, k) == 1:
            return LatticeElement(alpha, beta, k)  # reduced: the check above
    raise DegenerateDrawError(f"no reduced torsion point of order {k} found")


def _require_dims(dims):
    """Reject a dimension cap with no room for one plane."""
    if not dims >= 2:
        raise ValueError(f"dims must be >= 2 (room for one plane), got {dims!r}")


def _require_trials(trials):
    """Reject a trial count under which no draw is checked at all."""
    if not trials >= 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")


def _max_planes(dims):
    return int(dims) // 2


# -- suite bodies (one trial each; raise PoleError and friends to retry) ----


def _trial_k_transfer(rng, dims, params):
    planes_total = _randint(rng, 1, _max_planes(dims))
    n1 = _randint(rng, 1, planes_total)
    n0 = planes_total - n1
    sig0 = _draw_sign(rng) if n0 else 1  # the zero space only carries +
    sig1 = _draw_sign(rng)
    sig_n = _draw_sign(rng)
    y = [_draw_angle(rng) for _ in range(planes_total)]
    r = [_draw_angle(rng) for _ in range(planes_total)]
    theta = [_draw_angle(rng) for _ in range(n1)]

    lhs = 1.0 + 0j
    if n0:
        lhs *= chi(None, RotationData([y[j] + r[j] for j in range(n0)], sig0))
    lhs *= chi(theta, RotationData([y[n0 + j] + r[n0 + j] for j in range(n1)], sig1))
    g_full = ([y[j] / 2.0 for j in range(n0)]
              + [theta[j] + y[n0 + j] / 2.0 for j in range(n1)])
    rhs = (sig_n * sig0 * sig1) * chi(g_full, RotationData(r, sig_n))
    return _residual(lhs, rhs), {
        "planes": planes_total,
        "n0_planes": n0,
        "signs": [sig0, sig1, sig_n],
    }


def _z_periodicity_exact(entries, order):
    """Exact gamma -> gamma+1, (m, k) = (0, 2), and gamma -> gamma+tau,
    (2, 0), of the formal Z-series prod_a phi_1(a z) for positive rotation
    numbers ``entries``: each gives eps_J times the series (a sign nu would
    multiply both sides)."""
    eps = epsilon_J(entries)
    target = (1, 0 if eps > 0 else 2, 0)
    return {
        "gamma_plus_one_first_diff": translation_difference(entries, 0, 2, target, order),
        "gamma_plus_tau_ok": translation_difference(entries, 2, 0, target, order) is None,
        "epsilon": eps,
    }


def _trial_z_periodicity(rng, dims, params):
    planes = _randint(rng, 1, _max_planes(dims))
    entries = tuple([_draw_nonzero_int(rng, 4) for _ in range(planes)])
    sig = _draw_sign(rng)
    J = RotationData(entries, sig)
    r = [_draw_offset(rng) for _ in range(planes)]
    gamma = _draw_complex(rng, -0.4, 0.4, -0.25, 0.25)
    y = _draw_complex(rng, -0.2, 0.2, -0.1, 0.1)
    tau = params.tau
    eps = epsilon_J(entries)

    shifted = [r[j] + entries[j] * y for j in range(planes)]
    lhs1 = z_fun(gamma, J, shifted, params)
    rhs1 = z_fun(gamma + y, J, r, params)
    res = _residual(lhs1, rhs1)

    base = z_fun(gamma, J, r, params)
    res = _worst(res, _residual(z_fun(gamma + 1.0, J, r, params), eps * base))
    res = _worst(res, _residual(z_fun(gamma + tau, J, r, params), eps * base))
    res = _worst(res, _residual(z_character(gamma, J, r, params), base))
    return res, {"entries": list(entries), "gamma": str(gamma)}


def _trial_order_k_trivial(rng, dims, params):
    planes = _randint(rng, 1, _max_planes(dims))
    k = _randint(rng, 1, 4)
    mults = tuple([_draw_nonzero_int(rng, 3) for _ in range(planes)])
    sig = _draw_sign(rng)
    J = RotationData([k * m for m in mults], sig)
    r = [_draw_offset(rng) for _ in range(planes)]
    alpha = _randint(rng, -3, 3)
    beta = _randint(rng, -3, 3)
    gamma = (alpha + beta * params.tau) / k
    lhs = z_fun(gamma, J, r, params, strict=False)
    eps_jk = epsilon_J(mults)
    rhs = (eps_jk ** (alpha + beta)) * sig * _z_tau_series_value(r, 1, params)
    return _residual(lhs, rhs), {
        "k": k,
        "alpha": alpha,
        "beta": beta,
        "rotation_numbers": list(J.entries),
    }


def _trial_all_w(rng, dims, params):
    """One draw of J with half-period rotation numbers, checked against all
    four parity cases of (alpha, beta)."""
    planes = _randint(rng, 1, _max_planes(dims))
    k = (2, 4, 6)[_randint(rng, 0, 2)]
    entries = tuple([k // 2 + k * _randint(rng, -2, 2) for _ in range(planes)])
    sig = _draw_sign(rng)
    J = RotationData(entries, sig)
    r = [_draw_offset(rng) for _ in range(planes)]
    tau = params.tau
    os_k = os_sign(entries, k, sig)
    angles, eigs = _offset_angles(r, sig)
    signed = RotationData(r, sig)

    res = 0.0
    data = {"k": k, "em_eps_checked": False, "cases": []}
    for parity in HALF_PERIODS:
        alpha = parity[0] + 2 * _randint(rng, -2, 2)
        beta = parity[1] + 2 * _randint(rng, -2, 2)
        gamma = (alpha + beta * tau) / k
        lhs = z_fun(gamma, J, r, params, strict=False)
        if parity != (0, 0) and gcd(alpha, beta, k) == 1:
            # at a reduced torsion point the right side is em_eps itself
            gamma_pt = LatticeElement.torsion(alpha, beta, k)
            rhs = (os_k ** (alpha + beta)) * em_eps(gamma_pt, signed, params)
            data["em_eps_checked"] = True
        else:
            c = _c_constant_numeric(parity, alpha, beta, planes, params)
            trace, w, power = _theta_parts(parity, angles, eigs, params)
            body = w / trace if power < 0 else trace * w
            rhs = c * (os_k ** (alpha + beta)) * body
        res = _worst(res, _residual(lhs, rhs))
        data["cases"].append([alpha, beta])
    return res, data


def _draw_zeta(rng, k, planes, allow_minus_one):
    pool = [a for a in range(1, k) if allow_minus_one or 2 * a != k]
    if not pool:
        raise DegenerateDrawError(f"no admissible residues for k = {k}")
    last = len(pool) - 1
    return tuple([pool[_randint(rng, 0, last)] for _ in range(planes)])


def _trial_em_welldef(rng, dims, params):
    planes = _randint(rng, 1, _max_planes(dims))
    # k = 2 admits only the residue k/2 (the -1 action), which has no
    # adapted data; the well-definedness statement starts at k = 3
    k = _randint(rng, 3, 6)
    res_list = _draw_zeta(rng, k, planes, allow_minus_one=False)
    sig = _draw_sign(rng)
    gamma = _draw_reduced_torsion(rng, k)
    r = RotationData([_draw_offset(rng) for _ in range(planes)], sig)
    ab = gamma.alpha + gamma.beta

    def em_via(lift_shifts):
        lifted = [res_list[j] + k * lift_shifts[j] for j in range(planes)]
        os_k = os_sign(lifted, k, sig)
        return (os_k**ab) * z_fun(gamma, RotationData(lifted, sig), r.entries, params)

    # em_fun lifts by the canonical adapted data, em_via([0] * planes): the
    # two agree bit for bit, so em_fun is the base the other lifts meet
    base = em_fun(gamma, CyclicAction(k, res_list), r, params)
    other = em_via([_randint(rng, -2, 2) for _ in range(planes)])
    third = em_via([_randint(rng, -2, 2) for _ in range(planes)])
    res = _worst(_residual(base, other), _residual(base, third))
    return res, {"k": k, "residues": list(res_list), "gamma": str(gamma)}


def _transfer_sides(params, k, n0, n1, sig0, sig1, sig_n, j0, j1,
                    residues, gamma, y, r):
    """Both sides of the transfer identity; returns (lhs, rhs_unsigned,
    epsilon)."""
    ab = gamma.alpha + gamma.beta
    lhs = 1.0 + 0j
    if n0:
        lhs *= _z_tau_series_value([r[j] + j0[j] * y for j in range(n0)], sig0, params)
    off1 = RotationData([r[n0 + j] + j1[j] * y for j in range(n1)], sig1)
    lhs *= em_fun(gamma, CyclicAction(k, residues), off1, params)

    j_full = RotationData((*j0, *j1), sig_n)
    gamma_y = gamma.value(params.tau) + y
    rhs_core = z_fun(gamma_y, j_full, r, params, strict=False)

    os1 = os_sign(j1, k, sig1) ** ab
    eps0 = epsilon_J([a // k for a in j0]) ** ab if n0 else 1
    eps = os1 * eps0 * (sig_n * sig0 * sig1 if n0 else sig_n * sig1)
    return lhs, rhs_core, eps


def _trial_elliptic_transfer(rng, dims, params):
    planes = _randint(rng, 1, _max_planes(dims))
    n1 = _randint(rng, 1, planes)
    n0 = planes - n1
    k = _randint(rng, 2, 6)
    residues = _draw_zeta(rng, k, n1, allow_minus_one=True)
    j0 = [k * _draw_nonzero_int(rng, 2) for _ in range(n0)]
    j1 = [residues[j] + k * _randint(rng, -2, 2) for j in range(n1)]
    sig0 = _draw_sign(rng)
    sig1 = _draw_sign(rng)
    sig_n = _draw_sign(rng)
    gamma = _draw_reduced_torsion(rng, k)
    y = _draw_complex(rng, -0.12, 0.12, -0.06, 0.06)
    r = [_draw_offset(rng) for _ in range(planes)]
    lhs, rhs_core, eps = _transfer_sides(
        params, k, n0, n1, sig0, sig1, sig_n, j0, j1, residues, gamma, y, r
    )
    return _residual(lhs, eps * rhs_core), {
        "k": k,
        "n0_planes": n0,
        "n1_planes": n1,
        "residues": list(residues),
        "gamma": str(gamma),
    }


def _trial_spin_transfer(rng, dims, params):
    # Draw J with even total rotation number (the lift powers to 1) and at
    # least one plane moved by the cyclic action.  Orientations follow the
    # spin-compatible prescription: o_N by J, o_1 by the lift, o_0 the
    # quotient.  With N_0 empty there is no quotient to absorb a mismatch
    # between the two prescriptions, so only draws where they agree are
    # instances of the statement.
    for _ in range(400):
        planes = _randint(rng, 1, _max_planes(dims))
        k = _randint(rng, 2, 6)
        entries = [_draw_nonzero_int(rng, 2 * k) for _ in range(planes)]
        if sum(entries) % 2 != 0 or not any(a % k for a in entries):
            continue
        idx0 = [j for j, a in enumerate(entries) if a % k == 0]
        idx1 = [j for j, a in enumerate(entries) if a % k != 0]
        j0 = [entries[j] for j in idx0]
        j1 = [entries[j] for j in idx1]
        n0, n1 = len(j0), len(j1)
        sig_n = 1
        for a in entries:
            if a < 0:
                sig_n = -sig_n
        eps0 = epsilon_J([a // k for a in j0]) if n0 else 1
        sig1 = os_sign(j1, k, eps0)
        if n0 or sig_n == sig1:
            break
    else:
        raise DegenerateDrawError("no admissible spin draw found")
    residues = [a % k for a in j1]
    sig0 = sig_n * sig1

    # the sign identity behind the clean transfer: Os(J1/k, o1) eps(J0/k) = 1
    os1 = os_sign(j1, k, sig1)
    if os1 * eps0 != 1:
        return 1.0, {"sign_identity_violated": True, "entries": entries}

    gamma = _draw_reduced_torsion(rng, k)
    y = _draw_complex(rng, -0.12, 0.12, -0.06, 0.06)
    r = [_draw_offset(rng) for _ in range(planes)]
    r_sorted = [r[j] for j in idx0] + [r[j] for j in idx1]
    lhs, rhs_core, eps = _transfer_sides(
        params, k, n0, n1, sig0, sig1, sig_n, j0, j1, residues, gamma, y,
        r_sorted,
    )
    if abs(eps - 1) > 1e-12:
        return 1.0, {"prefactor_not_one": eps, "entries": entries}
    return _residual(lhs, rhs_core), {"k": k, "entries": entries}


def _trial_spin_periodicity(rng, dims, params):
    planes = _randint(rng, 1, _max_planes(dims))
    k = _randint(rng, 2, 6)
    residues = _draw_zeta(rng, k, planes, allow_minus_one=True)
    sig = _draw_sign(rng)
    gamma = _draw_reduced_torsion(rng, k)
    r = RotationData([_draw_offset(rng) for _ in range(planes)], sig)
    zeta = CyclicAction(k, residues)
    v = v_sign(zeta, sig)

    base = em_fun(gamma, zeta, r, params)
    shifted = em_fun(gamma.translate(1, 0), zeta, r, params)
    res = _residual(shifted, v * base)
    res = _worst(
        res, _residual(em_fun(gamma.translate(0, 1), zeta, r, params), v * base)
    )
    data = {"k": k, "residues": list(residues), "v": v}
    if v == 1:
        res = _worst(res, _residual(shifted, base))
        data["spin_case"] = True
    return res, data


# -- q -> 0 degeneration of the transfer identity ---------------------------


def _trial_degenerate(rng, dims, q0):
    """The constant q-term of a transfer draw against the reciprocal
    supertrace machinery.

    q0 cuts the theta series to their constant terms: every Witten
    character becomes 1 and phi_1 its reciprocal-sine prefactor.  Draws
    have beta = 0 (real torsion gamma = alpha/k), where the formal
    q-expansion of both transfer sides exists; with the series cut off,
    each side must coincide with the matching combination of chi
    functions, and those combinations must satisfy the finite-order
    twisted multiplicativity identity among themselves.
    """
    planes = _randint(rng, 1, _max_planes(dims))
    n1 = _randint(rng, 1, planes)
    n0 = planes - n1
    k = _randint(rng, 2, 6)
    residues = _draw_zeta(rng, k, n1, allow_minus_one=True)
    j0 = [k * _draw_nonzero_int(rng, 2) for _ in range(n0)]
    j1 = [residues[j] + k * _randint(rng, -2, 2) for j in range(n1)]
    sig0 = _draw_sign(rng) if n0 else 1
    sig1 = _draw_sign(rng)
    sig_n = _draw_sign(rng)
    for _ in range(80):
        alpha = _randint(rng, -2 * k, 2 * k)
        if gcd(abs(alpha), k) == 1:
            break
    else:
        raise DegenerateDrawError("no unit alpha found")
    gamma = LatticeElement.torsion(alpha, 0, k)
    y = _draw_complex(rng, -0.12, 0.12, -0.06, 0.06)
    r = [_draw_offset(rng) for _ in range(planes)]

    lhs_q0, rhs_core_q0, eps = _transfer_sides(
        q0, k, n0, n1, sig0, sig1, sig_n, j0, j1, residues, gamma, y, r
    )
    rhs_q0 = eps * rhs_core_q0

    gv = gamma.value(q0.tau)  # = alpha/k, real

    # left side through the chi machinery: untwisted chi on the fixed part,
    # the adapted lift's chi (with its orientation sign) on the moved part
    chi_lhs = 1.0 + 0j
    if n0:
        chi_lhs *= chi(
            None,
            RotationData([_TWO_PI * (j0[j] * y + r[j]) for j in range(n0)], sig0),
        )
    res_norm = [a % k for a in j1]
    half = k // 2 if k % 2 == 0 else None  # the residue of the -1 action
    b_pos = [j for j, rr in enumerate(res_norm) if rr == half]
    g_pos = [j for j, rr in enumerate(res_norm) if rr != half]
    if b_pos:
        b_sign = sig1 if not g_pos else 1
        angles_b = RotationData(
            [_TWO_PI * (j1[j] * y + r[n0 + j]) for j in b_pos], b_sign
        )
        c2 = _c_constant_numeric((1, 0), alpha, 0, len(b_pos), q0)
        chi_lhs *= c2 / spinor_trace("tr", angles_b)
    if g_pos:
        g_theta = [math.pi * res_norm[j] * gv for j in g_pos]
        angles_g = RotationData(
            [_TWO_PI * (j1[j] * y + r[n0 + j]) for j in g_pos], sig1
        )
        os_g = os_sign([res_norm[j] for j in g_pos], k, sig1)
        chi_lhs *= (os_g**alpha) * chi(g_theta, angles_g)

    # right side through the chi machinery: the finite-order element acts on
    # every plane, including the fixed part where it contributes signs
    all_entries = (*j0, *j1)
    g_all = [math.pi * a * gv for a in all_entries]
    r_all = RotationData(
        [_TWO_PI * (all_entries[j] * y + r[j]) for j in range(planes)], sig_n
    )
    chi_rhs = eps * chi(g_all, r_all)

    res = _worst(
        _residual(lhs_q0, chi_lhs),
        _residual(rhs_q0, chi_rhs),
        _residual(chi_lhs, chi_rhs),
    )
    return res, {
        "k": k,
        "alpha": alpha,
        "n0_planes": n0,
        "n1_planes": n1,
    }


# -- the suite table ---------------------------------------------------------

# name -> (trial body, series terms, default tolerance); the order is that
# of ``verify --suite all``.  The q -> 0 suite cuts both theta series to
# their constant terms.
_SUITES = {
    "K-transfer": (_trial_k_transfer, None, 1e-8),
    "Z-periodicity": (_trial_z_periodicity, None, 1e-8),
    "order-k-trivial": (_trial_order_k_trivial, None, 1e-8),
    "allW": (_trial_all_w, None, 1e-8),
    "EM-welldef": (_trial_em_welldef, None, 1e-8),
    "elliptic-transfer": (_trial_elliptic_transfer, None, 1e-8),
    "spin-transfer": (_trial_spin_transfer, None, 1e-8),
    "spin-periodicity": (_trial_spin_periodicity, None, 1e-8),
    "degenerate-reduction": (_trial_degenerate, 0, 1e-10),
}

SUITE_NAMES = tuple(_SUITES)

_EXACT_ORDER = 16


def _exact_component(suite, seed, order=_EXACT_ORDER):
    """Exact coefficient comparisons attached to the periodicity suites."""
    if suite not in ("Z-periodicity", "spin-periodicity"):
        return None
    rng = random.Random(f"{seed}|{suite}|exact")
    if suite == "Z-periodicity":
        entries = [_randint(rng, 1, 3) for _ in range(_randint(rng, 1, 3))]
    else:
        # even total rotation number: exp(J) = 1 in the spin group, so the
        # gamma+1 substitution must reproduce the series with no sign
        entries = [_randint(rng, 1, 3) for _ in range(2)]
        if sum(entries) % 2:
            entries[0] += 1
    out = _z_periodicity_exact(entries, order)
    out["entries"] = entries
    out["order"] = order
    out["passed"] = (
        out["gamma_plus_one_first_diff"] is None
        and out["gamma_plus_tau_ok"]
        and (suite == "Z-periodicity" or out["epsilon"] == 1)
    )
    return out


# a draw that lands on one of these is retried with a fresh tau
_RETRIED = (PoleError, SpinCharError, ZemError, WittenDenominatorError,
            ZeroDivisionError)


def _run_trial(suite, seed, trial, dims):
    """One trial of ``suite`` on up to 60 fresh tau draws from its rng; the
    first result that raises none of the retried errors is returned.
    DegenerateDrawError is a verdict on the whole trial and propagates."""
    body, terms, _ = _SUITES[suite]
    rng = random.Random(f"{seed}|{suite}|{trial}")
    last_error = None
    for _attempt in range(60):
        tau = _draw_complex(rng, -0.45, 0.45, 0.5, 2.0)
        try:
            return body(rng, dims, EllipticParams(tau, terms))
        except DegenerateDrawError:
            raise
        except _RETRIED as exc:
            last_error = exc
    raise DegenerateDrawError(f"suite {suite}, trial {trial}: no valid draw in "
                              f"60 attempts (last: {last_error})")


# the fewest trials a forked worker takes on.  On a 2-vCPU Xeon a fork costs
# the parent 0.3-0.6 ms and an empty share arrives 1.7 ms after it, while a
# trial takes 0.036-0.143 ms by suite.  In sets of 25 paired `verify --suite
# all` runs, when a trial took 0.06-0.25 ms, shares of 25 trials (--trials
# 50) gained 1-4 ms of 175-195, within noise, and shares of 50 (--trials
# 100) 25-35 ms of 244-268; hosts with more CPUs were not measured
_MIN_SHARE = 50


def _cpu_count():
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _shares(trials):
    """``range(trials)`` cut into contiguous shares, one per CPU and none
    smaller than _MIN_SHARE."""
    n = max(1, min(_cpu_count(), trials // _MIN_SHARE))
    return [range(k * trials // n, (k + 1) * trials // n) for k in range(n)]


def _run_share(report, share, dims):
    for trial in share:
        residual, data = _run_trial(report.suite, report.seed, trial, dims)
        report.record(trial, residual, data)


def _fork_share(report, share, dims):
    """Fork a worker that records ``share`` into a report of its own; returns
    its pid and the read end of its pipe.

    The worker writes (max residual, failures) to the pipe and leaves only
    through ``os._exit``: with status 0 once the pipe holds it all, with 1
    if anything raised.  So it never flushes the parent's buffers or runs
    its exit handlers."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        part = IdentityReport(report.suite, len(share), report.seed, report.tol)
        _run_share(part, share, dims)
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps((part.max_residual, part.failures)))
        status = 0
    finally:
        os._exit(status)


def identity_check(suite, trials=100, dims=8, seed=0, tol=None):
    """Run one named identity suite; returns an IdentityReport.

    Each trial draws its own tau (Im in [0.5, 2]), torus data bounded by
    ``dims`` (the real dimension cap), and random signs; degenerate draws
    (poles, vanishing supertraces) are retried a bounded number of times.
    Trials derive their generators from (seed, suite, trial), so a fixed
    seed reproduces the report.  ``tol`` None is the suite's own tolerance.

    The trials run in contiguous shares of at least _MIN_SHARE, one per CPU
    in ``os.sched_getaffinity(0)``: a forked worker runs each share after
    the first, which runs here.  The share of a worker that did not deliver,
    because a trial raised or the worker died, runs here again, so a
    raising trial raises as it would in one process; so does a share that
    found no process to fork.  Every worker is reaped before this returns or
    raises, and killed first if it has not finished.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(_SUITES)}")
    if tol is None:
        tol = _SUITES[suite][2]
    _require_tol(tol)
    _require_trials(trials)
    _require_dims(dims)
    report = IdentityReport(suite=suite, trials=trials, seed=seed, tol=tol)
    shares = _shares(trials)
    workers = []  # (share, pid, pipe) of each worker not yet reaped
    try:
        for share in shares[1:]:
            try:
                workers.append((share, *_fork_share(report, share, dims)))
            except OSError:  # no process to spare: the shares left run here
                break
        unforked = shares[len(workers) + 1:]
        _run_share(report, shares[0], dims)
        while workers:
            share, pid, pipe = workers[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status == 0:
                report.merge(*marshal.loads(payload))
            else:
                _run_share(report, share, dims)
        for share in unforked:
            _run_share(report, share, dims)
    finally:
        for _, pid, pipe in workers:  # only when unwinding from an exception
            pipe.close()
            try:  # a worker reaped just before the exception landed is gone
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    exact = _exact_component(suite, seed)
    if exact is not None:
        report.exact_checks = exact
        if not exact["passed"]:
            report.passed = False
    return report
