"""The four theta quotients and their half/full-period translation identities.

Variables and grading: s = e^{i pi z}, t = s^2, q = e^{2 i pi tau},
p = q^{1/4}.  The four quotients are infinite products

    phi_1(z) = 1/(s^{-1}-s) * prod_n (1+p^{4n-2}t)(1+p^{4n-2}/t)
                                   / ((1-p^{4n}t)(1-p^{4n}/t))
    phi_2(z) = 1/(s+s^{-1}) * prod_n (1-p^{4n-2}t)(1-p^{4n-2}/t)
                                   / ((1+p^{4n}t)(1+p^{4n}/t))
    phi_3(z) = (s+s^{-1})   * prod_n (1+p^{4n}t)(1+p^{4n}/t)
                                   / ((1-p^{4n-2}t)(1-p^{4n-2}/t))
    phi_4(z) = (s-s^{-1})   * prod_n (1-p^{4n}t)(1-p^{4n}/t)
                                   / ((1+p^{4n-2}t)(1+p^{4n-2}/t))

Exact backend: truncated PSeries over Q(i)(s).  Each product is the W_i
character on the weights (1, -1) (t and 1/t are the eigenvalues s^{2w}),
built by the exact engine of the witten module from the finitely many
factors that matter below the truncation order (a factor with p-exponent
e > M is 1 + O(p^{M+1})).  The engine works on integer Laurent rows, one
dict {s-exponent: int} per p-order, since every factor constant is +-1;
phi_i is that series times its prefactor, coefficient by coefficient, and
the rows become rational functions only there, once per coefficient.

Numeric backend: the same products evaluated in complex floats with an
explicit cutoff; the tail of the log of the product is bounded using
log(1 +- x) <= 2|x| for |x| <= 1/2, so the cutoff is chosen to push the
bound below 1e-18 relative.

Lattice translations of z act on (s, p) as

    z+1   : s -> -s           z+1/2     : s -> i s
    z+tau : s -> p^2 s        z+tau/2   : s -> p s

and the five identities checked here are

    phi_1(z+1)          = -phi_1(z)
    phi_1(z+tau)        = -phi_1(z)
    phi_1(z+1/2)        = i phi_2(z)
    phi_1(z+tau/2)      = q^{1/4} phi_3(z)
    phi_1(z+1/2+tau/2)  = i q^{1/4} phi_4(z)

Exact verification of the regrading rules needs care: a truncated series
does not determine its own image under s -> p^m s at every order, because
discarded tail coefficients can land low.  The checks work on the integer
rows of the products, where s -> p^m s is a monomial move
p^k s^d -> p^{k+md} s^d and a closed-form prefactor is applied once as its
exact image, so no series is inverted and no gcd is taken.  Two valuation
bounds make the checks sound:

* the W_1 rows on (1, -1) (equivalently, the full phi_1 series): the
  coefficient of p^k has no power of s below s^{-(k/2 + 1)}, so under
  s -> p s a row beyond order 2M + 4 only lands above M.  The tau/2
  checks therefore regrade rows computed with doubled depth and multiply
  by the prefactor's image p s / (1 - p^2 s^2).
* bare product parts N (numerator product) and D (denominator product):
  reaching s^{-2j} costs at least 2j^2 in p-order, so the span is
  O(sqrt(k)) and a square-root headroom suffices.  The full-period check
  is done in cross-multiplied form on these parts:

      p^2 s^2 (pref*N)(p^2 s) * D  ==  p^2 * (pref*N) * (-s^2 D(p^2 s))

  which is equivalent to phi_1(z+tau) = -phi_1(z) after clearing
  denominators, and never needs to invert a substituted series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .ring import GaussianRational, RationalFunctionQi
from .qseries import (
    PSeries,
    Substitution,
    ps_substitute_t,
    regrade_rows,
    series_from_rows,
)
from .witten import (
    LAYOUT,
    divide_factor,
    laurent_product,
    laurent_rows,
    multiply_factor,
    witten_char,
    witten_factors,
)

NUMERIC_TAIL_TARGET = 1e-18


class PoleError(ValueError):
    """Numeric evaluation requested within the guard radius of a pole."""

    def __init__(self, message, distance):
        super().__init__(message)
        self.distance = distance


@dataclass(frozen=True)
class EllipticParams:
    """Backend parameters: tau/product_cutoff drive the numeric backend,
    truncation_order the exact one."""

    tau: complex | None = None
    truncation_order: int | None = None
    product_cutoff: int | None = None
    pole_guard: float = 1e-8

    def __post_init__(self):
        if self.tau is not None and self.tau.imag <= 0:
            raise ValueError("tau must have positive imaginary part")
        if self.truncation_order is not None and self.truncation_order < 0:
            raise ValueError("truncation order must be >= 0")

    @property
    def q(self):
        if self.tau is None:
            raise ValueError("numeric parameters need tau")
        return cmath.exp(2j * cmath.pi * self.tau)

    @property
    def p(self):
        """The canonical fourth root q^{1/4} = e^{i pi tau / 2} (not a
        principal-branch power, which could wrap)."""
        if self.tau is None:
            raise ValueError("numeric parameters need tau")
        return cmath.exp(0.5j * cmath.pi * self.tau)

    def require_order(self):
        if self.truncation_order is None:
            raise ValueError("exact backend needs truncation_order")
        return self.truncation_order

    def cutoff(self, t_abs=1.0):
        """Number of product factors retained for arguments with |t| up to
        t_abs (and down to 1/t_abs)."""
        if self.product_cutoff is not None:
            return self.product_cutoff
        qa = abs(self.q)
        scale = 2.0 * (t_abs + 1.0 / t_abs) / (1.0 - qa)
        n = math.log(NUMERIC_TAIL_TARGET / scale) / math.log(qa)
        return max(8, int(math.ceil(n)))


_GR_I = GaussianRational.i()


def phi_prefactor(i):
    s = RationalFunctionQi.var()
    one = RationalFunctionQi.one()
    if i == 1:
        return one / (RationalFunctionQi.monomial(-1) - s)
    if i == 2:
        return one / (s + RationalFunctionQi.monomial(-1))
    if i == 3:
        return s + RationalFunctionQi.monomial(-1)
    if i == 4:
        return s - RationalFunctionQi.monomial(-1)
    raise ValueError("phi index must be 1..4")


@lru_cache(maxsize=64)
def _numerator_series(i, order):
    return laurent_product(order, witten_factors(i, (1, -1), order)[0])


@lru_cache(maxsize=64)
def _denominator_series(i, order):
    """The denominator product itself (not inverted)."""
    return laurent_product(order, witten_factors(i, (1, -1), order)[1])


@lru_cache(maxsize=64)
def phi_exact(i, order):
    """Truncated series of phi_i over Q(i)(s) to the given p-order: the
    prefactor times the W_i character on the weights (1, -1)."""
    params = EllipticParams(truncation_order=order)
    return witten_char(i, (1, -1), params, backend="exact").scale(phi_prefactor(i))


@lru_cache(maxsize=64)
def _geometric_p4s2(order):
    """The series of 1/(1 - p^4 s^2): sum_j p^{4j} s^{2j}."""
    return geometric_series(4, 2, order)


def _pole_shift(i, tau):
    if i == 1:
        return 0j
    if i == 2:
        return 0.5 + 0j
    if i == 3:
        return tau / 2.0
    return 0.5 + tau / 2.0


def lattice_distance(w, tau):
    """Distance from w to the lattice Z + Z tau."""
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    dx = x - round(x)
    dy = y - round(y)
    return abs(dx + dy * tau)


def phi_numeric(i, params, z):
    """Evaluate phi_i at a complex point from the defining products."""
    tau = params.tau
    if tau is None:
        raise ValueError("numeric backend needs tau in params")
    z = complex(z)
    dist = lattice_distance(z - _pole_shift(i, tau), tau)
    if dist < params.pole_guard:
        raise PoleError(
            f"phi_{i} evaluated within {dist:.2e} of a pole", dist
        )
    s = cmath.exp(1j * cmath.pi * z)
    t = s * s
    if i == 1:
        pref = 1.0 / (1.0 / s - s)
    elif i == 2:
        pref = 1.0 / (s + 1.0 / s)
    elif i == 3:
        pref = s + 1.0 / s
    elif i == 4:
        pref = s - 1.0 / s
    else:
        raise ValueError("phi index must be 1..4")
    q = params.q
    qh = cmath.exp(1j * cmath.pi * tau)  # q^{1/2}, branch-free
    nsign, noff, dsign, doff = LAYOUT[i]
    nmax = params.cutoff(max(abs(t), 1.0 / abs(t)))
    out = pref
    qn = 1.0 + 0j
    ti = 1.0 / t
    for n in range(1, nmax + 1):
        qn *= q
        qnum = qn / qh if noff else qn
        qden = qn / qh if doff else qn
        out *= (1.0 + nsign * qnum * t) * (1.0 + nsign * qnum * ti)
        den = (1.0 - dsign * qden * t) * (1.0 - dsign * qden * ti)
        out /= den
    return out


def phi(i, backend, params, z=None):
    """phi_i in the requested backend: a PSeries over Q(i)(s) ('exact') or a
    complex value at z ('numeric')."""
    if backend == "exact":
        return phi_exact(i, params.require_order())
    if backend == "numeric":
        if z is None:
            raise ValueError("numeric backend needs the argument z")
        return phi_numeric(i, params, z)
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# translation identities


@dataclass
class TranslationReport:
    which: str
    truncation_order: int
    passed: bool
    first_failing_exponent: int | None = None
    detail: str = ""

    def to_json(self):
        return {
            "which": self.which,
            "truncation_order": self.truncation_order,
            "passed": self.passed,
            "first_failing_exponent": self.first_failing_exponent,
            "detail": self.detail,
        }


def halfperiod_headroom(order):
    """Input depth so that s -> p s on full phi_1 is exact to ``order``."""
    return 2 * order + 6


def composed_fullperiod_headroom(a, order):
    """Input depth for the cross-multiplied s -> p^2 s check on the product
    parts composed with s -> s^a; a discarded coefficient beyond this depth
    can only land above ``order`` (square-root span bound, scaled by a and
    fixed-point iterated with slack)."""
    h = 8
    for _ in range(4):
        h = int(math.ceil(2.0 * a * math.sqrt(2.0 * (order + h)))) + 4
    return order + h


def numerator_series(i, order):
    """The numerator product of phi_i as a PSeries over Q(i)(s); the
    full-period checks read the same product as integer rows."""
    return _numerator_series(i, order)


def denominator_series(i, order):
    return _denominator_series(i, order)


def geometric_series(e, d, order):
    """The series of 1/(1 - p^e s^d) truncated at ``order``."""
    zero = RationalFunctionQi.zero()
    coeffs = [
        RationalFunctionQi.monomial((k // e) * d) if k % e == 0 else zero
        for k in range(order + 1)
    ]
    return PSeries(coeffs, order)


TRANSLATIONS = ("z+1", "z+tau", "z+1/2", "z+tau/2", "z+1/2+tau/2")


@lru_cache(maxsize=8)
def _phi1_halfshifted(order):
    """phi_1 under s -> p s, exact to ``order``; shared by the two checks
    whose translations contain tau/2, since scalar substitutions commute
    with the regrading.

    The W_1 rows on (1, -1) are regraded from depth
    ``halfperiod_headroom(order)`` and multiplied by the prefactor's exact
    image p s / (1 - p^2 s^2), that is out_k = s W'_{k-1} + s^2 out_{k-2}.
    """
    deep = halfperiod_headroom(order)
    char = laurent_rows(deep, *witten_factors(1, (1, -1), deep))
    rows = regrade_rows(char, 1, order, post_p=1, post_s=1)
    divide_factor(rows, 2, 2, -1)
    return series_from_rows(rows)


def _first_row_difference(a, b):
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def fullperiod_parts_check(a, order):
    """First p-exponent at which the bare parts of phi_1(a z) fail their
    full-period relations, or None.  With N_a, D_a the numerator and
    denominator products composed with s -> s^a (a >= 1):

        (i)   p^{2a^2} s^{2a^2} N_a(p^2 s)           == N_a(s)
        (ii)  (-1)^a p^{2a(a-1)} s^{2a^2} D_a(p^2 s) == (1-s^{2a}) D_a(s)
                                                        / (1 - p^{4a} s^{2a})

    Both sides are integer Laurent rows; the composition maps s^d to
    s^{a d} and the regrading is a monomial move, so no rational function
    is formed.
    """
    deep = composed_fullperiod_headroom(a, order)
    num, den = witten_factors(1, (1, -1), deep)
    n_rows = [{a * d: c for d, c in row.items()} for row in laurent_rows(deep, num)]
    d_rows = [{a * d: c for d, c in row.items()} for row in laurent_rows(deep, den)]
    sub_n = regrade_rows(n_rows, 2, order, post_p=2 * a * a, post_s=2 * a * a)
    first = _first_row_difference(sub_n, n_rows)
    if first is not None:
        return first
    sub_d = regrade_rows(
        d_rows, 2, order, post_p=2 * a * (a - 1), post_s=2 * a * a,
        sign=-1 if a % 2 else 1,
    )
    rhs_d = d_rows[: order + 1]
    divide_factor(rhs_d, 4 * a, 2 * a, -1)
    multiply_factor(rhs_d, 0, 2 * a, -1)
    return _first_row_difference(sub_d, rhs_d)


def phi_translate_check(which, params):
    """Exact check of one translation identity; returns a TranslationReport
    with the first failing p-exponent on failure."""
    order = params.require_order()
    if which == "z+1":
        lhs = ps_substitute_t(phi_exact(1, order), Substitution.neg_s())
        rhs = -phi_exact(1, order)
        detail = "phi1(z+1) vs -phi1(z), direct substitution s -> -s"
    elif which == "z+1/2":
        lhs = ps_substitute_t(phi_exact(1, order), Substitution.i_s())
        rhs = phi_exact(2, order).scale(RationalFunctionQi.constant(_GR_I))
        detail = "phi1(z+1/2) vs i*phi2(z), direct substitution s -> i s"
    elif which == "z+tau/2":
        lhs = _phi1_halfshifted(order)
        rhs = phi_exact(3, order).shift_p(1)
        detail = "phi1(z+tau/2) vs p*phi3(z), s -> p s with doubled depth"
    elif which == "z+1/2+tau/2":
        lhs = ps_substitute_t(_phi1_halfshifted(order), Substitution.i_s())
        rhs = (
            phi_exact(4, order)
            .shift_p(1)
            .scale(RationalFunctionQi.constant(_GR_I))
        )
        detail = "phi1(z+1/2+tau/2) vs i*p*phi4(z)"
    elif which == "z+tau":
        # Verified in product form: the relations (i) and (ii) of
        # fullperiod_parts_check at a = 1, and
        #   (iii)  pref(p^2 s) == p^2 s / (1-p^4 s^2)
        # for pref = s/(1-s^2); then phi1(z+tau) = pref(p^2 s) N(p^2 s) /
        # D(p^2 s) = -s N / ((1-s^2) D) = -phi1(z) by clearing (1-p^4 s^2).
        first = fullperiod_parts_check(1, order)
        if first is None:
            pref_series = PSeries(
                (phi_prefactor(1),) + (RationalFunctionQi.zero(),) * order, order
            )
            sub_pref = ps_substitute_t(pref_series, Substitution.p_shift(2))
            rhs_pref = _geometric_p4s2(order).map_coefficients(
                lambda c: c * RationalFunctionQi.var() if c else c
            ).shift_p(2)
            first = sub_pref.first_difference(rhs_pref)
        return TranslationReport(
            which=which,
            truncation_order=order,
            passed=first is None,
            first_failing_exponent=first,
            detail="phi1(z+tau) vs -phi1(z), cross-multiplied product form",
        )
    else:
        raise ValueError(f"unknown translation {which!r}")

    diff = lhs.first_difference(rhs)
    return TranslationReport(
        which=which,
        truncation_order=order,
        passed=diff is None,
        first_failing_exponent=diff,
        detail=detail,
    )


def phi_translate_check_all(params):
    return [phi_translate_check(w, params) for w in TRANSLATIONS]
