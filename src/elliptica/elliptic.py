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

Exact backend, at an integer truncation order (``phi_exact``, the
translation checks): truncated PSeries over Q(s).  Each product is the
W_i character on the weights (1, -1) (t and 1/t are the eigenvalues
s^{2w}), built by the exact engine of the witten module from the finitely
many factors that matter below the truncation order (a factor with
p-exponent e > M is 1 + O(p^{M+1})).  The prefactor is written in the same
factors (``theta_term``: a monomial and one factor 1 +- s^2), so phi_i is a
single ``laurent_sum`` term on packed integer rows (one int per p-order,
its digits the integer coefficients of a Laurent polynomial in s), whose
coefficients are decoded and become rational functions once each, over
the prefactor's denominator, reduced by a gcd over Z[s].  The translation
checks never decode a row: they compare packed rows, as ints, over the
prefactor's denominator.

Numeric backend, with an ``EllipticParams`` (``phi_numeric``): the same
products evaluated in complex floats with an explicit cutoff; the tail of
the log of the product is bounded using log(1 +- x) <= 2|x| for
|x| <= 1/2, so the cutoff is chosen to push the bound below 1e-18
relative.  What depends on tau alone is computed once per
``EllipticParams``: q, q^{1/2}, p, the pole shifts and, per layout of
``witten.LAYOUT``, a table of the factor coefficients (+-q_num^n,
+-q_den^n), built by the recurrence q^n = q^{n-1} q and extended when a
larger cutoff is asked for.  ``phi_numeric`` and the Witten characters
read the table with the operands and the order of float operations of a
per-call loop (tests/numeric_reference.py), so their values do not depend
on which calls came first.

Lattice translations of z act on (s, p) as

    z+1   : s -> -s           z+1/2     : s -> i s
    z+tau : s -> p^2 s        z+tau/2   : s -> p s

and the five identities checked here are

    phi_1(z+1)          = -phi_1(z)
    phi_1(z+tau)        = -phi_1(z)
    phi_1(z+1/2)        = i phi_2(z)
    phi_1(z+tau/2)      = q^{1/4} phi_3(z)
    phi_1(z+1/2+tau/2)  = i q^{1/4} phi_4(z)

The last three are the table ``HALF_PERIODS``, which every parity-selected
quotient reads; ``PREFACTORS`` states the prefactor of each phi_i(a z) as a
spinor trace of one plane, and ``theta_term`` builds every exact product of
theta quotients from it.

Exact verification of the regrading rules needs care: a truncated series
does not determine its own image under s -> p^m s at every order, because
discarded tail coefficients can land low.  The checks therefore substitute
into the factors, not into the series.  Every factor is 1 + c p^e s^d with
c = +-1, and s -> p^m s sends it to 1 + c p^{e+md} s^d; a negative new
exponent e' is cleared by the flip identity

    1 + c x = c x (1 + c x^{-1}),    x = p^{e'} s^d,

which leaves a monomial c p^{e'} s^d and the factor 1 + c p^{-e'} s^{-d}.
A factor with e > M + m max|d| lands above p^M, so the substituted product
is exact at depth M once the factor list reaches that exponent: M + 2 for
the tau/2 checks, whose W_1 factors on (1, -1) have |d| = 2, and M + 4a
for the full period of phi_1(a z).  The full-period check is done on the
bare parts N (numerator product), D (denominator product) and the
prefactor, in the relations listed at ``fullperiod_parts_check``, so no
divided factor ever needs a flip and no substituted series is inverted.

The scalar substitutions s -> -s and s -> i s act on the factors of a
side, as s -> p^m s does: 1 + c p^e s^d becomes 1 + c i^{kd} p^e s^d,
and the monomial s^r picks up i^{kr} (``unit_substitute``).  Every d of a
theta quotient is even, so the factors stay integer and i^r factors out.
Both sides of every identity are then fractions N / D of packed integer
rows over a p-free denominator D, and an identity holds through p^M when
N_L D_R = N_R D_L there, up to the power of i that each side carries; the
rows are compared as ints, no coefficient is reduced and no gcd is taken.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

from .witten import (
    LAYOUT,
    fraction_difference,
    laurent_sum,
    regrade_factors,
    unit_difference,
    witten_factors,
)

NUMERIC_TAIL_TARGET = 1e-18
# the most product factors a cutoff may ask for: tau near the real axis would
# need billions (Im tau = 1e-9 about 1e10), where Im tau in [0.5, 2] needs
# about 70
MAX_PRODUCT_FACTORS = 10**5
# a numeric evaluation this close to a pole, or a free point this close to
# the lattice, counts as on it
POLE_GUARD = 1e-8


class PoleError(ValueError):
    """Numeric evaluation requested within the guard radius of a pole."""

    def __init__(self, message, distance):
        super().__init__(message)
        self.distance = distance


@dataclass(frozen=True)
class EllipticParams:
    """The numeric backend's parameters: tau and, optionally, a fixed
    number of product factors.

    Everything that depends on tau alone is computed once, here: q, |q|,
    log|q|, q^{1/2}, p, the pole shifts of phi_1..phi_4 and, per layout, a
    table of product factors extended as cutoffs grow (``factors``).  None
    of it takes part in equality or hashing.
    """

    tau: complex
    product_cutoff: int | None = None

    def __post_init__(self):
        if not cmath.isfinite(self.tau) or self.tau.imag <= 0:
            raise ValueError(
                f"tau must be finite with positive imaginary part, got "
                f"{self.tau}"
            )
        q = cmath.exp(2j * cmath.pi * self.tau)
        if not 0.0 < abs(q) < 1.0:
            raise ValueError(
                f"tau = {self.tau} gives |q| = {abs(q)}, outside "
                "(0, 1) in floating point"
            )
        half = self.tau / 2.0
        # the instance is frozen: set the derived values past __setattr__
        self.__dict__.update({
            "_q": q,
            "_q_abs": abs(q),
            "_log_q_abs": math.log(abs(q)),
            # q^{1/2} and q^{1/4} as e^{i pi tau}, e^{i pi tau / 2}: not
            # principal-branch powers, which could wrap
            "_q_half": cmath.exp(1j * cmath.pi * self.tau),
            "_p": cmath.exp(0.5j * cmath.pi * self.tau),
            "_pole_shift": {1: 0j, 2: 0.5 + 0j, 3: half, 4: 0.5 + half},
            # q^n for n = 0, 1, .. by the recurrence q^n = q^{n-1} q
            "_powers": [1.0 + 0j],
            "_tables": {i: [] for i in LAYOUT},
        })

    @property
    def q(self):
        return self._q

    @property
    def p(self):
        """The canonical fourth root q^{1/4} = e^{i pi tau / 2} (not a
        principal-branch power, which could wrap)."""
        return self._p

    def cutoff(self, t_abs=1.0):
        """Number of product factors retained for arguments with |t| up to
        t_abs (and down to 1/t_abs); OverflowError if it would exceed
        ``MAX_PRODUCT_FACTORS``."""
        if self.product_cutoff is not None:
            return self.product_cutoff
        scale = 2.0 * (t_abs + 1.0 / t_abs) / (1.0 - self._q_abs)
        if not math.isfinite(scale):
            # far from the real axis t = s^2 or 1/t overflows; the log of the
            # bound below would fail with a bare "math domain error"
            error = ValueError if math.isnan(t_abs) else OverflowError
            raise error(f"no product cutoff bounds the tail at |t| = {t_abs}")
        n = math.log(NUMERIC_TAIL_TARGET / scale) / self._log_q_abs
        if n > MAX_PRODUCT_FACTORS:
            raise OverflowError(
                f"tau = {self.tau} needs {n:.3g} product factors, more than "
                f"{MAX_PRODUCT_FACTORS}"
            )
        return max(8, int(math.ceil(n)))

    def factors(self, i, t_abs=1.0):
        """The first ``cutoff(t_abs)`` factors of the layout-i products, as
        pairs (a_n, b_n) = (nsign q_num^n, dsign q_den^n) in the notation of
        ``witten.LAYOUT``, where q_num^n and q_den^n are q^n or q^{n-1/2}:
        the numerator factors are 1 + a_n x and the denominator ones
        1 - b_n x.  The table is extended, never rebuilt, when a larger
        cutoff is asked for; |b_n| falls with n.  The list returned may be
        the table itself, to be read and not changed."""
        n = self.cutoff(t_abs)
        table = self._tables[i]
        if len(table) < n:
            nsign, noff, dsign, doff = LAYOUT[i]
            powers = self._powers
            while len(powers) <= n:
                powers.append(powers[-1] * self._q)
            for qn in powers[len(table) + 1:n + 1]:
                qn_half = qn / self._q_half
                table.append((nsign * (qn_half if noff else qn),
                              dsign * (qn_half if doff else qn)))
        return table if len(table) == n else table[:n]


# phi_1(z + (alpha + beta tau)/2) = i^unit p^p_pow phi_i(z) for alpha, beta in
# {0, 1}: (alpha, beta) -> (i, unit, p_pow).  Read at (alpha mod 2, beta mod
# 2), it names the quotient that a torsion point's parities select.
HALF_PERIODS = {
    (0, 0): (1, 0, 0),
    (1, 0): (2, 1, 0),
    (0, 1): (3, 0, 1),
    (1, 1): (4, 1, 1),
}

# The prefactor of phi_i(a z) as a spinor trace of one plane of weight a,
# Str = s^{-a} - s^a or Tr = s^{-a} + s^a, to a power with a sign: 1/Str,
# 1/Tr, Tr and -Str.  i -> (trace kind, power, sign).
PREFACTORS = {
    1: ("str", -1, 1),
    2: ("tr", -1, 1),
    3: ("tr", 1, 1),
    4: ("str", 1, -1),
}


def theta_term(i, weights, order, p_pow=0):
    """p^p_pow prod_a phi_i(a z) for nonzero integer weights a, as a
    ``laurent_sum`` term at depth ``order``: the W_i factors on the weights
    +-a times each prefactor of ``PREFACTORS``, with
    Str = sign(a) s^{-|a|} (1 - s^{2|a|}) and Tr = s^{-|a|} (1 + s^{2|a|}).
    At depth 0 it is the product of the prefactors alone."""
    kind, power, sign = PREFACTORS[i]
    c = -1 if kind == "str" else 1
    num, den = witten_factors(i, tuple(weights) + tuple(-a for a in weights), order)
    (num if power > 0 else den).extend((0, 2 * abs(a), c) for a in weights)
    sign **= len(weights)
    if c < 0 and sum(a < 0 for a in weights) % 2:
        sign = -sign
    return num, den, (p_pow, -power * sum(abs(a) for a in weights), sign)


@lru_cache(maxsize=64)
def phi_exact(i, order):
    """Truncated series of phi_i over Q(s) to the given p-order: the
    prefactor times the W_i character on the weights (1, -1)."""
    if i not in PREFACTORS:
        raise ValueError("phi index must be 1..4")
    return laurent_sum(order, [theta_term(i, (1,), order)])


def lattice_distance(w, tau):
    """Distance from w to the lattice Z + Z tau."""
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    dx = x - round(x)
    dy = y - round(y)
    return abs(dx + dy * tau)


def phi_numeric(i, params, z):
    """Evaluate phi_i at a complex point from the defining products, with
    the factor table of ``params``."""
    if i not in LAYOUT:
        raise ValueError("phi index must be 1..4")
    tau = params.tau
    z = complex(z)
    # lattice_distance(z - pole, tau), inlined: this runs on every call
    w = z - params._pole_shift[i]
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    dist = abs(x - round(x) + (y - round(y)) * tau)
    if dist < POLE_GUARD:
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
    else:
        pref = s - 1.0 / s
    t_abs = abs(t)
    out = pref
    ti = 1.0 / t
    for a, b in params.factors(i, max(t_abs, 1.0 / t_abs)):
        out *= (1.0 + a * t) * (1.0 + a * ti)
        out /= (1.0 - b * t) * (1.0 - b * ti)
    return out


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
        return asdict(self)


TRANSLATIONS = ("z+1", "z+tau", "z+1/2", "z+tau/2", "z+1/2+tau/2")


def _regraded_term(m, order, numerator, denominator=(), *, post):
    """prod(numerator) / prod(denominator) under s -> p^m s, times the
    monomial post = (p-power, s-power, sign), as a term of ``laurent_sum``
    or ``fraction_difference`` at depth ``order``.

    Both factor lists go through ``regrade_factors``, so they must reach
    p^{order + m max|d|}; the flip monomials join ``post``, whose p-power
    must come out >= 0, since the rows hold nothing below p^0.
    """
    (p_pow, s_pow, sign), numerator = regrade_factors(numerator, m, order)
    _, denominator = regrade_factors(denominator, m, order, divided=True)
    return numerator, denominator, (p_pow + post[0], s_pow + post[1], sign * post[2])


def _phi1_halfshifted(order):
    """phi_1 under s -> p s as a term exact to ``order``; shared by the two
    checks whose translations contain tau/2, since scalar substitutions
    commute with the regrading.

    phi_1 is its prefactor s / (1 - s^2) times the W_1 factors on (1, -1):
    each factor goes to its image, the monomial s to p s, and every |d| is
    2, so W_1 factors through p^{order + 2} suffice.
    """
    num, den, (p_pow, s_pow, sign) = theta_term(1, (1,), order + 2)
    return _regraded_term(1, order, num, den, post=(p_pow + s_pow, s_pow, sign))


def fullperiod_parts_check(a, order):
    """First p-exponent at which phi_1(a z) fails its full-period relations,
    or None.  With N_a, D_a the numerator and denominator products composed
    with s -> s^a (a >= 1) and the prefactor pref_a = s^a / (1 - s^{2a}):

        (i)   p^{2a^2} s^{2a^2} N_a(p^2 s)           == N_a(s)
        (ii)  (-1)^a p^{2a(a-1)} s^{2a^2} D_a(p^2 s) == (1-s^{2a}) D_a(s)
                                                        / (1 - p^{4a} s^{2a})
        (iii) pref_a(p^2 s)                          == p^{2a} s^a
                                                        / (1 - p^{4a} s^{2a})

    They give phi_1(a(z+tau)) = pref_a(p^2 s) N_a(p^2 s) / D_a(p^2 s)
    = (-1)^a phi_1(a z) after clearing the common (1 - p^{4a} s^{2a}).
    Each left side is a product of regraded factors (m = 2, |d| = 2a, so
    factors through p^{order + 4a} suffice); no series is regraded.
    """
    num, den = witten_factors(1, (a, -a), order + 4 * a)
    relations = (  # (left factors, left post, right term) of (i), (ii), (iii)
        (num, (), (2 * a * a, 2 * a * a, 1), (num, (), (0, 0, 1))),
        (den, (), (2 * a * (a - 1), 2 * a * a, (-1) ** a),
         (den + [(0, 2 * a, -1)], [(4 * a, 2 * a, -1)], (0, 0, 1))),
        ((), [(0, 2 * a, -1)], (2 * a, a, 1),
         ((), [(4 * a, 2 * a, -1)], (2 * a, a, 1))),
    )
    for numerator, denominator, post, right in relations:
        left = _regraded_term(2, order, numerator, denominator, post=post)
        first = fraction_difference(order, [left], [right])
        if first is not None:
            return first
    return None


# The four checks of phi_1, or of its image under s -> p s, under
# s -> i^k s (k = 0 for none) against i^unit p^p_pow phi_i, the half periods
# from ``HALF_PERIODS``: which -> (image under s -> p s?, k, (i, unit, p_pow),
# detail).
_UNIT_CHECKS = {
    "z+1": (False, 2, (1, 2, 0),
            "phi1(z+1) vs -phi1(z), direct substitution s -> -s"),
    "z+1/2": (False, 1, HALF_PERIODS[1, 0],
              "phi1(z+1/2) vs i*phi2(z), direct substitution s -> i s"),
    "z+tau/2": (True, 0, HALF_PERIODS[0, 1],
                "phi1(z+tau/2) vs p*phi3(z), s -> p s on the factors"),
    "z+1/2+tau/2": (True, 1, HALF_PERIODS[1, 1],
                    "phi1(z+1/2+tau/2) vs i*p*phi4(z)"),
}


def phi_translate_check(which, order):
    """Exact check of one translation identity through p^order; returns a
    TranslationReport with the first failing p-exponent on failure."""
    if which == "z+tau":
        first = fullperiod_parts_check(1, order)
        detail = "phi1(z+tau) vs -phi1(z), cross-multiplied product form"
    elif which in _UNIT_CHECKS:
        halfshifted, k, (i, unit, p_pow), detail = _UNIT_CHECKS[which]
        left = _phi1_halfshifted(order) if halfshifted else theta_term(1, (1,), order)
        right = theta_term(i, (1,), order, p_pow)
        first = unit_difference(order, left, k, right, unit)
    else:
        raise ValueError(f"unknown translation {which!r}")
    return TranslationReport(
        which=which,
        truncation_order=order,
        passed=first is None,
        first_failing_exponent=first,
        detail=detail,
    )
