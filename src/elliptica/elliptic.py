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
checks never decode a row: they compare packed rows, as ints.

Numeric backend, with an ``EllipticParams``: one kernel,
``EllipticParams.theta_product``, evaluates a whole product of theta
quotients, or of W_i characters, in one pass: for each point the pole
guard (``_lattice_offset``, the one statement of the distance to a pole,
inlined in the loop), the reduction by m tau into the strip
|Im z| <= Im tau / 2, and two Jacobi theta series by the triple product,
cut where the tail bound falls below 1e-18 (3 to 6 terms for Im tau in
[0.5, 2]); where |q| > 1/2 they are summed at a modular image of tau.  What depends on tau alone is
computed once per ``EllipticParams``.  ``phi_numeric`` is the kernel on
one point, ``witten.witten_char`` on the planes, and the numeric Z-products
and fixed-point sums hand it their whole products.  The truncated products
are the test reference (tests/numeric_reference.py).

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

Exact verification of the translations needs care: a truncated series
does not determine its own image under s -> p^m s at every order, because
discarded tail coefficients can land low.  The checks therefore substitute
into a term's factors, not into its series (``witten.regrade``).  Every
factor is 1 + c p^e s^d with c = +-1, and s -> p^m s sends it to
1 + c p^{e+md} s^d; a negative new exponent e' is cleared by the flip

    1 + c x = c x (1 + c x^{-1}),    x = p^{e'} s^d,

which leaves the factor 1 + c p^{-e'} s^{-d} where it was and the monomial
c x in the numerator, or c x^{-1} for a divided factor; a divided factor
landing at p^0 joins the p-free denominator.  A factor with
e > M + m max|d| lands above p^M, so the substituted term is exact at
depth M once its factors reach that exponent: M + 2m for phi_1, whose
|d| is 2, and M + 4 max|a| for the full period of a Z-series.

The scalar substitutions s -> -s and s -> i s act on the factors too:
1 + c p^e s^d becomes 1 + c i^{kd} p^e s^d, and the monomial s^r picks up
i^{kr} (``unit_substitute``).  Every d of a theta quotient is even, so the
factors stay integer and i^r factors out.  Every check takes one path,
``translation_difference``: prod_a phi_1(a z) under s -> p^m s and then
s -> i^k s against i^unit p^p_pow prod_a phi_i(a z), on the weight 1 for
the five rows of ``_TRANSLATION_CHECKS`` and on J for Z's periodicity.
N_L / D_L = i^u N_R / D_R holds through p^M where N_L D_R = i^u N_R D_L
does, each side's denominator factors crossed to the other side as
numerator factors (``witten.unit_difference``): rows are compared as
ints, no coefficient is reduced and no gcd is taken.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

from .witten import (
    POLE_GUARD,
    WittenDenominatorError,
    laurent_sum,
    regrade,
    unit_difference,
    witten_factors,
)

NUMERIC_TAIL_TARGET = 1e-18
# the largest |q| whose theta series are summed at tau itself, not at a
# modular image of tau
DIRECT_Q = 0.5
# the largest growth of rounding errors that keeps half of a float's digits
HALF_DIGITS = 1e-8 / sys.float_info.epsilon
# the number of periods Im z / Im tau from which a float no longer counts them
MAX_PERIODS = 2.0 ** sys.float_info.mant_dig
# i pi, -i pi and 2 i pi, and the factor that takes log e to r, e = e^{2 pi i r}
_I_PI = 1j * cmath.pi
_MINUS_I_PI = -1j * math.pi
_TWO_I_PI = 2j * cmath.pi
_LOG_TO_R = -0.5j / math.pi


class PoleError(ValueError):
    """Numeric evaluation requested within the guard radius of a pole."""

    def __init__(self, message, distance):
        super().__init__(message)
        self.distance = distance


class FarPointError(ValueError, OverflowError):
    """A point too far from the real axis for a float to remove its periods:
    Im z / Im tau counts none, or z - m tau keeps fewer than half of the
    digits of z."""


def _lattice_offset(w, tau):
    """(distance from w to the nearest lattice point n + m tau, y, m):
    y = Im w / Im tau and m = round(y).  Every pole guard of the numeric
    backend reads it, at w = z less the shift of its poles; the loop of
    ``theta_product`` does the same arithmetic inline."""
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    dx = x - round(x)
    m = round(y)
    return abs(dx + (y - m) * tau), y, m


@dataclass(frozen=True, init=False)
class EllipticParams:
    """tau and, optionally, the number of terms of its theta series (0: the
    q -> 0 limit, where every W_i is 1), which ``terms`` holds either way;
    what depends on tau alone is computed here, once, outside equality and
    hashing: among it ``p``, q^{1/4} = e^{i pi tau / 2}, not a principal
    root, which could wrap.  Where |q| > ``DIRECT_Q`` the series are summed
    at a modular image tau' of tau instead (``theta_product``); ValueError
    where the q of tau' rounds to 0 (near Re tau = 0, Im tau below about
    0.0085)."""

    tau: complex
    series_terms: int | None = None

    def __init__(self, tau, series_terms=None):
        n = series_terms
        if not cmath.isfinite(tau) or tau.imag <= 0:
            raise ValueError(
                f"tau must be finite with positive imaginary part, got {tau}"
            )
        # q^{1/2} and q^{1/4} as e^{i pi tau}, e^{i pi tau / 2}: not
        # principal-branch powers, which could wrap
        qh = cmath.exp(_I_PI * tau)
        q = qh * qh
        qa = abs(q)
        if not 0.0 < qa < 1.0:
            raise ValueError(
                f"tau = {tau} gives |q| = {qa}, outside (0, 1) in floating point"
            )
        if n is not None and n < 0:
            raise ValueError(f"series_terms must be >= 0, got {n}")
        p = cmath.exp(0.5j * cmath.pi * tau)
        if n != 0 and qa > DIRECT_Q:
            # th_j(z|tau) = C(z) u_j th_j'(scale z|tau') with one C(z) for all j:
            # tau -> tau - k multiplies th_1, th_2 by e^{-i pi k/4} and swaps th_3
            # and th_4 for k odd, tau -> -1/tau multiplies th_1 by -i and swaps
            # th_2 and th_4.  Kept: the image j of th_3, u_3 / u_1 and the scale.
            j, unit, scale, image = 3, 1.0 + 0j, 1.0 + 0j, tau
            while math.exp(-2.0 * math.pi * image.imag) > DIRECT_Q:
                k = round(image.real)
                if j != 2:
                    j = 7 - j if k % 2 else j
                    unit *= cmath.exp(-0.25j * cmath.pi * (k % 8))
                image = -1.0 / (image - k)
                j, unit, scale = 6 - j, unit * 1j, scale * image
            try:
                dual = EllipticParams(image, n)
            except ValueError:
                raise ValueError(f"tau = {tau} is too near the real axis: its "
                                 f"modular image {image} gives q = 0") from None
            # u_3 / u_1 times q^{1/8} / q'^{1/8}, from th_1 = 2 q^{1/8} sin(pi z) B
            unit *= cmath.exp(0.25j * cmath.pi * (tau - image))
            # the sums th_j and B at the image: th_3 = A(x), th_4 = A(-x) and
            # th_2 = 2 q'^{1/8} cos(pi z) B(-x); at -x the k-th term changes sign
            _, b0, pairs = dual._series
            if j == 4:
                pairs = [(-a if k % 2 else a, b) for k, (a, b) in enumerate(pairs, 1)]
            elif j == 2:
                pairs = [(-b if k % 2 else b, b) for k, (_, b) in enumerate(pairs, 1)]
            series = (b0 if j == 2 else 1.0 + 0j, b0, pairs)
            two_q8 = 2.0 * cmath.exp(0.25j * cmath.pi * image)
            # the instance is frozen: set every value past __setattr__
            self.__dict__.update(tau=tau, series_terms=series_terms,
                                 terms=dual.terms, p=p, _series=series,
                                 _modular=(image, j, unit, scale, two_q8))
            return
        if n is None:  # the least n whose tail bound for |t| in
            # [|q|^{1/2}, |q|^{-1/2}], (2n + 5) |q|^{n(n+1)/2} / (1 - |q|), is met
            n, target = 1, NUMERIC_TAIL_TARGET * (1.0 - qa)
            while (2 * n + 5) * qa ** (n * (n + 1) / 2) > target:
                n += 1
        # (q^{k^2/2}, (-1)^k q^{k(k+1)/2}) for k = 1..n: the first is the last
        # times q^{k-1} q^{1/2}, the second minus the last times q^k
        powers = []
        a = c = qk = 1.0 + 0j
        for _ in range(n):
            a *= qk * qh
            qk *= q
            c *= -qk
            powers.append((a, c))
        # (q^{k^2/2}, betas[k]) with betas[k] the sum of the second entries from
        # k to n, summed from n down; betas[0] adds the 1 of k = 0
        pairs, beta = [], 0j
        for a, c in reversed(powers):
            beta += c
            pairs.append((a, beta))
        pairs.reverse()
        self.__dict__.update(tau=tau, series_terms=series_terms, terms=n, p=p,
                             _series=(1.0 + 0j, beta + 1.0, pairs), _modular=None)

    def theta_product(self, i, points, planes=False):
        """prod_z phi_i(z) over the complex ``points`` or, with ``planes``,
        prod_e W_i(e) over the eigenvalues e of planes (e, 1/e), in one pass.

        phi_i(z) = (-1)^m pref_i(s) P_i(s^2), s = e^{i pi z - i pi m tau}, with
        m tau the lattice part that takes z into |Im| <= Im tau / 2 (an
        eigenvalue e = e^{2 pi i r} is reduced by the same law, times the ratio
        of prefactors it gives), and P_i(t), W_i of the plane (t, 1/t), is
        A(t)/B(t), A(-t)/B(-t), B(-t)/A(-t), B(t)/A(t) for i = 1..4:
        A(t) = sum_k q^{k^2/2} t^k and B(t) = sum_k betas[k] (t^k + t^-k), the
        triple products prod (1 - q^n)(1 + q^{n-1/2} t^{+-1}) and
        prod (1 - q^n)(1 - q^n t^{+-1}).  Where |q| > ``DIRECT_Q``,
        A(t)/B(t) = 2 q^{1/8} sin(pi r) th_3(r)/th_1(r), t = e^{2 pi i r}, is a
        unit times th_j/th_1 at the modular image, summed by the same loop.
        With 0 series terms phi_i is pref_i at z itself and W_i is 1.

        A point that is not finite, or an eigenvalue 0, raises ValueError (NaN)
        or OverflowError naming it, and so does a point z ``MAX_PERIODS`` or
        more periods Im z / Im tau off the real axis (FarPointError).  Within
        ``POLE_GUARD`` of a pole, at n + m tau plus 0, 1/2, tau/2, 1/2 + tau/2
        for i = 1..4, phi_i raises PoleError, and W_i, which lacks its
        prefactor's poles (m = 0 for i = 1, 2), WittenDenominatorError naming
        the product factor 1 -+ q^{n or n-1/2} e^{+-1} that vanishes there.
        phi_i raises FarPointError where the rounding of z - m tau, eps |z|,
        would cost half of the digits: more than 1e-8 of the distance to the
        pole, or of 1."""
        if i not in PREFACTORS:
            raise ValueError(("Witten series" if planes else "phi") + " index must be 1..4")
        tau, terms = self.tau, self.terms
        shift = 0j if i == 1 else 0.5 + 0j if i == 2 else tau / 2.0 if i == 3 else 0.5 + tau / 2.0
        c = 1 if i in (2, 3) else -1  # the prefactor's 1 + c s^2
        n0, d0, pairs = self._series
        modular = self._modular
        # what the loop reads of tau and of the shift of the poles, and the
        # functions it calls, as locals
        tau_re, tau_im, shift_re, shift_im = tau.real, tau.imag, shift.real, shift.imag
        far = MAX_PERIODS * tau_im
        exp, isfinite = cmath.exp, cmath.isfinite
        out = 1.0 + 0j
        for z in points:
            if not isfinite(z) or planes and not z:
                raise (ValueError if cmath.isnan(z) else OverflowError)(
                    f"no theta series reaches the eigenvalue {z} at |t| = {abs(z)}"
                    if planes else f"phi_{i} has no value at the point z = {z}")
            if planes:
                if not terms:
                    continue
                e, z = z, cmath.log(z) * _LOG_TO_R
            elif not abs(z.imag) < far:
                raise FarPointError(f"z = {z} is too far from the real axis: Im z / Im tau "
                                    f"= {z.imag / tau_im:.3g} is no exact count of periods")
            # _lattice_offset(z - shift, tau), inlined: the distance to the
            # nearest pole, and y is Im z / Im tau, less 1/2 for the poles at
            # tau/2 of phi_3, phi_4
            y = (z.imag - shift_im) / tau_im
            x = z.real - shift_re - y * tau_re
            my = round(y)
            dist = abs(x - round(x) + (y - my) * tau)
            m = my if i < 3 else round(y + 0.5)
            if planes:
                if dist < POLE_GUARD and (my or i > 2):
                    n = abs(my) if i < 3 else max(my + 1, -my)
                    raise WittenDenominatorError(f"W_{i} evaluated within {dist:.2e} of a "
                                                 f"pole: the factor n = {n} vanishes", n)
                if m:
                    f = exp(_MINUS_I_PI * m * tau)  # q^{-m/2}
                    reduced = e * f * f
                    num, den = f * (1 + c * e), 1 + c * reduced
                    ratio = num / den if i < 3 else den / num
                    out *= -ratio if m & 1 else ratio
                    e = reduced
                t = e
            else:
                if dist < POLE_GUARD:
                    raise PoleError(f"phi_{i} evaluated within {dist:.2e} of a pole", dist)
                if terms and m:
                    if abs(z) > HALF_DIGITS * min(1.0, dist):
                        raise FarPointError(f"z = {z} lies {m} periods off the real axis: "
                                         f"z - {m} tau keeps fewer than half of its digits")
                    z -= m * tau
                s = exp(_I_PI * z)
                # 1/(1/s - s), 1/(s + 1/s), s + 1/s and s - 1/s
                d = s + 1.0 / s if c > 0 else 1.0 / s - s
                pref = 1.0 / d if i < 3 else d if i == 3 else -d
                if not terms:
                    out *= pref
                    continue
                t = s * s
            t = -t if c > 0 else t
            if modular is not None:
                # z = scale r less k tau', where th_1 and th_4 change sign and
                # th_2, th_3 not
                image, j, unit, scale, two_q8 = modular
                r = cmath.log(t) * _LOG_TO_R
                k = round((scale * r).imag / image.imag)
                w = scale * r - k * image
                t = exp(_TWO_I_PI * w)
            a, b = n0, d0
            tk = tik = 1.0 + 0j
            ti = 1.0 / t
            for ak, bk in pairs:
                tk *= t
                tik *= ti
                u = tk + tik
                a += ak * u
                b += bk * u
            if modular is None:
                x = a / b if i < 3 else b / a
            else:
                # th_1 = 2 q'^{1/8} sin(pi w) B, sin(pi r) / sin(pi w) -> 1/scale
                if j == 2:
                    a = two_q8 * cmath.cos(cmath.pi * w) * a
                ratio = cmath.sin(cmath.pi * r) / cmath.sin(cmath.pi * w) if w else 1.0 / scale
                x = (-unit if k & 1 and j != 4 else unit) * ratio * a / b
                x = x if i < 3 else 1.0 / x
            if planes:
                out *= x
            else:
                x = pref * x
                out *= -x if m & 1 else x
        return out


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


def phi_numeric(i, params, z):
    """phi_i(z): ``EllipticParams.theta_product`` on the one point z."""
    return params.theta_product(i, (complex(z),))


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


# The five checks: phi_1 under s -> p^m s and then s -> i^k s against
# i^unit p^p_pow phi_i, the half periods from ``HALF_PERIODS``: which ->
# (m, k, (i, unit, p_pow), detail).
_TRANSLATION_CHECKS = {
    "z+1": (0, 2, (1, 2, 0),
            "phi1(z+1) vs -phi1(z), direct substitution s -> -s"),
    "z+tau": (2, 0, (1, 2, 0),
              "phi1(z+tau) vs -phi1(z), cross-multiplied product form"),
    "z+1/2": (0, 1, HALF_PERIODS[1, 0],
              "phi1(z+1/2) vs i*phi2(z), direct substitution s -> i s"),
    "z+tau/2": (1, 0, HALF_PERIODS[0, 1],
                "phi1(z+tau/2) vs p*phi3(z), s -> p s on the factors"),
    "z+1/2+tau/2": (1, 1, HALF_PERIODS[1, 1],
                    "phi1(z+1/2+tau/2) vs i*p*phi4(z)"),
}
TRANSLATIONS = tuple(_TRANSLATION_CHECKS)


def translation_difference(weights, m, k, target, order):
    """The first p-order through ``order`` at which prod_a phi_1(a z) on the
    integer ``weights`` under s -> p^m s, then s -> i^k s, differs from
    i^unit p^p_pow prod_a phi_i(a z), target = (i, unit, p_pow), or None.
    Every |d| is at most 2 max|a|: ``regrade`` needs p^{order + 2m max|a|}."""
    i, unit, p_pow = target
    depth = order + 2 * m * max(abs(a) for a in weights)
    left = regrade(theta_term(1, weights, depth), m, order)
    return unit_difference(order, left, k, theta_term(i, weights, order, p_pow), unit)


def phi_translate_check(which, order):
    """Exact check of one translation identity through p^order; returns a
    TranslationReport with the first failing p-exponent on failure."""
    if which not in _TRANSLATION_CHECKS:
        raise ValueError(f"unknown translation {which!r}")
    m, k, target, detail = _TRANSLATION_CHECKS[which]
    first = translation_difference((1,), m, k, target, order)
    return TranslationReport(
        which=which,
        truncation_order=order,
        passed=first is None,
        first_failing_exponent=first,
        detail=detail,
    )
