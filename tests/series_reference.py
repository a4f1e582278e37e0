"""Arithmetic and substitutions on whole series over Q(i)(s): the general
rational-function path that the package replaced with integer Laurent
rows.  The tests keep it as their reference.

``PS`` is ``PSeries`` with the truncated arithmetic (the result of a binary
operation carries the smaller truncation order) over ``RF`` coefficients,
and ``ps_invert`` inverts a series with an invertible constant term.

Lattice translations of z (s = e^{i pi z}) act on series as

    s -> -s        (z -> z+1)
    s -> i*s       (z -> z+1/2)
    s -> 1/s       (z -> -z)
    s -> p^m * s   (z -> z + m*tau/2, a regrading of the series)

``ps_substitute_t`` applies the p^m rule to a whole series: it re-expands
every coefficient n(s)/(s^v * d(s)), d(0) != 0, by substituting p^m*s and
re-collecting by p-exponent; the geometric expansion of 1/d(p^m s) only
ever raises the p-order, so each output order receives finitely many
contributions *from the stored coefficients*.  Contributions that tail
coefficients beyond the truncation would have made are the caller's
responsibility: a caller of ``ps_substitute_t`` must supply enough input
depth that the discarded tail can only land above the orders it reads.

Three exact series that no command of the package builds are kept here
too, each the ``laurent_sum`` of one term of the package's product
engine: ``z_term``, the formal Z-series of ``zem.z_fun``,
``witten_series``, the character of W_i on integer weights, and
``em_eps_exact``, the formal series of ``zem.em_eps``.
"""

from dataclasses import dataclass

from elliptica.elliptic import PREFACTORS, theta_term
from elliptica.qseries import PSeries, QSeriesError, SubstitutionError
from elliptica.ring import RationalFunctionQi, RingError
from elliptica.spinchar import SpinCharError
from elliptica.witten import laurent_sum, witten_factors
from elliptica.zem import ZemError, _c_constant, _em_case
from ring_reference import (
    RF,
    GaussianRational,
    poly_degree,
    poly_monomial,
    poly_shift,
    poly_valuation,
)


def _coeff(c):
    """A coefficient with the field operations: the package's rational
    functions become ``RF``."""
    return RF.of(c) if isinstance(c, RationalFunctionQi) else c


class PS(PSeries):
    """``PSeries`` with the truncated arithmetic.  Operands may be package
    series; their coefficients become ``RF``."""

    __slots__ = ()

    def __init__(self, coeffs, truncation_order=None):
        super().__init__(map(_coeff, coeffs), truncation_order)

    @classmethod
    def of(cls, a):
        if isinstance(a, cls):
            return a
        if isinstance(a, PSeries):
            return cls(a.coeffs, a.truncation_order)
        return NotImplemented

    @classmethod
    def constant(cls, c, order):
        c = _coeff(c)
        return cls((c,) + (type(c).zero(),) * order, order)

    @classmethod
    def one(cls, field, order):
        return cls.constant(field.one(), order)

    @classmethod
    def zeros(cls, field, order):
        return cls.constant(field.zero(), order)

    def _zero(self):
        return type(self.coeffs[0]).zero()

    def truncate(self, order):
        if order >= self.truncation_order:
            return self
        return PS(self.coeffs[: order + 1], order)

    def scale(self, c):
        return PS(x * c for x in self.coeffs)

    def __neg__(self):
        return PS(-c for c in self.coeffs)

    def __add__(self, other):
        other = PS.of(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.truncation_order, other.truncation_order)
        return PS(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(order + 1)), order
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = PS.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = PS.of(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.truncation_order, other.truncation_order)
        zero = self._zero()
        out = [zero] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return PS(out, order)

    __rmul__ = __mul__


def ps_invert(a):
    """Multiplicative inverse to the truncation order.

    Requires an invertible constant term; a * ps_invert(a) = 1 + O(p^{M+1}).
    """
    a = PS.of(a)
    c0 = a.coeffs[0]
    if not c0:
        raise QSeriesError("ps_invert: constant term is zero")
    order = a.truncation_order
    one = type(c0).one()
    b0 = one / c0
    out = [b0]
    for k in range(1, order + 1):
        acc = None
        for j in range(1, k + 1):
            aj = a.coeffs[j]
            if not aj:
                continue
            term = aj * out[k - j]
            acc = term if acc is None else acc + term
        if acc is None:
            out.append(type(c0).zero())
        else:
            out.append(-(b0 * acc))
    return PS(out, order)


def monomial(exp, coeff=1):
    """coeff * s^exp, with exp any integer (negative goes downstairs)."""
    if not isinstance(coeff, GaussianRational):
        coeff = GaussianRational(coeff)
    if not coeff:
        return RF.zero()
    if exp >= 0:
        return RF(poly_monomial(exp, coeff))
    return RF((coeff,), poly_monomial(-exp))


def _map(a, fn):
    """fn applied to each coefficient of a series."""
    return PS(map(fn, a.coeffs), a.truncation_order)


def shift_p(a, m):
    """Multiply by p^m (m >= 0); the truncation order is unchanged, so the
    top m input coefficients fall off the end."""
    if m < 0:
        raise QSeriesError("shift_p: negative shift")
    a = PS.of(a)
    if m == 0:
        return a
    out = (a._zero(),) * m + a.coeffs[: a.truncation_order + 1 - m]
    return PS(out, a.truncation_order)


# ---------------------------------------------------------------------------
# substitutions on one rational function


def substitute_scale(f, c):
    """f(c*s) for a scalar c in Q(i)."""
    if not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    if not c:
        raise RingError("substitute_scale: scalar must be nonzero")
    if not f.num:
        return f
    # a unit substitution is a ring automorphism: reducedness survives,
    # only the denominator normalization has to be redone
    num = list(f.num)
    den = list(f.den)
    ck = GaussianRational.one()
    for k in range(1, max(len(num), len(den))):
        ck = ck * c
        if k < len(num):
            num[k] = num[k] * ck
        if k < len(den):
            den[k] = den[k] * ck
    v = poly_valuation(tuple(den))
    lead = den[v]
    if lead != GaussianRational.one():
        inv = lead.inverse()
        num = [a * inv for a in num]
        den = [a * inv for a in den]
    return RF.canonical(tuple(num), tuple(den))


def compose_power(f, a):
    """f(s^a) for a nonzero integer a (negative allowed)."""
    if a == 0:
        raise RingError("compose_power: exponent must be nonzero")
    if a > 0:
        return RF(_stretch(f.num, a), _stretch(f.den, a))
    b = -a
    dn = poly_degree(f.num)
    dd = poly_degree(f.den)
    num = _stretch(tuple(reversed(f.num)), b)
    den = _stretch(tuple(reversed(f.den)), b)
    e = b * (dd - dn)
    if e >= 0:
        num = poly_shift(num, e)
    else:
        den = poly_shift(den, -e)
    return RF(num, den)


def _stretch(a, k):
    """Replace s by s^k in a polynomial (k >= 1)."""
    if not a or k == 1:
        return a
    out = [GaussianRational.zero()] * ((len(a) - 1) * k + 1)
    for e, c in enumerate(a):
        if c:
            out[e * k] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# substitutions on series


@dataclass(frozen=True)
class Substitution:
    """One of the supported variable substitutions on series over Q(i)(s)."""

    kind: str  # 'neg_s' | 'i_s' | 'inv_s' | 'p_shift'
    m: int = 0

    @classmethod
    def neg_s(cls):
        return cls("neg_s")

    @classmethod
    def i_s(cls):
        return cls("i_s")

    @classmethod
    def inv_s(cls):
        return cls("inv_s")

    @classmethod
    def p_shift(cls, m):
        if not isinstance(m, int) or m < 1:
            raise ValueError("p_shift requires an integer m >= 1")
        return cls("p_shift", m)


def ps_substitute_t(a, rule, *, post_p=0, post_s=0):
    """Apply a variable substitution to a series over RationalFunctionQi.

    For the scalar rules (s -> -s, s -> i*s, s -> 1/s) the substitution acts
    coefficient-wise and is exact at every order.

    For s -> p^m * s each coefficient n(s)/(s^v d(s)) with d(0) != 0 is
    re-expanded and the terms re-collected by p-exponent; ``post_p`` and
    ``post_s`` multiply the *result* by p^post_p s^post_s (folded in during
    accumulation so that compensated checks never see negative exponents).
    A term that would land at a negative p-exponent raises
    SubstitutionError naming the coefficient.

    The output is truncated at the input's order and accounts only for the
    stored coefficients; see the module docstring for the caller-side tail
    obligation.
    """
    for c in a.coeffs:
        if not isinstance(c, (RationalFunctionQi, RF)):
            raise SubstitutionError(
                "substitutions are defined for series over Q(i)(s); got "
                f"coefficient of type {type(c).__name__}"
            )
    a = PS.of(a)
    if rule.kind == "neg_s":
        out = _map(a, lambda c: substitute_scale(c, -1))
    elif rule.kind == "i_s":
        iu = GaussianRational.i()
        out = _map(a, lambda c: substitute_scale(c, iu))
    elif rule.kind == "inv_s":
        out = _map(a, lambda c: compose_power(c, -1) if c else c)
    elif rule.kind == "p_shift":
        out = _regrade(a, rule.m, post_p, post_s)
        post_p = 0
        post_s = 0
    else:
        raise ValueError(f"unknown substitution {rule.kind!r}")
    if post_s:
        mono = monomial(post_s)
        out = _map(out, lambda c: c * mono)
    return shift_p(out, post_p)


def _regrade(a, m, post_p, post_s):
    """s -> p^m s on a series over Q(i)(s), re-collected by p-exponent."""
    order = a.truncation_order
    acc = [dict() for _ in range(order + 1)]  # p-order -> {s-exponent: GR}

    def put(t, e, c):
        if t > order or not c:
            return
        if t < 0:
            raise SubstitutionError(
                f"substitution s -> p^{m} s lands at negative p-exponent {t}"
            )
        slot = acc[t]
        prev = slot.get(e)
        slot[e] = c if prev is None else prev + c

    for k, f in enumerate(a.coeffs):
        if not f:
            continue
        num, den = f.num, f.den
        v = poly_valuation(den)
        lead_inv = den[v].inverse()
        dhat = tuple(c * lead_inv for c in den[v:])  # dhat[0] == 1
        nn = [c * lead_inv for c in num]
        u = poly_valuation(tuple(num))
        floor = k + m * (u - v) + post_p
        if floor < 0:
            raise SubstitutionError(
                f"coefficient at p^{k} ({f}) needs p-exponent {floor} < 0 "
                f"under s -> p^{m} s"
            )
        depth = order - floor
        if depth < 0:
            continue
        inv_rows = _inverse_expansion(dhat, m, depth)
        for e, ne in enumerate(nn):
            if not ne:
                continue
            base = k + m * (e - v) + post_p
            if base > order:
                continue
            sbase = e - v + post_s
            for t, row in inv_rows:
                tt = base + t
                if tt > order:
                    break
                for se, ce in row.items():
                    put(tt, sbase + se, ne * ce)

    coeffs = [RF.from_laurent(slot) for slot in acc]
    return PS(coeffs, order)


def _inverse_expansion(dhat, m, depth):
    """p-series rows of 1/dhat(p^m s) for a polynomial dhat with dhat(0)=1.

    Returns [(p_order, {s_exp: coeff}), ...] up to p-order ``depth``; the
    substitution only raises p-orders, so the recursion g_t = -sum_w
    dhat_w s^w g_{t-mw} closes at each order.
    """
    rows = {0: {0: GaussianRational.one()}}
    supp = [(w, c) for w, c in enumerate(dhat) if w >= 1 and c]
    for t in range(1, depth + 1):
        row = {}
        for w, cw in supp:
            prev = rows.get(t - m * w)
            if not prev:
                continue
            for se, ce in prev.items():
                key = se + w
                val = cw * ce
                old = row.get(key)
                row[key] = -val if old is None else old - val
        row = {k: c for k, c in row.items() if c}
        if row:
            rows[t] = row
    return sorted(rows.items())


def ps_compose_power(a, n):
    """Coefficient-wise s -> s^n (n a nonzero integer); the p-grading is
    untouched."""
    if n == 0:
        raise QSeriesError("compose power must be nonzero")
    if n == 1:
        return a
    return _map(PS.of(a), lambda c: compose_power(c, n) if c else c)


def spinor_trace_exact(kind, R):
    """``spinchar.spinor_trace`` for integer rotation numbers a_j as a
    rational function in s: w_j becomes pi a_j z, the factor
    s^{-a_j} -+ s^{a_j}.  The reference for the exact reciprocal
    supertrace, the depth-0 ``z_term``."""
    if kind not in ("str", "tr"):
        raise ValueError("kind must be 'str' or 'tr'")
    if not all(isinstance(a, int) for a in R.entries):
        raise SpinCharError("exact spinor_trace needs integer rotation numbers")
    out = RF.one()
    for a in R.entries:
        if kind == "str":
            out = out * RF.from_laurent({-a: 1, a: -1})
        else:
            out = out * RF.from_laurent({-a: 1, a: 1})
    if kind == "str" and R.orientation_sign < 0:
        out = -out
    return out


def z_term(entries, order, nu=1):
    """nu * prod_a phi_1(a z) for integer rotation numbers ``entries`` as a
    ``laurent_sum`` term at depth ``order``: ``theta_term`` of phi_1 times
    nu.  At depth 0 it is the reciprocal supertrace alone."""
    num, den, (p_pow, s_pow, sign) = theta_term(1, entries, order)
    return num, den, (p_pow, s_pow, nu * sign)


def witten_series(i, weights, order):
    """Character of W_{i,q} on integer weights w (eigenvalues s^{2w}): a
    PSeries over Q(s) truncated at ``order``."""
    return laurent_sum(order, [(*witten_factors(i, weights, order), (0, 0, 1))])


def em_eps_exact(gamma, R, order):
    """``zem.em_eps`` for integer offsets R (multiples of the formal
    variable z) as (j, series): EM_eps = i^j series, with j in {0, 1} and
    ``series`` a PSeries over Q(s) truncated at ``order``: the
    ``theta_term`` of the parity case's quotient.  Of the factor
    i^{unit dim N/2} in c, i^j stands outside and (-1)^{floor(unit dim N/4)}
    goes into the term's sign, as in ``witten.unit_substitute``; so does the
    sign that turns the prefactors of the term into the trace of
    ``em_eps``, whose Str carries o_N."""
    case = _em_case(gamma)
    if not all(isinstance(a, int) for a in R.entries):
        raise ZemError("exact em_eps needs integer offsets (multiples of z)")
    planes = R.planes
    i, unit, p_pow, sign = _c_constant(case, gamma.alpha, gamma.beta, planes)
    kind, _, pre_sign = PREFACTORS[i]
    sign *= (-1) ** (unit * planes // 2) * pre_sign**planes
    if kind == "str":
        sign *= R.orientation_sign
    num, den, (p_pow, s_pow, t) = theta_term(i, R.entries, order, p_pow * planes)
    return unit * planes % 2, laurent_sum(order, [(num, den, (p_pow, s_pow, sign * t))])
