"""Truncated formal power series in p = q^(1/4) over an exact coefficient field.

A ``PSeries`` holds coefficients for p^0 .. p^M with M the explicit
truncation order.  Coefficients may be any exact field elements supporting
+, -, *, /, bool and the ``zero()`` / ``one()`` classmethods; the
workbench's series are over RationalFunctionQi, built by ``laurent_sum``.

The p-grading is global for the whole workbench: q itself sits at p^4, the
half-period factor q^(1/4) at p^1, and series given in powers of q^(1/2)
occupy the even p-orders.

Substitutions on series over Q(i)(s) implement lattice translations of the
underlying variable z (s = e^{i pi z}):

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
The exact translation checks of the elliptic module avoid that obligation
by substituting into the product factors instead (``regrade_factors`` in
the witten module).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import GaussianRational, RationalFunctionQi, poly_valuation


class QSeriesError(ValueError):
    """Base class for series-layer errors."""


class SubstitutionError(QSeriesError):
    """A substitution left the supported coefficient class or would need
    negative p-exponents."""


class PSeries:
    """Truncated series sum_{k=0..M} c_k p^k with exact coefficients."""

    __slots__ = ("coeffs", "truncation_order")

    def __init__(self, coeffs, truncation_order=None):
        coeffs = tuple(coeffs)
        if truncation_order is None:
            truncation_order = len(coeffs) - 1
        if truncation_order < 0:
            raise QSeriesError("truncation order must be >= 0")
        if len(coeffs) != truncation_order + 1:
            raise QSeriesError(
                f"coefficient list has length {len(coeffs)}, "
                f"expected {truncation_order + 1}"
            )
        self.coeffs = coeffs
        self.truncation_order = truncation_order

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c, order):
        zero = type(c).zero()
        return cls((c,) + (zero,) * order, order)

    @classmethod
    def one(cls, field, order):
        return cls.constant(field.one(), order)

    @classmethod
    def zeros(cls, field, order):
        return cls.constant(field.zero(), order)

    # -- structure -----------------------------------------------------------

    def _zero(self):
        return type(self.coeffs[0]).zero()

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return (
            self.truncation_order == other.truncation_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.truncation_order, self.coeffs))

    def first_difference(self, other):
        """Lowest p-exponent where the two series differ, or None."""
        order = min(self.truncation_order, other.truncation_order)
        for k in range(order + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    def truncate(self, order):
        if order >= self.truncation_order:
            return self
        return PSeries(self.coeffs[: order + 1], order)

    def map_coefficients(self, fn):
        return PSeries(tuple(fn(c) for c in self.coeffs), self.truncation_order)

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self):
        return self.map_coefficients(lambda c: -c)

    def __add__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        order = min(self.truncation_order, other.truncation_order)
        return PSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(order + 1)), order
        )

    def __sub__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PSeries):
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
        return PSeries(out, order)

    def scale(self, c):
        return self.map_coefficients(lambda x: x * c)

    def shift_p(self, m):
        """Multiply by p^m (m >= 0); the truncation order is unchanged, so the
        top m input coefficients fall off the end."""
        if m < 0:
            raise QSeriesError("shift_p: negative shift")
        if m == 0:
            return self
        zero = self._zero()
        out = (zero,) * m + self.coeffs[: self.truncation_order + 1 - m]
        return PSeries(out, self.truncation_order)

    def evaluate(self, s0, p0):
        """Numeric value sum c_k(s0) p0^k (coefficients must be rational
        functions)."""
        out = 0j
        pw = 1.0 + 0j
        for c in self.coeffs:
            if c:
                out += c.evaluate(s0) * pw
            pw *= p0
        return out

    def to_json(self):
        return {
            "truncation_order": self.truncation_order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if k == 0:
                terms.append(cs)
            else:
                terms.append(f"({cs})*p^{k}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"<PSeries order {self.truncation_order}: {self}>"


# ---------------------------------------------------------------------------
# series operations


def ps_arith(a, b, kind):
    """Truncated arithmetic: kind in {'add', 'mul'}; the result carries the
    smaller of the two truncation orders."""
    if kind == "add":
        return a + b
    if kind == "mul":
        return a * b
    raise ValueError(f"unknown kind {kind!r}")


def ps_invert(a):
    """Multiplicative inverse to the truncation order.

    Requires an invertible constant term; a * ps_invert(a) = 1 + O(p^{M+1}).
    """
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
    return PSeries(out, order)


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


def ps_substitute_t(a, rule, *, post_p=0, post_s=0, post_scale=None):
    """Apply a variable substitution to a series over RationalFunctionQi.

    For the scalar rules (s -> -s, s -> i*s, s -> 1/s) the substitution acts
    coefficient-wise and is exact at every order.

    For s -> p^m * s each coefficient n(s)/(s^v d(s)) with d(0) != 0 is
    re-expanded and the terms re-collected by p-exponent; ``post_p`` and
    ``post_s`` multiply the *result* by p^post_p s^post_s (folded in during
    accumulation so that compensated checks never see negative exponents),
    and ``post_scale`` scales by a Q(i) constant.  A term that would land at
    a negative p-exponent raises SubstitutionError naming the coefficient.

    The output is truncated at the input's order and accounts only for the
    stored coefficients; see the module docstring for the caller-side tail
    obligation.
    """
    for c in a.coeffs:
        if not isinstance(c, RationalFunctionQi):
            raise SubstitutionError(
                "substitutions are defined for series over Q(i)(s); got "
                f"coefficient of type {type(c).__name__}"
            )
    if rule.kind == "neg_s":
        out = a.map_coefficients(lambda c: c.substitute_scale(-1))
    elif rule.kind == "i_s":
        iu = GaussianRational.i()
        out = a.map_coefficients(lambda c: c.substitute_scale(iu))
    elif rule.kind == "inv_s":
        out = a.map_coefficients(lambda c: c.compose_power(-1) if c else c)
    elif rule.kind == "p_shift":
        out = _regrade(a, rule.m, post_p, post_s)
        post_p = 0
        post_s = 0
    else:
        raise ValueError(f"unknown substitution {rule.kind!r}")
    if post_p or post_s:
        if post_s:
            mono = RationalFunctionQi.monomial(post_s)
            out = out.map_coefficients(lambda c: c * mono)
        if post_p:
            out = out.shift_p(post_p)
    if post_scale is not None:
        out = out.scale(RationalFunctionQi.constant(post_scale))
    return out


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

    coeffs = [RationalFunctionQi.from_laurent(slot) for slot in acc]
    return PSeries(coeffs, order)


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
    return a.map_coefficients(lambda c: c.compose_power(n) if c else c)
