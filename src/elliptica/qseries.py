"""Truncated formal power series in p = q^(1/4) over an exact coefficient field.

A ``PSeries`` holds coefficients for p^0 .. p^M with M the explicit
truncation order.  Coefficients may be any exact field elements supporting
+, -, *, /, bool and the ``zero()`` / ``one()`` classmethods; the
workbench's series are over RationalFunctionQi, built by ``laurent_sum``.

The p-grading is global for the whole workbench: q itself sits at p^4, the
half-period factor q^(1/4) at p^1, and series given in powers of q^(1/2)
occupy the even p-orders.

Lattice translations of z (s = e^{i pi z}) act on series over Q(i)(s) as
substitutions in s: s -> -s, s -> i s and s -> p^m s.  The exact checks
never apply them to a series, whose truncation hides the tail that a
regrading would bring down; they act on the product factors of the
witten module (``unit_substitute``, ``regrade_factors``) before any row is
formed, and raise ``SubstitutionError`` for what they cannot represent.
"""

from __future__ import annotations


class QSeriesError(ValueError):
    """Base class for series-layer errors."""


class SubstitutionError(QSeriesError):
    """A substitution would need negative p-exponents, a factor it cannot
    flip or divide, or a power of i it cannot factor out."""


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
