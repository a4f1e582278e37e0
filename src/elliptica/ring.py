"""Exact numbers: Gaussian rationals and rational functions in one variable.

Coefficient tower of every exact series in the package:

    Q  <  Q(i)  <  Q(i)(s)

* ``GaussianRational`` is a + b*i with a, b arbitrary-precision rationals,
  the number type that reports print.
* Polynomials over Q(i) are plain tuples of GaussianRational indexed by
  exponent, with no trailing zeros; the empty tuple is the zero polynomial.
* ``RationalFunctionQi`` is a quotient of two such polynomials in canonical
  form: gcd(num, den) = 1 and the lowest-degree nonzero coefficient of the
  denominator is 1.  With that normalization equality is a plain
  coefficient comparison and 1/(1-s^2)-type denominators print the way
  they are usually written.  It is a value type: it compares, scales by a
  constant, evaluates and prints, with no field arithmetic.

Integer polynomials, lists of int indexed by exponent with no trailing
zeros, carry the one reduction: ``RationalFunctionQi.from_integer_laurent``
takes the gcd of a quotient of integer Laurent polynomials over Z[s], by a
primitive pseudo-remainder sequence.  The field operations over Q(i)(s)
and their Euclidean gcd are kept in tests/ring_reference.py as the
reference for this path.

Nothing in this module rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class RingError(ValueError):
    """Base class for exact-arithmetic errors."""


class RationalFunctionDivisionError(RingError):
    """Division by the zero rational function."""


class PoleEvaluationError(RingError):
    """Numeric evaluation hit a (near-)zero denominator."""

    def __init__(self, message, denominator_magnitude):
        super().__init__(message)
        self.denominator_magnitude = denominator_magnitude


_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)


class GaussianRational:
    """An element a + b*i of Q(i), exact and immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _new(re, im):
        # fast internal constructor: arguments must already be Fractions
        g = GaussianRational.__new__(GaussianRational)
        g.re = re
        g.im = im
        return g

    @classmethod
    def zero(cls):
        return _GR_ZERO

    @classmethod
    def one(cls):
        return _GR_ONE

    @classmethod
    def i(cls):
        return _GR_I

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational._new(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._new(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._new(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational._new(self.re * other.re, _ZERO_F)
        return GaussianRational._new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        if not self.im:
            return GaussianRational._new(1 / self.re, _ZERO_F)
        n = self.re * self.re + self.im * self.im
        return GaussianRational._new(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = _GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = self.im
        if im == 1:
            ims = "i"
        elif im == -1:
            ims = "-i"
        else:
            ims = f"{im}i"
        if not self.re:
            return ims
        sign = "+" if im > 0 else ""
        return f"{self.re}{sign}{ims}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_GR_ZERO = GaussianRational._new(_ZERO_F, _ZERO_F)
_GR_ONE = GaussianRational._new(_ONE_F, _ZERO_F)
_GR_I = GaussianRational._new(_ZERO_F, _ONE_F)


def _coerce_gr(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, GaussianRational):
        return x
    return NotImplemented


# ---------------------------------------------------------------------------
# polynomials over Q(i): tuples of GaussianRational, no trailing zeros


PZERO = ()
PONE = (_GR_ONE,)


def poly_valuation(a):
    """Exponent of the lowest nonzero term; 0 for the zero polynomial."""
    for k, c in enumerate(a):
        if c:
            return k
    return 0


def poly_eval(a, x):
    """Evaluate at a complex point by Horner's rule."""
    out = 0j
    for c in reversed(a):
        out = out * x + c.to_complex()
    return out


def _coeff_str(c, in_product):
    s = str(c)
    if in_product and (("+" in s[1:]) or ("-" in s[1:]) or "/" in s):
        return f"({s})"
    return s


def poly_str(a, var="s"):
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        pw = var if k == 1 else f"{var}^{k}"
        if c == _GR_ONE:
            term = pw
        elif c == -_GR_ONE:
            term = f"-{pw}"
        else:
            term = f"{_coeff_str(c, True)}*{pw}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += ("-" + term[1:]) if term.startswith("-") else ("+" + term)
    return out


# ---------------------------------------------------------------------------
# polynomials over Z: lists of int, no trailing zeros


def zpoly_gcd(a, b):
    """The gcd over Z[s] of two integer polynomials, with a positive leading
    coefficient (the empty list when both are zero).

    Primitive pseudo-remainder sequence: the contents are split off, and
    each pseudo-remainder is made primitive before it divides again, so the
    coefficients stay as small as the inputs allow for any leading
    coefficients.
    """
    if not a or not b:
        a = a or b
        return [-x for x in a] if a and a[-1] < 0 else list(a)
    content = gcd(gcd(*a), gcd(*b))
    a, b = _zpoly_primitive(a), _zpoly_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _zpoly_prem(a, b)
        a, b = b, _zpoly_primitive(r) if r else r
    sign = -content if a[-1] < 0 else content
    return [sign * x for x in a]


def _zpoly_primitive(a):
    """A nonzero integer polynomial divided by the gcd of its coefficients."""
    c = gcd(*a)
    return [x // c for x in a] if c != 1 else a


def _zpoly_prem(a, b):
    """A nonzero integer multiple of the remainder of a by b over Q.

    The remainder is multiplied by lead(b) only at a step where lead(b)
    does not divide its leading coefficient, so a divisor with leading
    coefficient +-1 divides exactly.
    """
    lb = b[-1]
    terms = [(j, c) for j, c in enumerate(b) if c]
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        f, m = divmod(r[-1], lb)
        if m:
            f = r[-1]
            r = [x * lb for x in r]
        k = len(r) - 1 - db
        for j, c in terms:
            r[k + j] -= f * c
        while r and not r[-1]:
            r.pop()
    return r


def _zpoly_exquo(a, b):
    """a / b for integer polynomials with b dividing a in Z[s]."""
    lb = b[-1]
    terms = [(j, c) for j, c in enumerate(b) if c]
    db = len(b) - 1
    r = list(a)
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        if r[k]:
            f = r[k] // lb
            quot[k - db] = f
            for j, c in terms:
                r[k - db + j] -= f * c
    return quot


def _zpoly_dense(terms, low):
    """The integer polynomial sum_e terms[e] s^(e - low)."""
    out = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        out[e - low] = c
    return out


def _zpoly_over(a, lead, shift):
    """s^shift * a / lead as a polynomial over Q(i): zero coefficients are
    the shared zero, and every imaginary part is the shared zero Fraction."""
    out = [_GR_ZERO] * shift
    for x in a:
        if not x:
            out.append(_GR_ZERO)
        elif x == lead:
            out.append(_GR_ONE)
        else:
            re = Fraction(x) if lead == 1 else Fraction(x, lead)
            out.append(GaussianRational._new(re, _ZERO_F))
    return tuple(out)


# ---------------------------------------------------------------------------
# rational functions in s over Q(i)


class RationalFunctionQi:
    """A quotient of polynomials in s over Q(i), in canonical form.

    The constructor stores ``num`` and ``den`` as given, so they must
    already be canonical; ``from_integer_laurent`` is the constructor that
    reduces.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE):
        self.num = num
        self.den = den

    @classmethod
    def from_integer_laurent(cls, num, den):
        """The quotient of two Laurent polynomials {exponent: int}, reduced
        over Z[s].

        The common power of s is split off, the gcd of the rest is taken
        over Z[s] (``zpoly_gcd``) and divided out exactly, and the lowest
        denominator coefficient is normalized to 1, the canonical form.
        """
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise RationalFunctionDivisionError("division by zero rational function")
        num = {e: c for e, c in num.items() if c}
        if not num:
            return _RF_ZERO
        n_low, d_low = min(num), min(den)
        a, b = _zpoly_dense(num, n_low), _zpoly_dense(den, d_low)
        if len(b) > 1:
            g = zpoly_gcd(a, b)
            if len(g) > 1:
                a, b = _zpoly_exquo(a, g), _zpoly_exquo(b, g)
        shift = n_low - d_low
        lead = b[0]
        return RationalFunctionQi(
            _zpoly_over(a, lead, max(shift, 0)),
            _zpoly_over(b, lead, max(-shift, 0)),
        )

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RationalFunctionQi):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce_gr(other)
            return self.den == PONE and self.num == ((other,) if other else PZERO)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) <= 1

    def constant_value(self):
        if not self.is_constant():
            raise RingError("rational function is not constant")
        if not self.num:
            return _GR_ZERO
        return self.num[0] / self.den[0]

    def as_laurent(self):
        """Return {exponent: coefficient} if the denominator is a monomial,
        else None."""
        den = self.den
        v = poly_valuation(den)
        if len(den) != v + 1:
            return None
        c_inv = den[v].inverse()
        return {k - v: c * c_inv for k, c in enumerate(self.num) if c}

    def scale(self, c):
        # a nonzero constant factor leaves a reduced quotient reduced
        c = _coerce_gr(c)
        if not c:
            return _RF_ZERO
        return RationalFunctionQi(tuple(x * c for x in self.num), self.den)

    # -- numeric bridge ------------------------------------------------------

    def evaluate(self, s0):
        """Float evaluation at a complex point; errors near poles."""
        dv = poly_eval(self.den, s0)
        nv = poly_eval(self.num, s0)
        if abs(dv) <= 1e-13 * (1.0 + abs(nv)):
            raise PoleEvaluationError(
                f"evaluation at a pole: |denominator| = {abs(dv):.3e}", abs(dv)
            )
        return nv / dv

    # -- misc ----------------------------------------------------------------

    def __str__(self):
        ns = poly_str(self.num)
        if self.den == PONE:
            return ns
        ds = poly_str(self.den)
        if ("+" in ns[1:]) or ("-" in ns[1:]) or ("/" in ns) or ("*" in ns):
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"<RationalFunctionQi {self}>"


_RF_ZERO = RationalFunctionQi(PZERO)
