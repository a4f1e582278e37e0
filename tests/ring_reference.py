"""Field arithmetic over Q(i)(s): the general reduction path that the
package replaced with one reduction over Z[s]
(``RationalFunctionQi.from_integer_laurent``).  The tests keep it as the
slow reference for that path.

* Polynomials over Q(i) are tuples of GaussianRational indexed by exponent,
  with no trailing zeros, as in ``elliptica.ring``; ``poly_divmod`` and
  ``poly_gcd`` divide over the field Q(i).
* ``reduce`` brings a quotient to the package's canonical form: gcd 1 and
  lowest nonzero denominator coefficient 1.
* ``RF`` is ``RationalFunctionQi`` with the field operations.  Its
  constructor reduces, and Laurent data (negative powers of s) is cleared
  into the denominator by ``from_laurent``.  Every operation accepts the
  package's values and constants too, and returns an ``RF``, which equals
  the package value of the same quotient.
"""

from fractions import Fraction

from elliptica.ring import (
    PONE,
    PZERO,
    GaussianRational,
    RationalFunctionDivisionError,
    RationalFunctionQi,
    poly_valuation,
)

_GR_ZERO = GaussianRational.zero()
_GR_ONE = GaussianRational.one()


# ---------------------------------------------------------------------------
# polynomials over Q(i)


def poly_trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def poly_from_ints(values):
    return poly_trim([GaussianRational(v) for v in values])


def poly_monomial(exp, coeff=_GR_ONE):
    if exp < 0:
        raise ValueError("poly_monomial: negative exponent")
    if not coeff:
        return PZERO
    return (_GR_ZERO,) * exp + (coeff,)


def poly_degree(a):
    return len(a) - 1  # -1 for the zero polynomial


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return poly_trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_scale(a, c):
    if not c:
        return PZERO
    return tuple(x * c for x in a)


def poly_mul(a, b):
    if not a or not b:
        return PZERO
    out = [_GR_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return poly_trim(out)


def poly_shift(a, k):
    """Multiply by s^k (k >= 0)."""
    if not a:
        return PZERO
    return (_GR_ZERO,) * k + tuple(a)


def poly_divmod(a, b):
    """Exact division with remainder over the field Q(i)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return PZERO, a
    rem = list(a)
    db = len(b) - 1
    lead_inv = b[-1].inverse()
    quot = [_GR_ZERO] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if not c:
            continue
        f = c * lead_inv
        quot[k - db] = f
        for j in range(db + 1):
            rem[k - db + j] = rem[k - db + j] - f * b[j]
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm (remainders normalized monic).

    Each operand's own power of s is split off first: s is prime, so
    gcd(s^i f, s^j g) = s^min(i, j) gcd(f, g) when f(0) g(0) != 0.
    """
    a = poly_trim(a)
    b = poly_trim(b)
    v = 0
    if a and b:
        va = poly_valuation(a)
        vb = poly_valuation(b)
        v = min(va, vb)
        a = a[va:]
        b = b[vb:]
    while b:
        _, r = poly_divmod(a, b)
        if r:
            r = poly_scale(r, r[-1].inverse())
        a, b = b, r
    if not a:
        return poly_shift(PONE, v) if v else PZERO
    g = poly_scale(a, a[-1].inverse())
    return poly_shift(g, v)


def reduce(num, den):
    """Canonicalize: strip common s powers, divide by the gcd, then scale so
    the lowest nonzero denominator coefficient is 1."""
    if not num:
        return PZERO, PONE
    v = min(poly_valuation(num), poly_valuation(den))
    if v:
        num = tuple(num[v:])
        den = tuple(den[v:])
    dv = poly_valuation(den)
    if len(den) == dv + 1:
        # monomial denominator: nothing left to cancel but the constant
        c_inv = den[dv].inverse()
        num = poly_scale(num, c_inv)
        den = poly_monomial(dv)
    else:
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        c_inv = den[poly_valuation(den)].inverse()
        if c_inv != _GR_ONE:
            num = poly_scale(num, c_inv)
            den = poly_scale(den, c_inv)
    return num, den


# ---------------------------------------------------------------------------
# the field Q(i)(s)


class RF(RationalFunctionQi):
    """``RationalFunctionQi`` with the field operations; the constructor
    reduces any quotient with a nonzero denominator."""

    __slots__ = ()

    def __init__(self, num, den=PONE):
        num = poly_trim(num)
        den = poly_trim(den)
        if not den:
            raise RationalFunctionDivisionError("zero denominator")
        super().__init__(*reduce(num, den))

    @classmethod
    def canonical(cls, num, den=PONE):
        """Wrap a quotient that is already canonical, without reducing."""
        out = cls.__new__(cls)
        RationalFunctionQi.__init__(out, num, den)
        return out

    @classmethod
    def of(cls, x):
        """A package value, a constant or an ``RF`` as an ``RF``."""
        if isinstance(x, cls):
            return x
        if isinstance(x, RationalFunctionQi):
            return cls.canonical(x.num, x.den)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return cls.constant(x)
        return NotImplemented

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _RF_ZERO

    @classmethod
    def one(cls):
        return _RF_ONE

    @classmethod
    def var(cls):
        return _RF_S

    @classmethod
    def from_int(cls, n):
        return cls((GaussianRational(n),))

    @classmethod
    def constant(cls, c):
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        return cls((c,))

    @classmethod
    def from_laurent(cls, terms):
        """Build from {exponent: coefficient} with arbitrary integer keys."""
        if not terms:
            return _RF_ZERO
        shift = min(min(terms), 0)
        out = [_GR_ZERO] * (max(terms) - shift + 1)
        for e, c in terms.items():
            out[e - shift] = out[e - shift] + c
        num = poly_trim(out)
        if shift < 0:
            return cls(num, poly_monomial(-shift))
        return cls(num)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self):
        return RF.canonical(poly_neg(self.num), self.den)

    def __add__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return RF(poly_add(self.num, other.num), self.den)
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RF(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return _RF_ZERO
        return RF(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise RationalFunctionDivisionError("division by zero rational function")
        return RF(self.den, self.num)

    def __truediv__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        out = _RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def den_degree(self):
        return poly_degree(self.den)


_RF_ZERO = RF.canonical(PZERO)
_RF_ONE = RF.canonical(PONE)
_RF_S = RF.canonical((_GR_ZERO, _GR_ONE))
