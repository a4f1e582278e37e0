"""The number type Q(i) and field arithmetic over Q(i)(s): the general
reduction path that the package replaced with one reduction over Z[s]
(``RationalFunctionQi.from_integer_laurent``) and integer coefficients.
The tests keep it as the slow reference for that path.

* ``GaussianRational`` is a + b*i with a, b arbitrary-precision rationals.
* Polynomials over Q(i) are tuples of GaussianRational indexed by exponent,
  with no trailing zeros; ``poly_divmod`` and ``poly_gcd`` divide over the
  field Q(i), and ``poly_str`` prints the way reports print.
* ``reduce`` brings a quotient to the canonical form over Q(i): gcd 1 and
  lowest nonzero denominator coefficient 1.
* ``RF`` is a quotient in that form with the field operations.  Its
  constructor reduces, and Laurent data (negative powers of s) is cleared
  into the denominator by ``from_laurent``.  Every operation and comparison
  accepts the package's values, in their integer form, and constants too,
  and converts them (``RF.of``); ``package_value`` converts back.
"""

from fractions import Fraction
from math import lcm

from elliptica.ring import (
    PoleEvaluationError,
    RationalFunctionDivisionError,
    RationalFunctionQi,
    RingError,
)


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


class RF:
    """A quotient of polynomials in s over Q(i) in canonical form, with the
    field operations; the constructor reduces any quotient with a nonzero
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE):
        num = poly_trim(num)
        den = poly_trim(den)
        if not den:
            raise RationalFunctionDivisionError("zero denominator")
        self.num, self.den = reduce(num, den)

    @classmethod
    def canonical(cls, num, den=PONE):
        """Wrap a quotient that is already canonical, without reducing."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def of(cls, x):
        """A package value, a constant or an ``RF`` as an ``RF``: the
        package's integer form (num, den) becomes (num/lead, den/lead)."""
        if isinstance(x, cls):
            return x
        if isinstance(x, RationalFunctionQi):
            lead = x.lead
            return cls.canonical(
                tuple(GaussianRational(Fraction(c, lead)) for c in x.num),
                tuple(GaussianRational(Fraction(c, lead)) for c in x.den),
            )
        if isinstance(x, (int, Fraction, GaussianRational)):
            return cls.constant(x)
        return NotImplemented

    # -- values ------------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = RF.of(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

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

    def evaluate(self, s0):
        """Float evaluation at a complex point, in the package's order of
        operations; ``PoleEvaluationError`` near a pole."""
        dv = poly_eval(self.den, s0)
        nv = poly_eval(self.num, s0)
        if abs(dv) <= 1e-13 * (1.0 + abs(nv)):
            raise PoleEvaluationError(
                f"evaluation at a pole: |denominator| = {abs(dv):.3e}", abs(dv)
            )
        return nv / dv

    def __str__(self):
        ns = poly_str(self.num)
        if self.den == PONE:
            return ns
        ds = poly_str(self.den)
        if ("+" in ns[1:]) or ("-" in ns[1:]) or ("/" in ns) or ("*" in ns):
            ns = f"({ns})"
        return f"{ns}/({ds})"

    def __repr__(self):
        return f"<RF {self}>"

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


def package_value(f):
    """The package's ``RationalFunctionQi`` of an ``RF`` with rational
    coefficients: both parts times the lcm of the coefficients'
    denominators.  A coefficient 1 stands in the denominator, so the
    content is 1 and the lowest denominator coefficient is that lcm > 0."""
    coeffs = f.num + f.den
    if any(c.im for c in coeffs):
        raise ValueError(f"{f} is not over Q(s)")
    m = lcm(*(c.re.denominator for c in coeffs))
    return RationalFunctionQi(
        tuple(int(c.re * m) for c in f.num), tuple(int(c.re * m) for c in f.den)
    )


_RF_ZERO = RF.canonical(PZERO)
_RF_ONE = RF.canonical(PONE)
_RF_S = RF.canonical((_GR_ZERO, _GR_ONE))
