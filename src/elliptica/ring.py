"""Exact coefficients: rational functions in one variable over Q.

Every exact series coefficient of the package is a quotient of integer
Laurent polynomials, and ``RationalFunctionQi`` stores it in one canonical
integer form:

* ``num`` and ``den`` are tuples of int indexed by exponent, with no
  trailing zeros; the zero function is ``((), (1,))``;
* their gcd over Z[s] is 1, and so is the gcd of all their coefficients
  together (the content);
* the lowest nonzero coefficient of ``den``, its ``lead``, is > 0.

A power of s therefore stands on one side only, and equality and hashing
are plain tuple comparisons.  The quotient over Q is (num/lead)/(den/lead),
whose lowest denominator coefficient is 1, the form in which 1/(1-s^2)-type
denominators are usually written: printing and evaluation divide by
``lead`` only where they read a coefficient.  It is a value type: it
compares, evaluates and prints, with no field arithmetic.

Integer polynomials, lists of int indexed by exponent with no trailing
zeros, carry the one reduction: ``RationalFunctionQi.from_integer_laurent``
takes the gcd of a quotient of integer Laurent polynomials over Z[s], by a
primitive pseudo-remainder sequence.  It takes each as a pair (low,
coeffs), s^low times a dense integer polynomial with no zero at either
end, the form in which ``witten.decode_row`` reads a packed row.  The
number type Q(i), the field operations over Q(i)(s) and their Euclidean
gcd are kept in tests/ring_reference.py as the reference for this path.

Nothing in this module rounds before a value is evaluated as a float.
"""

from __future__ import annotations

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


def _poly_str(a, lead):
    """The polynomial a / lead in s, as reports print it: each coefficient
    x / lead in lowest terms, by one integer gcd unless lead is 1.  Only a
    term's own sign can follow a joining "+", so "+-" becomes "-"."""
    out = []
    for k, x in enumerate(a):
        if not x:
            continue
        g = lead if lead == 1 else gcd(x, lead)
        term = str(x // g) if g == lead else f"{x // g}/{lead // g}"
        if k:
            pw = "s" if k == 1 else f"s^{k}"
            if x == lead:
                term = pw
            elif x == -lead:
                term = f"-{pw}"
            elif g == lead:
                term = f"{term}*{pw}"
            else:
                term = f"({term})*{pw}"
        out.append(term)
    return "+".join(out).replace("+-", "-") or "0"


def _poly_eval(a, lead, x):
    """a / lead at a complex point, by Horner's rule."""
    out = 0j
    for c in reversed(a):
        out = out * x + complex(c / lead)
    return out


# ---------------------------------------------------------------------------
# rational functions in s over Q


class RationalFunctionQi:
    """A quotient of integer polynomials in s, in the canonical form of the
    module docstring.

    The constructor stores ``num`` and ``den`` as given, so they must
    already be canonical; ``from_integer_laurent`` is the constructor that
    reduces.  The class keeps its name, by which the benchmark's tracer
    finds it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num = num
        self.den = den

    @classmethod
    def from_integer_laurent(cls, num, den):
        """The quotient of two integer Laurent polynomials, reduced over
        Z[s].  Each is a pair (low, coeffs), s^low times the integer
        polynomial ``coeffs`` with no zero at either end, as
        ``witten.decode_row`` gives it; zero is (low, []).

        The common power of s is split off, and the gcd of the rest over
        Z[s] (``zpoly_gcd``), content included, is divided out exactly with
        the sign that leaves the lowest denominator coefficient > 0: the
        canonical form.
        """
        d_low, b = den
        if not b:
            raise RationalFunctionDivisionError("division by zero rational function")
        n_low, a = num
        if not a:
            return _RF_ZERO
        g = zpoly_gcd(a, b) if len(b) > 1 else [gcd(b[0], *a)]
        if (g[0] < 0) != (b[0] < 0):
            g = [-x for x in g]
        if g != [1]:
            a, b = _zpoly_exquo(a, g), _zpoly_exquo(b, g)
        shift = n_low - d_low
        return RationalFunctionQi(
            (0,) * max(shift, 0) + tuple(a), (0,) * max(-shift, 0) + tuple(b)
        )

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RationalFunctionQi):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    @property
    def lead(self):
        """The lowest nonzero denominator coefficient, > 0: every
        coefficient of the quotient over Q is an integer over it."""
        return next(filter(None, self.den))

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) <= 1

    def as_laurent(self):
        """Return {exponent: x} if the denominator is a monomial, each
        coefficient being x / ``lead``; else None."""
        v = len(self.den) - 1
        if any(self.den[:v]):
            return None
        return {k - v: x for k, x in enumerate(self.num) if x}

    # -- numeric bridge ------------------------------------------------------

    def evaluate(self, s0):
        """Float evaluation at a complex point; errors near poles."""
        lead = self.lead
        dv = _poly_eval(self.den, lead, s0)
        nv = _poly_eval(self.num, lead, s0)
        if abs(dv) <= 1e-13 * (1.0 + abs(nv)):
            raise PoleEvaluationError(
                f"evaluation at a pole: |denominator| = {abs(dv):.3e}", abs(dv)
            )
        return nv / dv

    # -- misc ----------------------------------------------------------------

    def den_str(self):
        """The denominator as ``str`` prints it."""
        return _poly_str(self.den, self.lead)

    def __str__(self):
        lead = self.lead
        ns = _poly_str(self.num, lead)
        if len(self.den) == 1:
            return ns
        if ("+" in ns[1:]) or ("-" in ns[1:]) or ("/" in ns) or ("*" in ns):
            ns = f"({ns})"
        return f"{ns}/({_poly_str(self.den, lead)})"

    def __repr__(self):
        return f"<RationalFunctionQi {self}>"


_RF_ZERO = RationalFunctionQi(())
