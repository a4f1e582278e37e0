"""Oracles independent of this codebase: sympy for the reference gcd and
reduction over Q(i) (``ring_reference``) and the package's gcd over Z[s],
mpmath's q-Pochhammer symbol for the numeric products."""

import cmath
import random
from fractions import Fraction

import pytest

from elliptica.elliptic import EllipticParams, phi_numeric
from elliptica.ring import zpoly_gcd
from elliptica.witten import witten_char
from ring_reference import (
    RF,
    GaussianRational,
    poly_gcd,
    poly_mul,
    poly_trim,
    poly_valuation,
)


def _random_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5 else 0,
    )


def _random_poly(rng, degree):
    coeffs = [_random_gr(rng) for _ in range(degree)]
    coeffs.append(GaussianRational(rng.choice([1, 2, -3]), rng.randint(-1, 1)))
    return poly_trim(coeffs)


def _monomial(k):
    return (GaussianRational(0),) * k + (GaussianRational(1),)


def _gcd_cases(count=60):
    """Pairs s^i c f, s^j c g with a shared random factor c; i or j is
    often zero, the case where only one operand carries a power of s."""
    rng = random.Random(20261017)
    for _ in range(count):
        common = _random_poly(rng, rng.randint(0, 3))
        if rng.random() < 0.3:
            common = poly_mul(common, _monomial(rng.randint(1, 2)))
        i, j = rng.choice([(0, 0), (rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                           (rng.randint(1, 3), rng.randint(1, 3))])
        f = _random_poly(rng, rng.randint(0, 4))
        g = _random_poly(rng, rng.randint(1, 4))
        yield (poly_mul(_monomial(i), poly_mul(common, f)),
               poly_mul(_monomial(j), poly_mul(common, g)))


def _to_sympy(sympy, poly, s):
    coeffs = [sympy.Rational(c.re.numerator, c.re.denominator)
              + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
              for c in reversed(poly)]
    return sympy.Poly.from_list(coeffs or [0], s, domain=sympy.QQ_I)


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    for a, b in _gcd_cases():
        want = _to_sympy(sympy, a, s).gcd(_to_sympy(sympy, b, s)).monic()
        assert _to_sympy(sympy, poly_gcd(a, b), s) == want, (a, b)


def _integer_gcd_cases(count=80):
    """Pairs c f, c g of integer polynomials with a shared factor c; leading
    coefficients and contents other than +-1, and powers of s, included."""
    rng = random.Random(20261018)

    def poly(degree):
        coeffs = [rng.randint(-5, 5) for _ in range(degree)]
        return coeffs + [rng.choice([1, -1, 2, -2, 3, 6])]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    for _ in range(count):
        common = [0] * rng.choice([0, 0, 1]) + poly(rng.randint(0, 3))
        yield (mul(common, poly(rng.randint(0, 5))),
               mul(common, poly(rng.randint(1, 5))))


def test_zpoly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def to_sympy(a):
        return sympy.Poly.from_list(a[::-1] or [0], s, domain=sympy.ZZ)

    for a, b in _integer_gcd_cases():
        want = to_sympy(a).gcd(to_sympy(b))
        assert to_sympy(zpoly_gcd(a, b)) == want, (a, b)


def test_reduce_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    for a, b in _gcd_cases():
        f = RF(a, b)
        num = _to_sympy(sympy, f.num, s)
        den = _to_sympy(sympy, f.den, s)
        # same function, coprime parts, lowest denominator coefficient 1
        assert num * _to_sympy(sympy, b, s) == den * _to_sympy(sympy, a, s)
        assert num.gcd(den).degree() == 0
        lead = f.den[poly_valuation(f.den)]
        assert (lead.re, lead.im) == (1, 0)


# ---------------------------------------------------------------------------
# numeric products against mpmath's q-Pochhammer symbol at 40 digits

TOL = 1e-13  # relative; fixed before measuring (a probe gave 3.9e-15)

# (numerator sign, numerator half-shifted?, denominator sign, denominator
# half-shifted?): W_1 = prod (1 + q^{n-1/2} x) / (1 - q^n x), and so on
_FAMILIES = {
    1: (+1, True, +1, False),
    2: (-1, True, -1, False),
    3: (+1, False, +1, True),
    4: (-1, False, -1, True),
}


def _oracle_char(mpmath, i, xs, tau):
    """prod_x of the W_i factors through qp(a, q) = prod_{k>=0} (1 - a q^k)."""
    q = mpmath.exp(2j * mpmath.pi * tau)
    qh = mpmath.exp(1j * mpmath.pi * tau)
    nsign, nhalf, dsign, dhalf = _FAMILIES[i]
    first_num = qh if nhalf else q  # q^{n-1/2} or q^n at n = 1
    first_den = qh if dhalf else q
    out = mpmath.mpc(1)
    for x in xs:
        out *= mpmath.qp(-nsign * first_num * x, q)
        out /= mpmath.qp(dsign * first_den * x, q)
    return out


def _oracle_phi(mpmath, i, z, tau):
    s = mpmath.exp(1j * mpmath.pi * z)
    pref = {1: 1 / (1 / s - s), 2: 1 / (s + 1 / s), 3: s + 1 / s, 4: s - 1 / s}[i]
    return pref * _oracle_char(mpmath, i, (s * s, 1 / (s * s)), tau)


def _draws():
    """100 seeded (z, tau), z = u + v tau kept off the poles of all four
    quotients (at u, v in {0, 1/2} mod 1)."""
    rng = random.Random(4)
    for _ in range(100):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        z = rng.uniform(0.05, 0.45) + rng.uniform(-0.4, 0.4) * tau
        yield z, tau


def _rel(got, want):
    return abs(got - complex(want)) / abs(complex(want))


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_phi_numeric_matches_mpmath(i):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z, tau in _draws():
            got = phi_numeric(i, EllipticParams(tau=tau), z)
            want = _oracle_phi(mpmath, i, mpmath.mpc(z), mpmath.mpc(tau))
            assert _rel(got, want) < TOL


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_witten_numeric_matches_mpmath(i):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(40 + i)
    with mpmath.workdps(40):
        for z, tau in _draws():
            # eigenvalue pairs (e, 1/e) of up to three planes, e = e^{2 pi i r}
            rs = [z] + [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
                        for _ in range(rng.randint(0, 2))]
            xs = []
            for r in rs:
                e = cmath.exp(2j * cmath.pi * r)
                xs.extend((e, 1 / e))
            got = witten_char(i, xs, EllipticParams(tau=tau))
            want = _oracle_char(mpmath, i, [mpmath.mpc(x) for x in xs], mpmath.mpc(tau))
            assert _rel(got, want) < TOL
