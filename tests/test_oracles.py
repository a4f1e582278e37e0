"""Oracles independent of this codebase: sympy for the reference gcd and
reduction over Q(i) (``ring_reference``) and the package's gcd over Z[s],
mpmath's q-Pochhammer symbol and Jacobi theta functions for the numeric
theta quotients and Witten characters."""

import cmath
import random
from fractions import Fraction

import pytest

from elliptica import zem
from elliptica.elliptic import EllipticParams, phi_numeric, theta_term
from elliptica.ring import zpoly_gcd
from elliptica.spinchar import RotationData
from elliptica.witten import laurent_sum, regrade, witten_char
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
            # up to three planes, e = e^{2 pi i r}, the other eigenvalue 1/e
            rs = [z] + [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
                        for _ in range(rng.randint(0, 2))]
            planes = [cmath.exp(2j * cmath.pi * r) for r in rs]
            got = witten_char(i, planes, EllipticParams(tau=tau))
            xs = [mpmath.mpc(x) for e in planes for x in (e, 1 / e)]
            want = _oracle_char(mpmath, i, xs, mpmath.mpc(tau))
            assert _rel(got, want) < TOL


def _theta_phi(mpmath, i, z, tau):
    """phi_i from mpmath's Jacobi theta functions, with nome e^{i pi tau}
    and q^{1/8} = e^{i pi tau / 4}: phi_1 = i q^{1/8} th3/th1,
    phi_2 = q^{1/8} th4/th2, phi_3 = q^{-1/8} th2/th4 and
    phi_4 = i q^{-1/8} th1/th3.  No product has to converge, so it holds
    for tau near the real axis too."""
    nome = mpmath.exp(1j * mpmath.pi * tau)
    q8 = mpmath.exp(1j * mpmath.pi * tau / 4)
    a, b, c = {1: (3, 1, 1j * q8), 2: (4, 2, q8), 3: (2, 4, 1 / q8),
               4: (1, 3, 1j / q8)}[i]
    return (c * mpmath.jtheta(a, mpmath.pi * z, nome)
            / mpmath.jtheta(b, mpmath.pi * z, nome))


def _prefactor(i, s):
    return {1: 1 / (1 / s - s), 2: 1 / (s + 1 / s), 3: s + 1 / s, 4: s - 1 / s}[i]


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_phi_numeric_far_from_the_real_axis(i):
    """phi_i at z + m tau for |m| up to 100, against mpmath at that float
    point, and against (-1)^m phi_i(z).  Reducing z + m tau rounds at the
    size of m tau, which costs up to two digits at |m| = 100, so the
    tolerance grows with |m|."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(50 + i)
    with mpmath.workdps(40):
        for z, tau in list(_draws())[:12]:
            params = EllipticParams(tau=tau)
            base = phi_numeric(i, params, z)
            for m in (-100, -37, -2, -1, 1, 3, rng.randint(4, 99), 100):
                point = z + m * tau
                got = phi_numeric(i, params, point)
                want = _theta_phi(mpmath, i, mpmath.mpc(point), mpmath.mpc(tau))
                assert _rel(got, want) < TOL * (1 + abs(m)), (z, tau, m)
                assert _rel(got, (-1) ** m * base) < TOL * (1 + abs(m))


@pytest.mark.parametrize("a", [1, 2, 3])
def test_regraded_theta_term_matches_mpmath(a):
    """phi_1(a z) under s -> p^2 s as ``regrade`` builds it, its divided
    factors flipped where they land below p^0 (a >= 2), summed to p^40 at
    s = e^{i pi z} and p = e^{i pi tau / 2}: mpmath's phi_1(a (z + tau))."""
    mpmath = pytest.importorskip("mpmath")
    tau = 0.1 + 1j
    series = laurent_sum(40, [regrade(theta_term(1, (a,), 40 + 4 * a), 2, 40)])
    with mpmath.workdps(40):
        for z in (0.13 + 0.02j, 0.31 - 0.05j):
            got = series.evaluate(cmath.exp(1j * cmath.pi * z), EllipticParams(tau).p)
            want = _theta_phi(mpmath, 1, a * mpmath.mpc(z + tau), mpmath.mpc(tau))
            assert _rel(got, want) < TOL, z


def _flip_not_inverted(term, m, order):
    """``regrade`` with the s-power of each divided factor's flip monomial
    c p^{-e'} s^{-d} not inverted: c p^{-e'} s^d."""
    num, den, (p_pow, s_pow, sign) = regrade(term, m, order)
    for e, d, _ in term[1]:
        if e + m * d < 0:
            s_pow += 2 * d
    return num, den, (p_pow, s_pow, sign)


def test_divided_flip_needs_its_inverted_monomial(monkeypatch):
    """Negative control: with that monomial corrupted, the full period of
    phi_1(2 z) and phi_1(3 z), whose divided factors flip (phi_1's own land
    at p^0 or above), fails at p^0, and so does the exact Z-periodicity on
    (1, 2, 3); undone, both pass."""

    def checks():
        firsts = [zem._z_period_first_diff(RotationData((a,), 1), 2, 0, 40)
                  for a in (2, 3)]
        return firsts, zem._z_periodicity_exact([1, 2, 3], 16)["gamma_plus_tau_ok"]

    monkeypatch.setattr(zem, "regrade", _flip_not_inverted)
    assert checks() == ([0, 0], False)
    monkeypatch.undo()
    assert checks() == ([None, None], True)


def test_far_point_refused_by_its_distance_to_the_pole():
    """z = 1e-9 + 60j at tau = i reduces to 1e-9 with a rounding error of
    about 1e-14: phi_2, phi_3 and phi_4, whose poles lie 1/2 or more away,
    keep their digits there; at 1e-6 + 1e4j, phi_1 would lose them to its
    pole at 0, 1e-6 away, and is refused."""
    mpmath = pytest.importorskip("mpmath")
    params, z = EllipticParams(tau=1j), 1e-9 + 60j
    with mpmath.workdps(40):
        for i in (2, 3, 4):
            want = _theta_phi(mpmath, i, mpmath.mpc(z), mpmath.mpc(1j))
            assert _rel(phi_numeric(i, params, z), want) < TOL * 61
    with pytest.raises(ValueError, match="half of its digits"):
        phi_numeric(1, params, 1e-6 + 1e4j)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_witten_char_at_plus_minus_one_and_far_out(i):
    """W_i on one plane at e = 1 and e = -1, where the prefactors of phi_i
    vanish or have their poles and the series must not divide 0 by 0, and
    at |e| = |q|^x for x up to 5 either way, which the character route of
    Z reaches and which the series reduce by a power of q; then all of
    them on one representation."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(60 + i)
    with mpmath.workdps(40):
        for _, tau in list(_draws())[:25]:
            params = EllipticParams(tau=tau)
            planes = [1.0, -1.0] + [
                cmath.exp(2j * cmath.pi * (rng.uniform(0, 1) + rng.uniform(-5, 5) * tau))
                for _ in range(4)
            ]
            for group in [[e] for e in planes] + [planes]:
                got = witten_char(i, group, params)
                xs = [mpmath.mpc(x) for e in group for x in (e, 1 / e)]
                want = _oracle_char(mpmath, i, xs, mpmath.mpc(tau))
                assert _rel(got, want) < TOL, (tau, group)


@pytest.mark.parametrize(
    "tau", [complex(re, im) for re in (-0.49, 0.49) for im in (1e-3, 0.5, 2.0)]
)
def test_theta_quotients_near_the_edges_of_tau(tau):
    """phi_i and W_i at Re tau = +-0.49, where e^{i pi tau} sits next to
    the branch cut of a principal root of q, from Im tau = 1e-3 (about 130
    series terms) to 2, against mpmath's theta functions."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(str(tau))
    params = EllipticParams(tau=tau)
    with mpmath.workdps(40):
        for _ in range(10):
            z = rng.uniform(0.05, 0.45) + rng.uniform(-0.45, 0.45) * tau
            s = mpmath.exp(1j * mpmath.pi * mpmath.mpc(z))
            for i in (1, 2, 3, 4):
                want = _theta_phi(mpmath, i, mpmath.mpc(z), mpmath.mpc(tau))
                assert _rel(phi_numeric(i, params, z), want) < TOL, (i, z)
                got = witten_char(i, [cmath.exp(2j * cmath.pi * z)], params)
                assert _rel(got, want / _prefactor(i, s)) < TOL, (i, z)


def _theta_char(mpmath, i, e, tau):
    """W_i on the plane (e, 1/e) from mpmath's theta functions: with
    P(t) = 2 q^{1/8} sin(pi r) th3(r)/th1(r) at t = e^{2 pi i r}, the
    product A(t)/B(t), and 2 q^{1/8} th3(0)/th1'(0) at t = 1, W_1..W_4 are
    P(e), P(-e), 1/P(-e) and 1/P(e)."""
    nome = mpmath.exp(1j * mpmath.pi * tau)
    q8 = mpmath.exp(1j * mpmath.pi * tau / 4)

    def p(t):
        if t == 1:
            return 2 * q8 * mpmath.jtheta(3, 0, nome) / mpmath.jtheta(1, 0, nome, 1)
        x = mpmath.log(t) / 2j
        return 2 * q8 * mpmath.sin(x) * mpmath.jtheta(3, x, nome) / mpmath.jtheta(1, x, nome)

    return {1: p(e), 2: p(-e), 3: 1 / p(-e), 4: 1 / p(e)}[i]


@pytest.mark.parametrize(
    "tau", [0.03j, 0.01j, 0.3 + 0.01j, 1 / 3 + 2e-3j, 0.39 + 2e-3j, 0.1 + 0.1j]
)
def test_theta_quotients_near_the_real_axis(tau):
    """Where |q| > 1/2 the series are summed at a modular image of tau:
    phi_i at points across the strip and a period out, and W_i there and at
    e = +-1, against mpmath's theta functions.  th_3 maps to th_3 at the
    image of all but 1/3 + 2e-3 i (th_2) and 0.39 + 2e-3 i (th_4).  Near
    the real axis jtheta's own sums cancel (th4(0) is 1e-34 of its terms
    at 0.01j), so the oracle runs at 60 digits.  The kernel on all eight
    points at once, and on all their planes, gives the products of the
    oracle's values, to TOL per factor."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(str(tau))
    params = EllipticParams(tau=tau)
    products = {i: ([], 1, [], 1) for i in (1, 2, 3, 4)}
    with mpmath.workdps(60):
        for _ in range(8):
            z = rng.uniform(0.05, 0.45) + rng.uniform(-0.45, 0.45) * tau
            for i in (1, 2, 3, 4):
                points, phis, planes, chars = products[i]
                point = z + rng.choice((-1, 0, 1)) * tau
                want = _theta_phi(mpmath, i, mpmath.mpc(point), mpmath.mpc(tau))
                assert _rel(phi_numeric(i, params, point), want) < TOL, (i, point)
                points.append(point)
                phis *= want
                for e in (cmath.exp(2j * cmath.pi * z), 1.0, -1.0):
                    want = _theta_char(mpmath, i, mpmath.mpc(e), mpmath.mpc(tau))
                    assert _rel(witten_char(i, [e], params), want) < TOL, (i, e)
                    planes.append(e)
                    chars *= want
                products[i] = points, phis, planes, chars
        for i, (points, phis, planes, chars) in products.items():
            assert _rel(params.theta_product(i, points), phis) < TOL * len(points), i
            assert _rel(witten_char(i, planes, params), chars) < TOL * len(planes), i
