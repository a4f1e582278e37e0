"""The theta series of EllipticParams against the product loops of
tests/numeric_reference.py: values within a relative 1e-13, the same
errors at the poles, and the same verdicts from every identity suite."""

import cmath
import math
import random
from collections import Counter

import numeric_reference as ref
import pytest

from elliptica import witten, zem
from elliptica.elliptic import EllipticParams, PoleError, phi_numeric
from elliptica.witten import WittenDenominatorError, witten_char

REL = 1e-13


def _draw_tau(rng):
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.3, 2.0))


def _outcome(fn, *args):
    """fn(*args), or the type of the guard error it raises and, for a
    Witten denominator, the factor it names."""
    try:
        return fn(*args)
    except (PoleError, WittenDenominatorError) as exc:
        return type(exc), getattr(exc, "n", None)


def _agree(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return abs(got - want) <= REL * abs(want)


def _pairs(planes):
    """The eigenvalues (e, 1/e) of each plane, as the products take them."""
    return [x for e in planes for x in (e, 1.0 / e)]


def _product(value, points):
    """prod_z value(z) over ``points``, one at a time, as the reference
    takes them."""
    out = 1.0 + 0j
    for z in points:
        out *= value(z)
    return out


@pytest.mark.parametrize("series_terms", [None, 0, 40])
def test_phi_numeric_equals_reference(series_terms):
    """The series at their own length (3 to 7 terms for these tau) and at
    40 terms against the products at theirs; cut to their constant terms,
    both are the prefactor, to the bit.  Within 1e-10 of a pole both raise
    PoleError.  The kernel on the three points at once gives the values of
    the points one by one, to the bit, so the products of the reference
    values to 1e-13 as well; with the point at the pole appended it raises
    what the reference raises.  A NaN point is a ValueError that names it."""
    rng = random.Random(20261018)
    cut = 0 if series_terms == 0 else None
    for _ in range(150):
        tau = _draw_tau(rng)
        params = EllipticParams(tau=tau, series_terms=series_terms)
        shifts = (0, 0.5, tau / 2, 0.5 + tau / 2)
        # three random points and one within 1e-10 of a pole of phi_i
        pole = rng.randint(-2, 2) + rng.randint(-2, 2) * tau + 1e-10j
        points = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6))
                  for _ in range(3)]
        for z in points + [pole]:
            for i in (1, 2, 3, 4):
                point = z + shifts[i - 1] if z is pole else z
                got = _outcome(phi_numeric, i, params, point)
                want = _outcome(ref.phi_numeric, i, tau, point, cut)
                assert got == want if cut == 0 else _agree(got, want), (i, tau, point)
                assert z is not pole or got == (PoleError, None)
        for i in (1, 2, 3, 4):
            for zs in (points, points + [pole + shifts[i - 1]]):
                got = _outcome(params.theta_product, i, zs)
                want = _outcome(_product, lambda z: ref.phi_numeric(i, tau, z, cut), zs)
                assert got == want if cut == 0 else _agree(got, want), (i, tau, zs)
                assert got == _outcome(_product, lambda z: phi_numeric(i, params, z), zs)
    with pytest.raises(ValueError, match=r"z = \(nan\+0j\)"):
        phi_numeric(1, params, math.nan)


def test_near_and_far_points_equal_reference():
    """One params object evaluated near the real axis and then far from
    it, and another in the reverse order: the coefficients depend on tau
    alone, so both orders give the same values, within 1e-13 of the
    products."""
    tau = 0.13 + 0.6j
    near, far = 0.21 + 0.01j, 0.3 + 1.4j
    planes = {near: [cmath.exp(2j * cmath.pi * near)], far: [3.0, 40.0 + 10j]}
    seen = []
    for order in ((near, far), (far, near)):
        params = EllipticParams(tau=tau)
        values = {}
        for z in order:
            for i in (1, 2, 3, 4):
                phi = phi_numeric(i, params, z)
                w = witten_char(i, planes[z], params)
                assert _agree(phi, ref.phi_numeric(i, tau, z))
                assert _agree(w, ref.witten_numeric(i, _pairs(planes[z]), tau))
                values[z, i] = phi, w
        seen.append(values)
    assert seen[0] == seen[1]


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_witten_guard_paths_equal_reference(i):
    """Eigenvalues of modulus about 1, which the products checked once for
    all, one of modulus c / |b_1| with c > 1/2, which made them check every
    denominator and which the series reduce by a power of q, and one on a
    pole, where both raise WittenDenominatorError naming the same factor."""
    rng = random.Random(i)
    paths = Counter()
    for _ in range(200):
        tau = _draw_tau(rng)
        q = cmath.exp(2j * cmath.pi * tau)
        qh = cmath.exp(1j * cmath.pi * tau)
        # b_1 is q^{1/2} or q, up to sign, as the denominators take
        # q^{n-1/2} or q^n
        b1 = qh if witten.LAYOUT[i][3] else q
        xs = [cmath.exp(2j * cmath.pi * complex(rng.uniform(0, 1),
                                                rng.uniform(-0.1, 0.1)))
              for _ in range(rng.randint(1, 6))]
        draw = rng.random()
        if draw < 0.5:
            phase = cmath.exp(2j * cmath.pi * rng.uniform(0, 1))
            xs.append(rng.uniform(0.6, 4.0) / abs(b1) * phase)
        elif draw < 0.75:
            # 1 - dsign b_n x = 0 at n = 1 or 2, or its mirror at 1/x
            n = rng.randint(1, 2)
            pole = witten.LAYOUT[i][2] / (b1 * q ** (n - 1))
            xs.append(pole if rng.random() < 0.5 else 1.0 / pole)
        big = max(max(abs(x), 1.0 / abs(x)) for x in xs)
        paths[big * abs(b1) <= 0.5] += 1
        got = _outcome(witten_char, i, xs, EllipticParams(tau=tau))
        want = _outcome(ref.witten_numeric, i, _pairs(xs), tau)
        assert _agree(got, want), (tau, xs)
    assert paths[True] and paths[False]


# K-transfer compares chi functions, which evaluate no theta quotient
WITHOUT_PRODUCTS = {"K-transfer"}


@pytest.mark.parametrize("suite", zem.SUITE_NAMES)
def test_suite_reports_equal_with_reference_products(suite, monkeypatch):
    """Every suite gives the same verdicts, failures, trial counts and
    exact checks with the products in place of the series, and residuals
    below 1e-11 either way."""

    def report():
        return zem.identity_check(suite, trials=200).to_json()

    calls = Counter()

    def product(params, i, points, planes=False):
        calls["witten" if planes else "phi"] += 1
        cut = 0 if params.terms == 0 else None
        if planes:
            return ref.witten_numeric(i, _pairs(points), params.tau, cut)
        out = 1.0 + 0j
        for z in points:
            out *= ref.phi_numeric(i, params.tau, z, cut)
        return out

    series = report()
    monkeypatch.setattr(EllipticParams, "theta_product", product)
    products = report()
    for rep in (series, products):
        assert rep["max_residual"] < 1e-11
    for key in ("passed", "failures", "trials", "exact_checks"):
        assert series.get(key) == products.get(key), key
    assert bool(calls) == (suite not in WITHOUT_PRODUCTS)
