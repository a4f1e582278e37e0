import cmath
import math
import random
import re

import pytest

from elliptica.elliptic import EllipticParams
from elliptica.witten import WittenDenominatorError, witten_char
from ring_reference import RF
from series_reference import PS, witten_series



def test_dimension_series_rank_one():
    # 1 + q^{1/2} + q + 2 q^{3/2} + ... : p-orders 0, 2, 4, 6
    ser = witten_series(1, [0], 6)
    vals = [RF.of(c).constant_value().re if c else 0 for c in ser.coeffs]
    assert vals == [1, 0, 1, 0, 1, 0, 2]


def test_empty_space_is_one():
    ser = witten_series(2, [], 4)
    assert ser.coeffs[0] == RF.one()
    assert not any(ser.coeffs[1:])
    assert witten_char(3, [], EllipticParams(tau=1j)) == 1


def test_rank_two_is_square_of_rank_one():
    order = 12
    one = PS.of(witten_series(1, [0], order))
    two = witten_series(1, [0, 0], order)
    assert two == one * one


def test_multiplicativity_exact():
    order = 10
    for i in (1, 2, 3, 4):
        a = PS.of(witten_series(i, [1, -1], order))
        b = witten_series(i, [2], order)
        ab = witten_series(i, [1, -1, 2], order)
        assert ab == a * b


def test_constant_terms():
    order = 8
    for i in (1, 2, 3, 4):
        ser = witten_series(i, [1, -1, 3], order)
        assert ser.coeffs[0] == RF.one()


def test_permutation_invariance():
    # three planes, the last far enough from |e| = 1 to be reduced
    prm = EllipticParams(tau=0.2 + 0.8j)
    xs = [1.2 + 0.1j, 0.4 - 0.2j, 2.0]
    for i in (1, 2, 3, 4):
        a = witten_char(i, xs, prm)
        b = witten_char(i, xs[::-1], prm)
        assert abs(a - b) < 1e-13 * abs(a)


def test_exact_numeric_agreement():
    rng = random.Random(6)
    for i in (1, 2, 3, 4):
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.4))
        z = complex(rng.uniform(0.05, 0.4), rng.uniform(-0.05, 0.05))
        # planes of weights 1 and 2: eigenvalues s^{+-2}, s^{+-4}
        weights = [1, 2]
        ser = witten_series(i, weights + [-w for w in weights], 60)
        s0 = cmath.exp(1j * cmath.pi * z)
        p0 = cmath.exp(0.5j * cmath.pi * tau)
        xs = [cmath.exp(2j * cmath.pi * w * z) for w in weights]
        num = witten_char(i, xs, EllipticParams(tau=tau))
        assert abs(ser.evaluate(s0, p0) - num) / abs(num) < 1e-10


def test_exact_numeric_agreement_near_branch_wrap():
    # Re tau close to 1/2: the q^{n-1/2} factors must use e^{i pi tau},
    # not a principal-branch square root of q
    tau = 0.49 + 0.9j
    z = 0.21 + 0.04j
    ser = witten_series(1, [1, -1], 60)
    s0 = cmath.exp(1j * cmath.pi * z)
    p0 = cmath.exp(0.5j * cmath.pi * tau)
    num = witten_char(1, [cmath.exp(2j * cmath.pi * z)], EllipticParams(tau=tau))
    assert abs(ser.evaluate(s0, p0) - num) / abs(num) < 1e-10


def test_vanishing_denominator_names_factor():
    # eigenvalue exactly q^{-1} makes the n = 1 denominator of W_1 vanish
    tau = 1j
    q = cmath.exp(2j * cmath.pi * tau)
    with pytest.raises(WittenDenominatorError) as err:
        witten_char(1, [1.0 / q], EllipticParams(tau=tau))
    assert err.value.n == 1


@pytest.mark.parametrize(
    "i, power, sign, n",
    [
        (1, 2, 1, 2),     # x = q^{-2}: 1 - q^2 x vanishes at n = 2
        (2, 2, -1, 2),    # x = -q^{-2}: 1 + q^2 x
        (3, 0.5, 1, 1),   # x = q^{-1/2}: 1 - q^{1/2} x at n = 1
        (4, 0.5, -1, 1),  # x = -q^{-1/2}: 1 + q^{1/2} x
        (3, 1.5, 1, 2),   # x = q^{-3/2}: 1 - q^{3/2} x at n = 2
    ],
)
def test_vanishing_denominator_at_n2_and_half_integer_powers(i, power, sign, n):
    """Poles at n = 2 and in the half-integer family q^{n-1/2}, next to a
    plane far from any pole: the guard sees each plane."""
    tau = 0.2 + 0.9j
    x = sign * cmath.exp(-2j * cmath.pi * power * tau)
    with pytest.raises(WittenDenominatorError) as err:
        witten_char(i, [0.5, x], EllipticParams(tau=tau))
    assert err.value.n == n


@pytest.mark.parametrize("x, error, terms", [
    pytest.param(math.inf, OverflowError, None, id="inf-OverflowError"),
    pytest.param(math.nan, ValueError, None, id="nan-ValueError"),
    pytest.param(math.nan, ValueError, 0, id="nan-ValueError-q0"),
    pytest.param(0.0, OverflowError, 0, id="zero-OverflowError-q0"),
])
def test_non_finite_eigenvalue_is_named(x, error, terms):
    """An eigenvalue that no power of q brings into the strip of the theta
    series is named in the error, where its log would fail bare; in the
    q -> 0 limit too, where every W_i is 1 but the eigenvalue still has to
    be one."""
    with pytest.raises(error, match=re.escape(f"{x} at |t| = {x}") + "$"):
        witten_char(1, [0.5, x], EllipticParams(tau=1j, series_terms=terms))


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_each_pole_family_raises(i):
    """W_i has its poles at r = shift + k + m tau, e = e^{2 pi i r}, with
    the shift 0, 1/2, tau/2, 1/2 + tau/2 of phi_i; for i = 1, 2 not at
    m = 0, where phi_i's pole is its prefactor's.  Within POLE_GUARD of
    each it raises, naming the vanishing factor n; 1e-6 away it does not,
    and neither does it at e = 1 for W_1 or e = -1 for W_2."""
    tau = 0.17 + 0.83j
    params = EllipticParams(tau=tau)
    shift = {1: 0, 2: 0.5, 3: tau / 2, 4: 0.5 + tau / 2}[i]
    for m in range(-3, 4):
        for k in (-1, 0, 2):
            r = shift + k + m * tau
            if not m and i < 3:
                e = cmath.exp(2j * cmath.pi * r)
                assert cmath.isfinite(witten_char(i, [e], params))
                continue
            with pytest.raises(WittenDenominatorError) as err:
                witten_char(i, [cmath.exp(2j * cmath.pi * (r + 1e-10j))], params)
            assert err.value.n == (abs(m) if i < 3 else max(m + 1, -m))
            witten_char(i, [cmath.exp(2j * cmath.pi * (r + 1e-6))], params)


def test_huge_eigenvalue_is_reduced():
    """|e| = 1e308 is e^{2 pi i r} with Im r = -113 at tau = i: reduced by
    q^{-113} in two steps of q^{-113/2}, so nothing underflows, it gives
    the character of the plane (e, 1/e) and that of (1/e, e)."""
    params = EllipticParams(tau=1j)
    for i in (1, 2, 3, 4):
        a = witten_char(i, [1e308], params)
        b = witten_char(i, [1e-308], params)
        assert cmath.isfinite(a) and a != 0
        assert abs(a - b) <= 1e-12 * abs(a)
