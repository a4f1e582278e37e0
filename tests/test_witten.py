import cmath
import math
import random
import re

import pytest

from elliptica.elliptic import EllipticParams
from elliptica.witten import WittenDenominatorError, witten_char, witten_exact
from ring_reference import RF
from series_reference import PS



def test_dimension_series_rank_one():
    # 1 + q^{1/2} + q + 2 q^{3/2} + ... : p-orders 0, 2, 4, 6
    ser = witten_exact(1, [0], 6)
    vals = [RF.of(c).constant_value().re if c else 0 for c in ser.coeffs]
    assert vals == [1, 0, 1, 0, 1, 0, 2]


def test_empty_space_is_one():
    ser = witten_exact(2, [], 4)
    assert ser.coeffs[0] == RF.one()
    assert not any(ser.coeffs[1:])
    assert witten_char(3, [], EllipticParams(tau=1j)) == 1


def test_rank_two_is_square_of_rank_one():
    order = 12
    one = PS.of(witten_exact(1, [0], order))
    two = witten_exact(1, [0, 0], order)
    assert two == one * one


def test_multiplicativity_exact():
    order = 10
    for i in (1, 2, 3, 4):
        a = PS.of(witten_exact(i, [1, -1], order))
        b = witten_exact(i, [2], order)
        ab = witten_exact(i, [1, -1, 2], order)
        assert ab == a * b


def test_constant_terms():
    order = 8
    for i in (1, 2, 3, 4):
        ser = witten_exact(i, [1, -1, 3], order)
        assert ser.coeffs[0] == RF.one()


def test_permutation_invariance():
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
        weights = [1, -1, 2]
        ser = witten_exact(i, weights, 60)
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
    ser = witten_exact(1, [1, -1], 60)
    s0 = cmath.exp(1j * cmath.pi * z)
    p0 = cmath.exp(0.5j * cmath.pi * tau)
    xs = [cmath.exp(2j * cmath.pi * w * z) for w in (1, -1)]
    num = witten_char(1, xs, EllipticParams(tau=tau))
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
    """Zeros at n = 2 and in the half-integer family q^{n-1/2}: the guard
    that is skipped when no |1 - b_n x| can be small must still see them."""
    tau = 0.2 + 0.9j
    x = sign * cmath.exp(-2j * cmath.pi * power * tau)
    with pytest.raises(WittenDenominatorError) as err:
        witten_char(i, [0.5, x], EllipticParams(tau=tau))
    assert err.value.n == n


@pytest.mark.parametrize("x, error", [(math.inf, OverflowError),
                                      (1e308, OverflowError),
                                      (math.nan, ValueError)])
def test_non_finite_eigenvalue_is_named(x, error):
    """An eigenvalue whose size overflows the product cutoff's tail bound is
    named in the error, where the log of that bound would fail bare."""
    with pytest.raises(error, match=re.escape(f"|t| = {x}") + "$"):
        witten_char(1, [x], EllipticParams(tau=1j))


def test_exact_requires_integer_weights():
    with pytest.raises(ValueError):
        witten_exact(1, [0.5], 4)
