import random

import pytest

from elliptica.qseries import PSeries, SubstitutionError
from ring_reference import RF, GaussianRational
from series_reference import (
    PS,
    Substitution,
    ps_compose_power,
    ps_invert,
    ps_substitute_t,
)

ONE = RF.one()
ZERO = RF.zero()
S = RF.var()


def series(coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    cs = list(coeffs) + [ZERO] * (order + 1 - len(coeffs))
    return PS(cs, order)


def test_mul_example():
    a = series([ONE, ZERO, ONE], 4)       # 1 + p^2
    b = series([ONE, ZERO, -ONE], 4)      # 1 - p^2
    assert a * b == series([ONE, ZERO, ZERO, ZERO, -ONE], 4)


def test_add_identity():
    a = series([S, ONE / (ONE - S)], 3)
    zero = PS.zeros(RF, 3)
    assert a + zero == a


def test_truncation_contract():
    a = series([ONE, ONE], 1)  # 1 + p
    got = a * a
    assert got.truncation_order == 1
    assert got == series([ONE, ONE + ONE], 1)  # p^2 dropped


def test_mixed_orders_take_min():
    a = PS.one(RF, 5)
    b = PS.one(RF, 3)
    assert (a * b).truncation_order == 3
    assert (a + b).truncation_order == 3


def test_invert_geometric_oracle():
    # oracle: 1/(1-x) = sum x^j with x = p^4, truncated at p^8
    a = series([ONE, ZERO, ZERO, ZERO, -ONE], 8)
    expected = series([ONE, ZERO, ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ONE], 8)
    assert ps_invert(a) == expected


def test_invert_trivia():
    assert ps_invert(PS.one(RF, 4)) == PS.one(RF, 4)
    two = PS.constant(RF.from_int(2), 0)
    assert ps_invert(two).coeffs[0] == ONE / RF.from_int(2)
    with pytest.raises(Exception):
        ps_invert(PS.zeros(RF, 2))


def test_invert_roundtrip_random():
    rng = random.Random(3)
    one8 = PS.one(RF, 8)
    for _ in range(100):
        coeffs = [RF.from_int(rng.choice([1, 2, -1, 3]))]
        for _k in range(8):
            coeffs.append(RF.from_int(rng.randint(-3, 3)) * S ** rng.randint(0, 2))
        a = PS(coeffs, 8)
        assert a * ps_invert(a) == one8


def test_substitution_examples():
    a = series([S / (ONE - S * S)], 0)
    got = ps_substitute_t(a, Substitution.neg_s())
    assert got.coeffs[0] == -(S / (ONE - S * S))

    b = series([S], 4)
    got = ps_substitute_t(b, Substitution.p_shift(4))
    assert got.coeffs[4] == S and not any(got.coeffs[:4])


def test_substitution_composition_involution():
    a = series([S / (ONE - S * S), ONE, S ** 3], 2)
    twice = ps_substitute_t(
        ps_substitute_t(a, Substitution.neg_s()), Substitution.neg_s()
    )
    assert twice == a
    inv_twice = ps_substitute_t(
        ps_substitute_t(a, Substitution.inv_s()), Substitution.inv_s()
    )
    assert inv_twice == a
    i4 = a
    for _ in range(4):
        i4 = ps_substitute_t(i4, Substitution.i_s())
    assert i4 == a


def test_p_shift_on_rational_coefficient():
    # s/(1-s^2) at p^0 under s -> p^2 s: p^2 s * sum_j p^{4j} s^{2j}
    a = series([S / (ONE - S * S)], 8)
    got = ps_substitute_t(a, Substitution.p_shift(2))
    assert got.coeffs[2] == S
    assert got.coeffs[6] == S ** 3
    assert not got.coeffs[0] and not got.coeffs[4]


def test_p_shift_negative_exponent_rejected():
    a = series([ONE / S], 4)  # s^-1 at p^0 would land at p^-m
    with pytest.raises(SubstitutionError):
        ps_substitute_t(a, Substitution.p_shift(1))


def test_p_shift_post_multipliers():
    a = series([ONE / S], 4)
    got = ps_substitute_t(a, Substitution.p_shift(2), post_p=2, post_s=1)
    # p^2 s (p^2 s)^{-1} = 1
    assert got.coeffs[0] == ONE


def test_non_rational_coefficients_rejected():
    a = PSeries([GaussianRational.one()], 0)
    with pytest.raises(SubstitutionError):
        ps_substitute_t(a, Substitution.neg_s())


def test_mul_commutative_associative_random():
    rng = random.Random(11)
    for _ in range(40):
        def rand_series():
            return PS(
                [RF.from_int(rng.randint(-2, 2)) * S ** rng.randint(0, 2)
                 for _ in range(6)],
                5,
            )
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_compose_power_acts_on_coefficients():
    a = series([S, S / (ONE - S * S)], 1)
    got = ps_compose_power(a, 2)
    assert got.coeffs[0] == S * S
    assert got.coeffs[1] == (S * S) / (ONE - S ** 4)


def test_json_rendering():
    a = series([S / (ONE - S * S), ONE], 1)
    js = a.to_json()
    assert js == {"truncation_order": 1, "coeffs": ["s/(1-s^2)", "1"]}
