import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from elliptica.ring import (
    PoleEvaluationError,
    RationalFunctionDivisionError,
    RationalFunctionQi,
    zpoly_gcd,
)
from ring_reference import (
    PONE,
    RF,
    GaussianRational,
    poly_from_ints,
    poly_gcd,
    poly_mul,
    poly_trim,
)
from row_reference import dense
from series_reference import compose_power, monomial, substitute_scale

ONE = RF.one()
S = RF.var()


def test_additive_inverse_example():
    a = S / (ONE - S * S)
    b = S / (S * S - ONE)
    assert a + b == RF.zero()


def test_multiplicative_inverse_example():
    assert (ONE / S) * S == ONE


def test_gcd_reduction_example():
    # oracle: (1-s^4) = (1-s^2)(1+s^2), so the quotient is exactly 1+s^2
    num = poly_from_ints([1, 0, 0, 0, -1])
    den = poly_from_ints([1, 0, -1])
    assert poly_mul(den, poly_from_ints([1, 0, 1])) == num
    got = RF(num, den)
    assert got == ONE + S * S
    assert got.den_degree() == 0


def test_division_by_zero_function():
    with pytest.raises(RationalFunctionDivisionError):
        ONE / RF.zero()


def test_eval_examples():
    f = S / (ONE - S * S)
    assert abs(f.evaluate(2.0) - (-2.0 / 3.0)) < 1e-15
    assert ONE.evaluate(1.7 + 0.3j) == 1.0
    g = (ONE + S * S) / S
    assert abs(g.evaluate(1j)) < 1e-15


def test_eval_at_pole_carries_magnitude():
    f = ONE / (ONE - S * S)
    with pytest.raises(PoleEvaluationError) as err:
        f.evaluate(1.0)
    assert err.value.denominator_magnitude == 0.0


def test_laurent_and_negative_powers():
    f = RF.from_laurent({-1: 1, 1: -1})  # s^-1 - s
    assert f.inverse() == S / (ONE - S * S)
    assert monomial(-3) * monomial(3) == ONE


def test_compose_power():
    f = S / (ONE - S * S)
    assert compose_power(f, -1) == -f  # odd function
    g = compose_power(f, 2)
    assert g == (S * S) / (ONE - S ** 4)


def test_substitute_scale_unit():
    f = S / (ONE - S * S)
    i = GaussianRational.i()
    assert substitute_scale(f, i) == RF.constant(i) * S / (ONE + S * S)
    assert substitute_scale(f, -1) == -f


def test_canonical_string_forms():
    assert str(S / (ONE - S * S)) == "s/(1-s^2)"
    assert str(ONE + S * S) == "1+s^2"
    assert str(RF.zero()) == "0"


# -- property tests ---------------------------------------------------------

_coef = st.integers(min_value=-4, max_value=4)


def _rf(nums, dens):
    num = poly_from_ints(nums)
    den = poly_from_ints(dens)
    if not den:
        den = poly_from_ints([1])
    return RF(num, den)


rf_strategy = st.builds(
    _rf,
    st.lists(_coef, min_size=1, max_size=4),
    st.lists(_coef, min_size=1, max_size=4),
)


@settings(max_examples=120, deadline=None)
@given(rf_strategy, rf_strategy, rf_strategy)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=120, deadline=None)
@given(rf_strategy, rf_strategy)
def test_reduce_cancellation(a, b):
    # reduce(a*b)/reduce(b) = reduce(a) for nonzero b
    if not b:
        return
    assert (a * b) / b == a


def test_eval_is_homomorphism():
    rng = random.Random(7)
    for _ in range(60):
        nums = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        dens = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        a = _rf(nums, dens)
        b = _rf(dens[::-1] or [1], nums[::-1] or [1])
        s0 = complex(rng.uniform(2.0, 3.0), rng.uniform(0.5, 1.0))
        try:
            va, vb = a.evaluate(s0), b.evaluate(s0)
            vsum = (a + b).evaluate(s0)
            vprod = (a * b).evaluate(s0)
        except PoleEvaluationError:
            continue
        scale = max(1.0, abs(va), abs(vb))
        assert abs(vsum - (va + vb)) < 1e-12 * scale
        assert abs(vprod - va * vb) < 1e-12 * scale * scale


def test_gaussian_rational_basics():
    i = GaussianRational.i()
    assert i * i == GaussianRational(-1)
    x = GaussianRational(Fraction(3, 2), Fraction(-1, 2))
    assert x * x.inverse() == GaussianRational.one()
    assert str(GaussianRational(1, 1)) == "1+i"
    assert str(GaussianRational(0, -1)) == "-i"


# -- the reduction over Z[s] ------------------------------------------------


def _times(laurent, d, c):
    """A Laurent dict {exponent: int} times 1 + c s^d."""
    out = dict(laurent)
    for e, v in laurent.items():
        out[e + d] = out.get(e + d, 0) + c * v
    return out


def _product(laurent, factors):
    for d, c in factors:
        laurent = _times(laurent, d, c)
    return laurent


_LAURENT = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)
# the factors 1 + c s^d of the exact series' denominators, with c != +-1 too
_INT_FACTORS = st.lists(
    st.tuples(st.integers(-4, 4).filter(bool), st.sampled_from([-2, -1, 1, 2, 3])),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    num=_LAURENT,
    shared=_INT_FACTORS,
    own=_INT_FACTORS,
    low=st.integers(-5, 5),
    lead=st.sampled_from([1, -1, 2, -3]),
)
@example(num={}, shared=[], own=[(2, -1)], low=0, lead=1)  # zero numerator
@example(num={-2: 3, 4: 0}, shared=[], own=[], low=-3, lead=-3)  # monomial d
@example(num={0: 1}, shared=[(1, 3), (-2, -2)], own=[(3, 2)], low=1, lead=2)
def test_from_integer_laurent_matches_division(num, shared, own, low, lead):
    """The reduction over Z[s] equals the quotient over Q(i), factor by
    factor shared between numerator and denominator or not, and prints and
    evaluates as it does; it is in the integer canonical form."""
    n = _product(num, shared)
    d = _product({low: lead}, shared + own)
    got = RationalFunctionQi.from_integer_laurent(dense(n), dense(d))
    want = RF.from_laurent(n) / RF.from_laurent(d)
    assert got == want
    assert str(got) == str(want)
    s0 = 0.61 + 0.37j
    assert got.evaluate(s0) == want.evaluate(s0)
    # integer tuples without trailing zeros, coprime over Z[s] and with
    # content 1, the lowest nonzero denominator coefficient > 0
    a, b = got.num, got.den
    assert type(a) is tuple and type(b) is tuple
    assert all(type(x) is int for x in a + b)
    assert b[-1] and (not a or a[-1])
    assert gcd(*a, *b) == 1
    assert got.lead == next(x for x in b if x) > 0
    if a:
        assert poly_gcd(poly_from_ints(a), poly_from_ints(b)) == PONE
    else:
        assert b == (1,)


def test_from_integer_laurent_rejects_a_zero_denominator():
    """A zero denominator raises, whatever its power of s; a zero numerator
    over a nonzero denominator is the zero function."""
    with pytest.raises(RationalFunctionDivisionError):
        RationalFunctionQi.from_integer_laurent((0, [1]), (3, []))
    with pytest.raises(RationalFunctionDivisionError):
        RationalFunctionQi.from_integer_laurent((0, []), (0, []))
    zero = RationalFunctionQi.from_integer_laurent((5, []), (-2, [3, 0, -1]))
    assert not zero and zero == RationalFunctionQi((), (1,))


def test_zpoly_gcd_examples():
    # (2s + 3)(s^2 - 2) and (2s + 3)(3s + 1) * 4: leading coefficients
    # other than +-1, and content on one side only
    a = [-6, -4, 3, 2]
    b = [12, 44, 24]
    assert zpoly_gcd(a, b) == [3, 2]
    assert zpoly_gcd([-4, 0, -2], [6, 0, 3]) == [2, 0, 1]
    assert zpoly_gcd([0, 0, 6], [0, 4]) == [0, 2]
    assert zpoly_gcd([], [-3, -1]) == [3, 1]
    assert zpoly_gcd([], []) == []


def test_poly_gcd_monomial_fast_path():
    a = poly_from_ints([0, 0, 1, 2])  # s^2(1+2s)
    b = poly_from_ints([0, 0, 0, 5])  # 5 s^3
    g = poly_gcd(a, b)
    assert g == poly_from_ints([0, 0, 1])


def test_reduce_cancellation_gaussian_coefficients():
    i = GaussianRational.i()
    rng = random.Random(15)
    for _ in range(60):
        def rand_rf():
            nums = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 4))]
            dens = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 4))]
            num = tuple(nums)
            den = tuple(dens)
            if not poly_trim(den):
                den = (GaussianRational.one(),)
            return RF(num, den)
        a, b = rand_rf(), rand_rf()
        if not b:
            continue
        assert (a * b) / b == a
        assert substitute_scale(substitute_scale(a, i), i) == substitute_scale(a, -1)
