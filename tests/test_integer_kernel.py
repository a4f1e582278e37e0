"""The integer Laurent kernel against the slow paths it replaced, kept here
as references: the rational-function regrading ``ps_substitute_t`` on
``RationalFunctionQi`` series, and the GaussianRational-accumulating
product engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica.elliptic import (
    _phi1_halfshifted,
    composed_fullperiod_headroom,
    halfperiod_headroom,
    phi_exact,
)
from elliptica.qseries import (
    PSeries,
    Substitution,
    SubstitutionError,
    ps_compose_power,
    ps_substitute_t,
    regrade_rows,
    series_from_rows,
)
from elliptica.ring import GaussianRational, RationalFunctionQi
from elliptica.witten import (
    divide_factor,
    laurent_product,
    laurent_rows,
    witten_factors,
)


@pytest.mark.parametrize("order", [0, 1, 5, 16, 24])
def test_phi1_halfshifted_matches_series_regrade(order):
    deep = phi_exact(1, halfperiod_headroom(order))
    ref = ps_substitute_t(deep, Substitution.p_shift(1)).truncate(order)
    assert _phi1_halfshifted(order) == ref


def test_phi1_halfshift_headroom_is_load_bearing():
    """Negative control: the same regrade fed rows only as deep as the
    output order misses tail rows that land low."""
    order = 16
    rows = laurent_rows(order, *witten_factors(1, (1, -1), order))
    shallow = regrade_rows(rows, 1, order, post_p=1, post_s=1)
    divide_factor(shallow, 2, 2, -1)
    assert series_from_rows(shallow) != _phi1_halfshifted(order)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("part", [0, 1])
def test_row_regrade_of_parts_matches_series_regrade(a, part):
    """The regrades of the full-period check (N: part 0, D: part 1) with the
    post arguments of fullperiod_parts_check at a, against ps_substitute_t
    on the composed RationalFunctionQi series."""
    order = 8
    deep = composed_fullperiod_headroom(a, order)
    factors = witten_factors(1, (1, -1), deep)[part]
    post_p = 2 * a * a if part == 0 else 2 * a * (a - 1)
    sign = -1 if part == 1 and a % 2 else 1
    rows = [{a * d: c for d, c in row.items()} for row in laurent_rows(deep, factors)]
    got = regrade_rows(rows, 2, order, post_p=post_p, post_s=2 * a * a, sign=sign)
    series = ps_compose_power(laurent_product(deep, factors), a)
    ref = ps_substitute_t(
        series, Substitution.p_shift(2), post_p=post_p, post_s=2 * a * a,
        post_scale=sign,
    ).truncate(order)
    assert series_from_rows(got) == ref


def test_regrade_rows_rejects_negative_landing():
    rows = [{}, {-2: 1}]  # p s^-2 lands at p^-1 under s -> p s
    with pytest.raises(SubstitutionError):
        regrade_rows(rows, 1, 1)
    with pytest.raises(SubstitutionError):
        ps_substitute_t(series_from_rows(rows), Substitution.p_shift(1))
    assert regrade_rows(rows, 1, 1, post_p=1) == [{-2: 1}, {}]


def _reference_product(order, numerator, denominator):
    """The product engine as it was: Laurent dicts over Q(i), accumulated
    with GaussianRational arithmetic."""
    ls = [dict() for _ in range(order + 1)]
    ls[0][0] = GaussianRational.one()

    def accum(dst, src, d, c):
        for e, v in src.items():
            dst[e + d] = dst.get(e + d, GaussianRational.zero()) + v * c

    for e, d, c in numerator:
        for k in range(order, e - 1, -1):
            accum(ls[k], ls[k - e], d, c)
    for e, d, c in denominator:
        for k in range(e, order + 1):
            accum(ls[k], ls[k - e], d, -c)
    coeffs = [
        RationalFunctionQi.from_laurent({e: v for e, v in slot.items() if v})
        for slot in ls
    ]
    return PSeries(coeffs, order)


_FACTOR = st.tuples(
    st.integers(1, 12), st.integers(-6, 6), st.sampled_from([-2, -1, 1, 3])
)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(0, 10),
    numerator=st.lists(_FACTOR, max_size=5),
    denominator=st.lists(_FACTOR, max_size=5),
)
def test_laurent_product_matches_gaussian_reference(order, numerator, denominator):
    got = laurent_product(order, numerator, denominator)
    assert got == _reference_product(order, numerator, denominator)
