"""The integer Laurent kernel against the slow paths it replaced, kept as
references: the rational-function regrading ``ps_substitute_t`` on
``RationalFunctionQi`` series (in ``series_reference``), the dict rows
(``row_reference``) that the packed rows replaced, and, here, the
GaussianRational-accumulating product engine."""

import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptica import elliptic, witten, zem
from elliptica.elliptic import (
    TRANSLATIONS,
    _phi1_halfshifted,
    _phi_term,
    _regraded_term,
    fullperiod_parts_check,
    phi_exact,
    phi_translate_check,
)
from elliptica.fixedpoint import (
    TwistSpec,
    equivariant_index,
    load_manifold,
    rigidity_check,
)
from elliptica.qseries import PSeries, SubstitutionError
from elliptica.ring import RationalFunctionQi
from elliptica.spinchar import RotationData
from elliptica.witten import (
    decode_row,
    fraction_difference,
    laurent_fraction,
    laurent_rows,
    laurent_sum,
    regrade_factors,
    row_layout,
    unit_substitute,
    witten_exact,
    witten_factors,
)
from elliptica.zem import LatticeElement, em_eps_exact, z_exact, z_term
import row_reference
from ring_reference import RF, GaussianRational
from series_reference import (
    PS,
    Substitution,
    monomial,
    ps_compose_power,
    ps_substitute_t,
    shift_p,
)


@pytest.mark.parametrize("order", [0, 1, 5, 16, 24])
def test_phi1_halfshifted_matches_series_regrade(order):
    deep = phi_exact(1, 2 * order + 6)
    ref = ps_substitute_t(deep, Substitution.p_shift(1)).truncate(order)
    assert laurent_sum(order, [_phi1_halfshifted(order)]) == ref


def test_phi1_halfshift_headroom_is_load_bearing():
    """Negative control: W_1 factors taken only to the output order miss
    the factor 1 + p^18 s^-2, whose image lands at p^16 (p^17 with the
    prefactor), so the factor list must reach order + 2."""
    order = 17
    num, den = witten_factors(1, (1, -1), order)
    term = _regraded_term(1, order, num, den + [(0, 2, -1)], post=(1, 1, 1))
    assert laurent_sum(order, [term]) != laurent_sum(order, [_phi1_halfshifted(order)])


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("part", [0, 1])
def test_row_regrade_of_parts_matches_series_regrade(a, part):
    """The regraded factor rows of the full-period check (N: part 0, D: part
    1), with the monomials of fullperiod_parts_check at a, against
    ps_substitute_t on the composed RationalFunctionQi series, at an input
    depth that doubling shows to be enough."""
    order = 8
    post_p = 2 * a * a if part == 0 else 2 * a * (a - 1)
    sign = -1 if part == 1 and a % 2 else 1

    def series_regrade(depth):
        factors = witten_factors(1, (1, -1), depth)[part]
        series = ps_compose_power(laurent_sum(depth, [(factors, (), (0, 0, 1))]), a)
        return ps_substitute_t(
            series, Substitution.p_shift(2), post_p=post_p, post_s=2 * a * a,
        ).scale(RF.constant(sign)).truncate(order)

    deep = 2 * order + 10 * a * a
    ref = series_regrade(deep)
    assert series_regrade(2 * deep) == ref
    factors = witten_factors(1, (1, -1), order + 4 * a)[part]
    factors = [(e, a * d, c) for e, d, c in factors]
    got = _regraded_term(2, order, factors, post=(post_p, 2 * a * a, sign))
    assert laurent_sum(order, [got]) == ref


def test_regrade_factors_flips_negative_exponent():
    # 1 + s^-2 under s -> p s is 1 + p^-2 s^-2 = p^-2 s^-2 (1 + p^2 s^2)
    assert regrade_factors([(0, -2, 1)], 1, 5) == ((-2, -2, 1), [(2, 2, 1)])
    assert regrade_factors([(1, -2, -1)], 1, 5) == ((-1, -2, -1), [(1, 2, -1)])
    # factors landing above the order are 1 + O(p^{order+1}); a flipped
    # one still leaves its monomial
    assert regrade_factors([(4, 2, 1), (0, -9, 1)], 1, 5) == ((-9, -9, 1), [])


def test_regrade_rejects_negative_landing():
    # p s^-2 lands at p^-1 under s -> p s
    series = PSeries([RF.zero(), monomial(-2)])
    with pytest.raises(SubstitutionError):
        ps_substitute_t(series, Substitution.p_shift(1))
    # a divided factor cannot be flipped, nor divided at p^0
    with pytest.raises(SubstitutionError):
        regrade_factors([(1, -2, 1)], 1, 5, divided=True)
    with pytest.raises(SubstitutionError):
        regrade_factors([(2, -2, 1)], 1, 5, divided=True)
    with pytest.raises(SubstitutionError):
        regrade_factors([(1, -2, 3)], 1, 5)  # the flip needs c = +-1


@pytest.mark.parametrize(
    "a, mutate",
    [(1, lambda p, s, sign: (0, 0, sign)),
     (3, lambda p, s, sign: (0, 0, sign)),
     (2, lambda p, s, sign: (p, s, 1))],
    ids=["a1-no-monomial", "a3-no-monomial", "a2-no-sign"],
)
def test_parts_check_needs_the_flip_monomial(monkeypatch, a, mutate):
    """Negative control: dropping the flip's monomial (or, where the flips
    carry c = -1, its sign) makes the full-period check fail."""
    assert fullperiod_parts_check(a, 16) is None

    def broken(factors, m, order, divided=False):
        monomial, out = regrade_factors(factors, m, order, divided)
        return mutate(*monomial), out

    monkeypatch.setattr(elliptic, "regrade_factors", broken)
    assert fullperiod_parts_check(a, 16) is not None


def _reference_product(order, numerator, denominator):
    """The product engine as it was: Laurent dicts over Q(i), accumulated
    with GaussianRational arithmetic."""
    ls = [dict() for _ in range(order + 1)]
    ls[0][0] = GaussianRational.one()

    def accum(dst, src, d, c):
        for e, v in list(src.items()):
            dst[e + d] = dst.get(e + d, GaussianRational.zero()) + v * c

    for e, d, c in numerator:
        for k in range(order, e - 1, -1):
            accum(ls[k], ls[k - e], d, c)
    for e, d, c in denominator:
        for k in range(e, order + 1):
            accum(ls[k], ls[k - e], d, -c)
    coeffs = [
        RF.from_laurent({e: v for e, v in slot.items() if v})
        for slot in ls
    ]
    return PSeries(coeffs, order)


def _reference_sum(order, terms):
    """sum over terms of monomial * product / (its e = 0 denominator
    factors), with the e = 0 factors as rational functions and the series
    added over unlike denominators."""
    out = PS.zeros(RF, order)
    for numerator, denominator, (p_pow, s_pow, sign) in terms:
        if p_pow > order:
            continue
        scale = monomial(s_pow, sign)
        for e, d, c in denominator:
            if not e:
                scale = scale / RF.from_laurent({0: 1, d: c})
        product = _reference_product(
            order, numerator, [f for f in denominator if f[0]]
        )
        out = out + shift_p(product, p_pow).scale(scale)
    return out


_FACTOR = st.tuples(
    st.integers(1, 12), st.integers(-6, 6), st.sampled_from([-2, -1, 1, 3])
)
# factors without p: in a denominator they stay in the common s-denominator
_S_FACTOR = st.tuples(
    st.just(0), st.integers(-4, 4).filter(bool), st.sampled_from([-2, -1, 1, 3])
)
_TERM = st.tuples(
    st.lists(st.one_of(_FACTOR, _S_FACTOR), max_size=4),
    st.lists(st.one_of(_FACTOR, _S_FACTOR), max_size=4),
    st.tuples(st.integers(-1, 4), st.integers(-6, 6), st.sampled_from([-1, 1])),
)


@settings(max_examples=80, deadline=None)
@given(order=st.integers(0, 10), terms=st.lists(_TERM, max_size=3))
def test_laurent_product_matches_gaussian_reference(order, terms):
    """laurent_sum on several terms, with p-free denominator factors and
    monomials carrying p-powers, against the reference; a monomial below
    p^0 cannot be held by the rows and raises."""
    if any(p_pow < 0 for _, _, (p_pow, _, _) in terms):
        with pytest.raises(SubstitutionError):
            laurent_sum(order, terms)
        return
    assert laurent_sum(order, terms) == _reference_sum(order, terms)


# wide coefficients, negative s-exponents and p-free factors on both sides
_WIDE_C = st.integers(-10**6, 10**6).filter(bool)
_WIDE_FACTOR = st.tuples(st.integers(1, 9), st.integers(-7, 7), _WIDE_C)
_WIDE_S_FACTOR = st.tuples(st.just(0), st.integers(-5, 5).filter(bool), _WIDE_C)
_WIDE_TERM = st.tuples(
    st.lists(st.one_of(_WIDE_FACTOR, _WIDE_S_FACTOR), max_size=4),
    st.lists(st.one_of(_WIDE_FACTOR, _WIDE_S_FACTOR), max_size=3),
    st.tuples(st.integers(0, 6), st.integers(-8, 8), st.sampled_from([-1, 1])),
)


def _negated(terms, factor=None):
    """-1 times each term; with a p-free ``factor``, written as the term
    times factor / factor, so that it cancels only over the common
    denominator."""
    extra = [factor] if factor else []
    return [
        ([*num, *extra], [*den, *extra], (p_pow, s_pow, -sign))
        for num, den, (p_pow, s_pow, sign) in terms
    ]


def _decoded(order, terms):
    """The packed ``laurent_fraction`` of ``terms`` as the reference gives
    it: (dict rows, denominator row)."""
    rows, den, layout = laurent_fraction(order, terms)
    (den_row,) = row_reference.laurent_rows(0, [(0, d, c) for d, c in den.elements()])
    return [decode_row(row, layout) for row in rows], den_row


@settings(max_examples=120, deadline=None)
@given(
    order=st.integers(0, 12),
    terms=st.lists(_WIDE_TERM, max_size=3),
    cancelled=st.lists(_WIDE_TERM, min_size=1, max_size=2),
    factor=_WIDE_S_FACTOR,
)
def test_packed_rows_match_dict_reference(order, terms, cancelled, factor):
    """Packed rows decode to the reference's dict rows: |c| up to 10^6,
    negative s-exponents, p-free factors in numerators and denominators,
    monomials with p-powers, terms that share their factors and are
    expanded together, and terms that cancel to all-zero rows only once
    they share one denominator."""
    zero = cancelled + _negated(cancelled, factor)
    got = _decoded(order, zero)
    assert got == row_reference.laurent_fraction(order, zero)
    assert got[0] == [{}] * (order + 1)
    shared = [(num, den, (p + 1, s - 2, sign)) for num, den, (p, s, sign) in terms]
    terms = terms + shared + zero
    assert _decoded(order, terms) == row_reference.laurent_fraction(order, terms)


def test_cp3_rigidity_terms_cancel_to_zero_rows():
    """The tangent-Witten terms of cp3 cancel across its four points: every
    packed row of the sum is 0, as in the reference."""
    terms = [z_term(pt.weights, 16) for pt in load_manifold("cp3").points]
    got = _decoded(16, terms)
    assert got == row_reference.laurent_fraction(16, terms)
    assert got[0] == [{}] * 17


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_deep_phi_matches_dict_reference(i):
    """phi_exact at p^160, whose rows are hundreds of digits wide, equals
    the reference's dict rows reduced the same way."""
    rows, den = row_reference.laurent_fraction(160, [_phi_term(i, 160)])
    want = PSeries(
        [RationalFunctionQi.from_integer_laurent(row, den) for row in rows], 160
    )
    assert phi_exact(i, 160) == want


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(0, 10),
    left=st.lists(_WIDE_TERM, min_size=1, max_size=2),
    extra=st.lists(_WIDE_TERM, max_size=1),
    unit=st.integers(0, 3),
)
def test_fraction_difference_matches_dict_reference(order, left, extra, unit):
    """The first p-order at which i^unit times one sum and another differ,
    on packed rows, is the reference's.  The right side is the left one
    (negated for unit 2) plus the extra terms, so for even unit the sides
    agree below the first row of the extra terms."""
    right = (_negated(left) if unit == 2 else left) + extra
    want = row_reference.fraction_difference(
        row_reference.laurent_fraction(order, left),
        row_reference.laurent_fraction(order, right),
        unit,
    )
    assert fraction_difference(order, left, right, unit) == want


_EVEN_TERM = _WIDE_TERM.map(
    lambda t: ([(e, 2 * d, c) for e, d, c in t[0]],
               [(e, 2 * d, c) for e, d, c in t[1]], t[2])
)


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(0, 10),
    left=_EVEN_TERM,
    k=st.integers(0, 3),
    right=st.one_of(st.none(), _EVEN_TERM),
    unit=st.integers(0, 3),
)
def test_unit_difference_matches_dict_reference(order, left, k, right, unit):
    """s -> i^k s on the factors, compared on packed rows, against the
    reference's substitution on dict rows; ``right`` None stands for the
    left side's own image, which matches at every order."""
    if right is None:
        unit, right = unit_substitute(left, k)
        assert witten.unit_difference(order, left, k, right, unit) is None
    want = row_reference.unit_difference(order, left, k, right, unit)
    assert witten.unit_difference(order, left, k, right, unit) == want


@pytest.mark.parametrize("factor", [(0, 2, -1), (-1, 2, -1)])
def test_divided_factor_needs_a_positive_p_exponent(factor):
    """A divided factor at e <= 0 has no geometric series in p; the error
    names the factor."""
    e, d, c = factor
    with pytest.raises(SubstitutionError, match=re.escape(f"(1 + {c} p^{e} s^{d})")):
        row_layout(4, [([], [factor], [(0, 0, 1)])])


def test_unit_substitute_scales_each_entry():
    """The reference's s -> i^k s on dict rows: s -> -s multiplies s^d by
    (-1)^d; s -> i s by i^d, with i^r factored out for the common parity r
    of the exponents."""
    unit_substitute = row_reference.unit_substitute
    rows = [{1: 1, 3: 2, -1: 5}, {}, {5: -7}]
    assert unit_substitute(rows, 2) == (0, [{1: -1, 3: -2, -1: -5}, {}, {5: 7}])
    assert unit_substitute(rows, 1) == (1, [{1: 1, 3: -2, -1: -5}, {}, {5: -7}])
    assert unit_substitute([{0: 1, 2: 3, -2: 4}], 1) == (0, [{0: 1, 2: -3, -2: -4}])


def _unit_image(order, term, k):
    """The term under s -> i^k s as the exact checks take it: i^j times the
    ``laurent_sum`` of the substituted factors of ``unit_substitute``."""
    j, image = unit_substitute(term, k)
    unit = RF.constant(GaussianRational.i() ** j)
    return PS.of(laurent_sum(order, [image])).scale(unit)


def _phi1(order):
    return _phi_term(1, order)


def _z(entries, nu):
    return lambda order: z_term(entries, order, nu)


_UNIT_CASES = {  # the left side of each unit check: (term, k, reference rule)
    "z+1": (_phi1, 2, Substitution.neg_s()),
    "z+1/2": (_phi1, 1, Substitution.i_s()),
    "z+1/2+tau/2": (_phi1_halfshifted, 1, Substitution.i_s()),
    "Z(1,2,3)-neg_s": (_z((1, 2, 3), 1), 2, Substitution.neg_s()),
    "Z(2,-1)-neg_s": (_z((2, -1), -1), 2, Substitution.neg_s()),
    "Z(1,2,3)-i_s": (_z((1, 2, 3), 1), 1, Substitution.i_s()),
    "Z(2,-1)-i_s": (_z((2, -1), -1), 1, Substitution.i_s()),
}


@pytest.mark.parametrize("order", [0, 1, 5, 16, 24])
@pytest.mark.parametrize("case", list(_UNIT_CASES))
def test_unit_substituted_rows_match_series_substitution(case, order):
    """The substituted factors of each unit check, expanded and reduced,
    against ps_substitute_t on the reduced series of the same term."""
    term, k, rule = _UNIT_CASES[case]
    ref = ps_substitute_t(laurent_sum(order, [term(order)]), rule)
    assert _unit_image(order, term(order), k) == ref


def _translation(which, order=24):
    return lambda: phi_translate_check(which, order).first_failing_exponent


def _z_gamma_plus_one():
    return zem._z_exact_gamma_plus_one(RotationData((1, 2), 1), 16)


_unit_substitute = witten.unit_substitute
_epsilon_J = zem.epsilon_J
_NEGATIVE_CONTROLS = {  # name: (mutation, check, what the mutated check gives)
    "z+1/2-against-phi1": (
        lambda mp: mp.setitem(elliptic._UNIT_CHECKS, "z+1/2",
                              (False, 1, (1, 1, 0), "")),
        _translation("z+1/2"), 0,
    ),
    "factored-i-dropped": (
        lambda mp: mp.setattr(witten, "unit_substitute",
                              lambda term, k: (0, _unit_substitute(term, k)[1])),
        _translation("z+1/2"), 0,
    ),
    "phi4-without-p-shift": (
        lambda mp: mp.setitem(elliptic._UNIT_CHECKS, "z+1/2+tau/2",
                              (True, 1, (4, 1, 0), "")),
        _translation("z+1/2+tau/2"), 0,
    ),
    "Z-wrong-epsilon": (
        lambda mp: mp.setattr(zem, "epsilon_J", lambda J: -_epsilon_J(J)),
        _z_gamma_plus_one, 0,
    ),
    "i-on-mixed-parity": (
        lambda mp: None,
        lambda: unit_substitute(([(1, 3, 1)], [], (0, 0, 1)), 1), SubstitutionError,
    ),
}


@pytest.mark.parametrize(
    "mutate, check, expected", _NEGATIVE_CONTROLS.values(), ids=list(_NEGATIVE_CONTROLS)
)
def test_row_checks_negative_controls(monkeypatch, mutate, check, expected):
    """Each row check passes as it stands and fails at the stated p-order
    once one ingredient is wrong; s -> i s refuses a factor with an odd
    s-exponent, whose rows would have s-exponents of both parities, so that
    no single power of i factors out."""
    mutate(monkeypatch)
    if expected is SubstitutionError:
        with pytest.raises(SubstitutionError):
            check()
        return
    assert check() == expected
    monkeypatch.undo()
    assert check() is None


def test_exact_checks_reduce_no_rational_function():
    """All five translation checks and the exact Z-periodicity run on
    integer rows, and the exact series built on ``laurent_sum`` (phi_exact,
    rigidity, an index, em_eps) reduce over Z[s]; the package has no gcd
    over Q(i) (``test_layering``).  The checks pass, phi_exact matches the
    Q(i) reference and the others reproduce the values computed before the
    cache is cleared."""

    # alpha odd, beta even: the trace divides, so the denominator is not a
    # monomial, and the factor i^planes is i^3
    gamma = LatticeElement.torsion(1, 0, 2)
    rot = RotationData((1, 2, 3), 1)
    cp3 = load_manifold("cp3")
    lambda3t = cp3.bundle_twist("lambda3t")
    terms = [_phi_term(i, 24) for i in (1, 2, 3, 4)]
    phis = [_reference_sum(24, [term]) for term in terms]
    em = em_eps_exact(gamma, rot, 24)
    index = equivariant_index(cp3, lambda3t)

    elliptic.phi_exact.cache_clear()
    for which in TRANSLATIONS:
        assert phi_translate_check(which, 24).passed, which
    out = zem._z_periodicity_exact([1, 2, 3], 16)
    assert out["gamma_plus_one_first_diff"] is None and out["gamma_plus_tau_ok"]
    assert [phi_exact(i, 24) for i in (1, 2, 3, 4)] == phis
    assert rigidity_check(cp3, 8).rigid
    assert equivariant_index(cp3, lambda3t) == index
    assert em_eps_exact(gamma, rot, 24) == em


def test_exact_checks_decode_no_row(monkeypatch):
    """All five translation checks and the exact Z-periodicity compare
    packed rows as integers: with ``decode_row`` raising they still pass,
    while ``laurent_sum``, which decodes each row once, raises."""

    def no_decode(row, layout):
        raise RuntimeError("decode_row called")

    monkeypatch.setattr(witten, "decode_row", no_decode)
    for which in TRANSLATIONS:
        assert phi_translate_check(which, 24).passed, which
    out = zem._z_periodicity_exact([1, 2, 3], 16)
    assert out["gamma_plus_one_first_diff"] is None and out["gamma_plus_tau_ok"]
    with pytest.raises(RuntimeError, match="decode_row called"):
        laurent_sum(4, [_phi_term(1, 4)])


_ONE_FACTOR = ([(2, 2, 1)], [], [(0, 0, 1)])
_AT_ORDER = {  # name: an exact entry point as a function of the order
    "laurent_rows": lambda order: laurent_rows(
        order, _ONE_FACTOR, row_layout(order, [_ONE_FACTOR])
    ),
    "phi_exact": lambda order: phi_exact(1, order),
    **{f"phi_translate_check {w}": partial(phi_translate_check, w)
       for w in TRANSLATIONS},
    "fullperiod_parts_check": lambda order: fullperiod_parts_check(1, order),
    "witten_exact": lambda order: witten_exact(1, [1, -1], order),
    "z_exact": lambda order: z_exact(RotationData((1, 2), 1), order),
    "Z-periodicity exact": lambda order: zem._z_periodicity_exact([1, 2], order),
    "em_eps_exact": lambda order: em_eps_exact(
        LatticeElement.torsion(1, 0, 2), RotationData((1,), 1), order
    ),
    "tangent-Witten index": lambda order: equivariant_index(
        load_manifold("cp3"), TwistSpec("tangent_witten"), order
    ),
    "untwisted index": lambda order: equivariant_index(
        load_manifold("cp3"), TwistSpec("none"), order
    ),
    "bundle index": lambda order: equivariant_index(
        load_manifold("cp3"), load_manifold("cp3").bundle_twist("lambda3t"), order
    ),
    "rigidity_check": lambda order: rigidity_check(load_manifold("cp3"), order),
}


@pytest.mark.parametrize("order", [-1, -3])
@pytest.mark.parametrize("call", _AT_ORDER.values(), ids=list(_AT_ORDER))
def test_exact_entry_points_reject_a_negative_order(call, order):
    """Below p^0 there are no rows, so a check would compare nothing and
    pass: every exact entry point raises instead (at order 0 it runs)."""
    call(0)
    with pytest.raises(ValueError, match="order must be >= 0"):
        call(order)
