"""The integer Laurent kernel against the slow paths it replaced, kept as
references: the rational-function regrading ``ps_substitute_t`` on
``RationalFunctionQi`` series (in ``series_reference``), the dict rows
(``row_reference``) that the packed rows replaced, and, here, the
GaussianRational-accumulating product engine."""

import re
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptica import elliptic, witten, zem
from elliptica.elliptic import (
    TRANSLATIONS,
    phi_exact,
    phi_translate_check,
    theta_term,
)
from elliptica.fixedpoint import (
    equivariant_index,
    load_manifold,
    rigidity_check,
    witten_index,
)
from elliptica.qseries import PSeries, SubstitutionError
from elliptica.ring import RationalFunctionQi
from elliptica.spinchar import RotationData
from elliptica.witten import (
    RowLayout,
    decode_row,
    laurent_fraction,
    laurent_rows,
    laurent_sum,
    regrade,
    row_layout,
    unit_substitute,
    witten_factors,
)
from elliptica.zem import LatticeElement
import row_reference
from ring_reference import RF, GaussianRational
from row_reference import dense
from series_reference import (
    PS,
    Substitution,
    em_eps_exact,
    monomial,
    ps_compose_power,
    ps_substitute_t,
    shift_p,
    z_term,
)


def _phi1_regraded(m, order):
    """phi_1 under s -> p^m s as the translation checks take it: its factors
    to p^{order + 2m}, through ``regrade``."""
    return regrade(theta_term(1, (1,), order + 2 * m), m, order)


@pytest.mark.parametrize("order", [0, 1, 5, 16, 24])
def test_phi1_halfshifted_matches_series_regrade(order):
    deep = phi_exact(1, 2 * order + 6)
    ref = ps_substitute_t(deep, Substitution.p_shift(1)).truncate(order)
    assert laurent_sum(order, [_phi1_regraded(1, order)]) == ref


def test_phi1_halfshift_headroom_is_load_bearing():
    """Negative control: W_1 factors taken only to the output order miss
    the factor 1 + p^18 s^-2, whose image lands at p^16 (p^17 with the
    prefactor), so the factor list must reach order + 2."""
    order = 17
    term = regrade(theta_term(1, (1,), order), 1, order)
    assert laurent_sum(order, [term]) != laurent_sum(order, [_phi1_regraded(1, order)])


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("part", [0, 1])
def test_row_regrade_of_parts_matches_series_regrade(a, part):
    """The numerator (part 0) and denominator (part 1) products of
    phi_1(a z) as numerator-only terms under s -> p^2 s, times the monomial
    p^post_p s^{2a^2} of their full-period relations, against
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
    num, den, (p_pow, s_pow, flips) = regrade((factors, [], (0, 0, 1)), 2, order)
    got = (num, den, (p_pow + post_p, s_pow + 2 * a * a, flips * sign))
    assert laurent_sum(order, [got]) == ref


def test_regrade_factors_flips_negative_exponent():
    # 1 + s^-2 under s -> p s is 1 + p^-2 s^-2 = p^-2 s^-2 (1 + p^2 s^2)
    assert regrade(([(0, -2, 1)], [], (0, 0, 1)), 1, 5) == ([(2, 2, 1)], [], (-2, -2, 1))
    assert regrade(([(1, -2, -1)], [], (0, 0, 1)), 1, 5) == ([(1, 2, -1)], [], (-1, -2, -1))
    # factors landing above the order are 1 + O(p^{order+1}); a flipped
    # one still leaves its monomial, and the monomial s goes to p s
    term = ([(4, 2, 1), (0, -9, 1)], [], (0, 1, 1))
    assert regrade(term, 1, 5) == ([], [], (-8, -8, 1))


def test_regrade_rejects_negative_landing():
    # p s^-2 lands at p^-1 under s -> p s
    series = PSeries([RF.zero(), monomial(-2)])
    with pytest.raises(SubstitutionError):
        ps_substitute_t(series, Substitution.p_shift(1))
    # a divided factor flips with the monomial inverted:
    # 1 / (1 + p^-1 s^-2) = p s^2 / (1 + p s^2), 1 / (1 - x) = -x^-1 / (1 - x^-1)
    assert regrade(([], [(1, -2, 1)], (0, 0, 1)), 1, 5) == ([], [(1, 2, 1)], (1, 2, 1))
    assert regrade(([], [(3, -4, -1)], (0, 0, 1)), 1, 5) == ([], [(1, 4, -1)], (1, 4, -1))
    # and at p^0 it stays in the p-free denominator
    assert regrade(([], [(2, -2, 1)], (0, 0, 1)), 1, 5) == ([], [(0, -2, 1)], (0, 0, 1))
    # the flip needs c = +-1, in a numerator or a denominator
    for term in (([(1, -2, 3)], [], (0, 0, 1)), ([], [(1, -2, 3)], (0, 0, 1))):
        with pytest.raises(SubstitutionError):
            regrade(term, 1, 5)


@pytest.mark.parametrize(
    "a, mutate",
    [(1, lambda p, s, sign: (0, 0, sign)),
     (3, lambda p, s, sign: (0, 0, sign)),
     (2, lambda p, s, sign: (p, s, 1))],
    ids=["a1-no-monomial", "a3-no-monomial", "a2-no-sign"],
)
def test_parts_check_needs_the_flip_monomial(monkeypatch, a, mutate):
    """Negative control: dropping the flips' monomial (or, where the flips
    carry c = -1, their sign) makes the check of phi_1(a (z + tau)) =
    (-1)^a phi_1(a z) fail."""
    target = (1, 2 * (a % 2), 0)
    assert elliptic.translation_difference((a,), 2, 0, target, 16) is None

    def broken(term, m, order):
        """``regrade`` with the flips' part of the monomial mutated."""
        num, den, (p_pow, s_pow, sign) = regrade(term, m, order)
        _, _, (p0, s0, sign0) = regrade(([], [], term[2]), m, order)
        p, s, c = mutate(p_pow - p0, s_pow - s0, sign * sign0)
        return num, den, (p0 + p, s0 + s, sign0 * c)

    monkeypatch.setattr(elliptic, "regrade", broken)
    assert elliptic.translation_difference((a,), 2, 0, target, 16) is not None


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
    """The packed ``laurent_fraction`` of ``terms``, decoded, as (dense
    rows, dense denominator row), the form ``_reference`` gives; the
    denominator is built by the reference from the Counter."""
    rows, den, layout = laurent_fraction(order, terms)
    (den_row,) = row_reference.laurent_rows(0, [(0, d, c) for d, c in den.elements()])
    return [decode_row(row, layout) for row in rows], dense(den_row)


def _reference(order, terms):
    """The reference's dict ``laurent_fraction`` of ``terms``, made dense."""
    rows, den = row_reference.laurent_fraction(order, terms)
    return [dense(row) for row in rows], dense(den)


def _scaled(terms, step):
    """The terms with every s-exponent times ``step``: their rows keep
    digits ``step`` exponents apart."""
    def factors(fs):
        return [(e, step * d, c) for e, d, c in fs]
    return [(factors(num), factors(den), (p_pow, step * s_pow, sign))
            for num, den, (p_pow, s_pow, sign) in terms]


@settings(max_examples=120, deadline=None)
@given(
    order=st.integers(0, 12),
    terms=st.lists(_WIDE_TERM, max_size=3),
    cancelled=st.lists(_WIDE_TERM, min_size=1, max_size=2),
    factor=_WIDE_S_FACTOR,
    step=st.sampled_from([1, 2]),
)
# a lowest digit -1 at s^-8, and the same rows with digits two exponents apart
@example(order=3, terms=[([(1, -3, -5)], [], (0, -8, -1))],
         cancelled=[([], [], (0, 0, 1))], factor=(0, 1, 2), step=1)
@example(order=3, terms=[([(1, -3, -5)], [], (0, -8, -1))],
         cancelled=[([], [], (0, 0, 1))], factor=(0, 1, 2), step=2)
def test_packed_rows_match_dict_reference(order, terms, cancelled, factor, step):
    """Packed rows decode to the reference's dict rows, made dense: |c| up
    to 10^6, negative s-exponents and lowest digits, digits one or two
    exponents apart, p-free factors in numerators and denominators,
    monomials with p-powers, terms that share their factors and are
    expanded together, and terms that cancel to all-zero rows only once
    they share one denominator."""
    terms, cancelled = _scaled(terms, step), _scaled(cancelled, step)
    factor = (0, step * factor[1], factor[2])
    zero = cancelled + _negated(cancelled, factor)
    got = _decoded(order, zero)
    assert got == _reference(order, zero)
    assert got[0] == [(0, [])] * (order + 1)
    shared = [(num, den, (p + 1, s - 2, sign)) for num, den, (p, s, sign) in terms]
    terms = terms + shared + zero
    assert laurent_fraction(order, terms)[2].s_step % step == 0
    assert _decoded(order, terms) == _reference(order, terms)


_WIDE_DIGIT = st.integers(-2**100, 2**100)


@settings(max_examples=150, deadline=None)
@given(
    digits=st.dictionaries(st.integers(0, 12), _WIDE_DIGIT, max_size=6),
    offset=st.integers(0, 20),
    s_step=st.sampled_from([1, 2]),
    spare=st.integers(0, 2),
)
@example(digits={}, offset=3, s_step=1, spare=0)  # the zero row
@example(digits={0: -1}, offset=0, s_step=1, spare=0)  # one byte, -1 alone
@example(digits={2: -(2**90), 5: 2**99 - 1, 7: -1}, offset=9, s_step=2, spare=0)
@example(digits={0: 2**71, 1: -(2**71)}, offset=4, s_step=1, spare=1)
def test_decode_row_matches_dict_rows(digits, offset, s_step, spare):
    """Rows packed directly from dict rows decode to the dense form of the
    dicts: digits up to 2^100, wider than any row of cp3 to p^160, negative
    lowest digits and exponents, digits two exponents apart, widths with
    spare bytes, and the zero row."""
    bound = max((abs(v) for v in digits.values()), default=0)
    width = (-(-(bound.bit_length() + 1) // 8) + spare) * 8
    layout = RowLayout(width, offset, s_step, 1)
    row = sum(v << width * j for j, v in digits.items())
    want = {j * s_step - offset: v for j, v in digits.items()}
    assert decode_row(row, layout) == dense(want)


def test_cp3_rigidity_terms_cancel_to_zero_rows():
    """The tangent-Witten terms of cp3 cancel across its four points: every
    packed row of the sum is 0, as in the reference."""
    terms = [z_term(pt, 16) for pt in load_manifold("cp3").points]
    got = _decoded(16, terms)
    assert got == _reference(16, terms)
    assert got[0] == [(0, [])] * 17


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_deep_phi_matches_dict_reference(i):
    """phi_exact at p^160, whose rows are hundreds of digits wide, equals
    the reference's dict rows reduced the same way."""
    rows, den = row_reference.laurent_fraction(160, [theta_term(i, (1,), 160)])
    reduce = RationalFunctionQi.from_integer_laurent
    want = PSeries([reduce(dense(row), dense(den)) for row in rows], 160)
    assert phi_exact(i, 160) == want


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
    return theta_term(1, (1,), order)


def _z(entries, nu):
    return lambda order: z_term(entries, order, nu)


_UNIT_CASES = {  # the left side of each unit check: (term, k, reference rule)
    "z+1": (_phi1, 2, Substitution.neg_s()),
    "z+1/2": (_phi1, 1, Substitution.i_s()),
    "z+1/2+tau/2": (partial(_phi1_regraded, 1), 1, Substitution.i_s()),
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
    return zem._z_periodicity_exact((1, 2), 16)["gamma_plus_one_first_diff"]


_unit_substitute = witten.unit_substitute
_epsilon_J = zem.epsilon_J
_NEGATIVE_CONTROLS = {  # name: (mutation, check, what the mutated check gives)
    "z+1/2-against-phi1": (
        lambda mp: mp.setitem(elliptic._TRANSLATION_CHECKS, "z+1/2",
                              (0, 1, (1, 1, 0), "")),
        _translation("z+1/2"), 0,
    ),
    "factored-i-dropped": (
        lambda mp: mp.setattr(witten, "unit_substitute",
                              lambda term, k: (0, _unit_substitute(term, k)[1])),
        _translation("z+1/2"), 0,
    ),
    "phi4-without-p-shift": (
        lambda mp: mp.setitem(elliptic._TRANSLATION_CHECKS, "z+1/2+tau/2",
                              (1, 1, (4, 1, 0), "")),
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
    terms = [theta_term(i, (1,), 24) for i in (1, 2, 3, 4)]
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
        laurent_sum(4, [theta_term(1, (1,), 4)])


_ONE_FACTOR = ([(2, 2, 1)], [], [(0, 0, 1)])
_AT_ORDER = {  # name: an exact entry point as a function of the order
    "laurent_rows": lambda order: laurent_rows(
        order, _ONE_FACTOR, row_layout(order, [_ONE_FACTOR])
    ),
    "phi_exact": lambda order: phi_exact(1, order),
    **{f"phi_translate_check {w}": partial(phi_translate_check, w)
       for w in TRANSLATIONS},
    "Z-periodicity exact": lambda order: zem._z_periodicity_exact([1, 2], order),
    "em_eps_exact": lambda order: em_eps_exact(
        LatticeElement.torsion(1, 0, 2), RotationData((1,), 1), order
    ),
    "tangent-Witten index": lambda order: witten_index(load_manifold("cp3"), order),
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
