"""The shared exact product engine against the slower constructions it
replaced, kept here as references: whole-series products of composed
phi_1 factors, phi_i assembled from its inverted denominator and its
rational-function prefactor, the untwisted and bundle indices summed as
reciprocal supertraces times characters, and EM_eps as Witten characters
scaled by rational-function (super)traces."""

import pytest

from elliptica.elliptic import phi_exact, theta_term
from elliptica.fixedpoint import (
    DERIVED_TWISTS,
    equivariant_index,
    load_manifold,
    witten_index,
)
from elliptica.spinchar import RotationData
from elliptica.witten import laurent_sum, witten_factors
from elliptica.zem import LatticeElement
from ring_reference import RF, GaussianRational
from series_reference import (
    PS,
    em_eps_exact,
    monomial,
    ps_compose_power,
    ps_invert,
    shift_p,
    spinor_trace_exact,
    witten_series,
    z_term,
)

ORDER = 6
CATALOG = ["s2", "cp3", "cp3_alt", "s2xs2xs2"]


def phi_prefactor(i):
    """The prefactor of phi_i as a rational function in s."""
    s = RF.var()
    one = RF.one()
    inv_s = monomial(-1)
    return {
        1: one / (inv_s - s),
        2: one / (s + inv_s),
        3: s + inv_s,
        4: s - inv_s,
    }[i]


def _phi1_product(weights, order):
    """prod_a phi_1(a z) as a product of whole series over Q(i)(s)."""
    base = phi_exact(1, order)
    out = PS.one(RF, order)
    for a in weights:
        out = out * ps_compose_power(base, a)
    return out


@pytest.mark.parametrize("entries", [(1,), (2, -1), (1, 2, 3), (-3, 1)])
@pytest.mark.parametrize("nu", [1, -1])
def test_exact_z_fun_matches_phi1_products(entries, nu):
    got = laurent_sum(ORDER, [z_term(entries, ORDER, nu)])
    ref = _phi1_product(entries, ORDER)
    assert got == (ref if nu > 0 else -ref)


@pytest.mark.parametrize("name", CATALOG)
def test_tangent_witten_index_matches_phi1_products(name):
    m = load_manifold(name)
    got = witten_index(m, ORDER)
    ref = PS.zeros(RF, ORDER)
    for pt in m.points:
        ref = ref + _phi1_product(pt, ORDER)
    assert got == ref


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_phi_exact_matches_inverted_denominator(i):
    order = 12
    num, den = witten_factors(i, (1, -1), order)
    quotient = laurent_sum(order, [(num, (), (0, 0, 1))]) * ps_invert(
        laurent_sum(order, [(den, (), (0, 0, 1))])
    )
    assert phi_exact(i, order) == quotient.scale(phi_prefactor(i))


@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("weights, p_pow", [((2, -3), 0), ((-2, 1, 3), 2)])
def test_theta_term_matches_composed_phi_products(i, weights, p_pow):
    """p^p_pow prod_a phi_i(a z) for mixed-sign weights with |a| > 1: the
    term's series against whole series over Q(i)(s), each phi_i its
    rational-function prefactor times W_i on (1, -1), composed with
    s -> s^a and multiplied."""
    order = 8
    phi = PS.of(witten_series(i, [1, -1], order)).scale(phi_prefactor(i))
    ref = PS.one(RF, order)
    for a in weights:
        ref = ref * ps_compose_power(phi, a)
    got = laurent_sum(order, [theta_term(i, weights, order, p_pow)])
    assert got == shift_p(ref, p_pow)


@pytest.mark.parametrize(
    "name, twist_name",
    [(name, t) for name in CATALOG for t in ["none", *DERIVED_TWISTS]],
)
def test_untwisted_and_bundle_index_match_supertrace_sum(name, twist_name):
    """The depth-0 z_term sum against sum over points of 1/Str times the
    bundle character sum_w s^{2w} (1 for the untwisted index)."""
    m = load_manifold(name)
    bundle = None if twist_name == "none" else m.bundle_twist(twist_name)
    ref = RF.zero()
    for i, pt in enumerate(m.points):
        term = spinor_trace_exact("str", RotationData(pt, 1)).inverse()
        if bundle is not None:
            char = {}
            for w in bundle[i]:
                char[2 * w] = char.get(2 * w, 0) + 1
            term = term * RF.from_laurent(char)
        ref = ref + term
    assert equivariant_index(m, bundle) == ref


def _em_eps_reference(gamma, R, order):
    """Exact EM_eps as the W_i character scaled by the rational-function
    trace or supertrace and the constants c2, c3, c4 of ``em_eps``."""
    case = (gamma.alpha % 2, gamma.beta % 2)
    planes = R.planes
    weights = [w for a in R.entries for w in (a, -a)]
    e = (gamma.alpha + gamma.beta - (0 if case == (1, 1) else 1)) * 2 * planes
    sign = -1 if (e // 4) % 2 else 1
    const = RF.constant(GaussianRational.i() ** planes * sign)
    tr = spinor_trace_exact("tr", RotationData(R.entries, 1))
    if case == (1, 0):
        return PS.of(witten_series(2, weights, order)).scale(tr.inverse() * const)
    if case == (0, 1):
        return shift_p(PS.of(witten_series(3, weights, order)).scale(tr * sign), planes)
    st = spinor_trace_exact("str", R)
    return shift_p(PS.of(witten_series(4, weights, order)).scale(st * const), planes)


@pytest.mark.parametrize("alpha, beta", [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 3)])
@pytest.mark.parametrize("entries, nu", [((1,), 1), ((-2,), 1), ((1, -3), -1),
                                         ((2, 1, -1), 1), ((-1, -2, 3), -1)])
def test_exact_em_eps_matches_trace_products(alpha, beta, entries, nu):
    gamma = LatticeElement.torsion(alpha, beta, 2)
    R = RotationData(entries, nu)
    j, got = em_eps_exact(gamma, R, ORDER)
    assert j in (0, 1)
    unit = RF.constant(GaussianRational.i() ** j)
    assert PS.of(got).scale(unit) == _em_eps_reference(gamma, R, ORDER)
