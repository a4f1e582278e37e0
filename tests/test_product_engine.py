"""The shared exact product engine against the slower constructions it
replaced, kept here as references: whole-series products of composed
phi_1 factors, and phi_i assembled from its inverted denominator."""

import pytest

from elliptica.elliptic import (
    EllipticParams,
    phi_exact,
    phi_prefactor,
)
from elliptica.fixedpoint import TwistSpec, equivariant_index, load_manifold
from elliptica.qseries import PSeries, ps_compose_power, ps_invert
from elliptica.ring import RationalFunctionQi
from elliptica.spinchar import RotationData
from elliptica.witten import laurent_product, witten_factors
from elliptica.zem import z_fun

ORDER = 6


def _phi1_product(weights, order):
    """prod_a phi_1(a z) as a product of whole series over Q(i)(s)."""
    base = phi_exact(1, order)
    out = PSeries.one(RationalFunctionQi, order)
    for a in weights:
        out = out * ps_compose_power(base, a)
    return out


@pytest.mark.parametrize("entries", [(1,), (2, -1), (1, 2, 3), (-3, 1)])
@pytest.mark.parametrize("nu", [1, -1])
def test_exact_z_fun_matches_phi1_products(entries, nu):
    params = EllipticParams(truncation_order=ORDER)
    got = z_fun(None, RotationData(entries, nu), None, params, backend="exact")
    ref = _phi1_product(entries, ORDER)
    assert got == (ref if nu > 0 else -ref)


@pytest.mark.parametrize("name", ["s2", "cp3", "cp3_alt", "s2xs2xs2"])
def test_tangent_witten_index_matches_phi1_products(name):
    m = load_manifold(name)
    params = EllipticParams(truncation_order=ORDER)
    got = equivariant_index(m, TwistSpec("tangent_witten"), params)
    ref = PSeries.zeros(RationalFunctionQi, ORDER)
    for pt in m.points:
        ref = ref + _phi1_product(pt.weights, ORDER)
    assert got == ref


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_phi_exact_matches_inverted_denominator(i):
    order = 12
    num, den = witten_factors(i, (1, -1), order)
    quotient = laurent_product(order, num) * ps_invert(laurent_product(order, den))
    assert phi_exact(i, order) == quotient.scale(phi_prefactor(i))
