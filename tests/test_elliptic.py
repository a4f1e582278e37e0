import cmath
import math
import random

import pytest

from elliptica.elliptic import (
    EllipticParams,
    MAX_PRODUCT_FACTORS,
    PoleError,
    TRANSLATIONS,
    phi_exact,
    phi_numeric,
    phi_translate_check,
)
from ring_reference import RF
from series_reference import PS, Substitution, monomial, ps_substitute_t

ONE = RF.one()
S = RF.var()


def test_low_order_coefficients_against_hand_expansion():
    # oracle: expand the defining product to order q^{1/2} by hand:
    # pref * (1 + p^2 s^2)(1 + p^2 s^-2) + O(p^4)
    ser = phi_exact(1, 2)
    pref = S / (ONE - S * S)
    assert ser.coeffs[0] == pref
    assert ser.coeffs[1] == RF.zero()
    assert ser.coeffs[2] == (S * S + monomial(-2)) * pref


def test_phi1_is_odd_every_order():
    for order in (0, 4, 12):
        ser = PS.of(phi_exact(1, order))
        flipped = ps_substitute_t(ser, Substitution.inv_s())
        assert flipped == -ser


def test_translation_identities_exact_small_order():
    for which in TRANSLATIONS:
        rep = phi_translate_check(which, 24)
        assert rep.passed, (which, rep.first_failing_exponent)


def test_translation_z_plus_one_at_order_zero():
    rep = phi_translate_check("z+1", 0)
    assert rep.passed


def test_halfperiod_headroom_is_sufficient():
    # doubling the input depth 2M+6 must not change the regraded series
    order = 16
    deep = 2 * order + 6
    a = ps_substitute_t(
        phi_exact(1, deep), Substitution.p_shift(1)
    ).truncate(order)
    b = ps_substitute_t(
        phi_exact(1, 2 * deep), Substitution.p_shift(1)
    ).truncate(order)
    assert a == b


def test_numeric_value_at_standard_point():
    # leading term i/(2 sin(0.3 pi)), corrected by the product factors
    params = EllipticParams(tau=1j)
    val = phi_numeric(1, params, 0.3)
    lead = 1j / (2.0 * cmath.sin(0.3 * cmath.pi).real)
    assert abs(val - lead) / abs(lead) < 0.05  # q = e^{-2 pi} correction ~2.6%
    ser = phi_exact(1, 80)
    s0 = cmath.exp(1j * cmath.pi * 0.3)
    p0 = cmath.exp(0.5j * cmath.pi * 1j)
    assert abs(val - ser.evaluate(s0, p0)) < 1e-10


def test_cross_backend_agreement_random():
    rng = random.Random(5)
    for _ in range(50):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0))
        z = complex(rng.uniform(0.05, 0.45), rng.uniform(-0.1, 0.1))
        params = EllipticParams(tau=tau)
        i = rng.randint(1, 4)
        try:
            val = phi_numeric(i, params, z)
        except PoleError:
            continue
        ser = phi_exact(i, 80)
        s0 = cmath.exp(1j * cmath.pi * z)
        p0 = cmath.exp(0.5j * cmath.pi * tau)
        exact_val = ser.evaluate(s0, p0)
        assert abs(val - exact_val) / max(abs(val), 1e-30) < 1e-9


def test_numeric_tail_bound_doubling():
    params = EllipticParams(tau=0.1 + 0.5j)
    doubled = EllipticParams(tau=0.1 + 0.5j,
                             product_cutoff=2 * params.cutoff(1.0))
    for i in (1, 2, 3, 4):
        for z in (0.21, 0.37 + 0.05j):
            a = phi_numeric(i, params, z)
            b = phi_numeric(i, doubled, z)
            assert abs(a - b) / abs(b) < 1e-12


@pytest.mark.parametrize(
    "tau",
    [complex(math.nan, 1.0), complex(0.0, math.nan), complex(0.0, math.inf),
     complex(math.inf, 1.0), 1e-300j, 200j],
)
def test_params_reject_degenerate_tau(tau):
    """Non-finite tau, and tau whose q rounds to |q| = 1 or to 0, would
    break the product cutoff."""
    with pytest.raises(ValueError):
        EllipticParams(tau=tau)


def test_pole_guard():
    params = EllipticParams(tau=1j)
    with pytest.raises(PoleError):
        phi_numeric(1, params, 1.0 + 1j * 1e-12)  # on the lattice
    with pytest.raises(PoleError):
        phi_numeric(2, params, 0.5)
    with pytest.raises(PoleError):
        phi_numeric(3, params, 0.5j)  # tau/2 at tau = i
    with pytest.raises(PoleError):
        phi_numeric(4, params, 0.5 + 0.5j)


@pytest.mark.parametrize("i", [0, 5, -1])
def test_invalid_index_is_rejected_before_the_pole_check(i):
    """Near 1/2 + tau/2, the pole of phi_4, an invalid index is a ValueError
    and not a PoleError, which the identity suites would retry as a
    degenerate draw."""
    params = EllipticParams(tau=1j)
    with pytest.raises(ValueError, match="phi index must be 1..4") as err:
        phi_numeric(i, params, 0.5 + 0.5j + 1e-12)
    assert not isinstance(err.value, PoleError)


def test_tau_tables_stay_out_of_equality():
    """Equality and hashing read the declared fields only: the per-tau
    values and factor tables do not enter them."""
    a, b = EllipticParams(tau=0.1 + 0.7j), EllipticParams(tau=0.1 + 0.7j)
    a.factors(1, 50.0)
    assert a == b and hash(a) == hash(b)
    assert len(b.factors(1)) == b.cutoff() < len(a.factors(1, 50.0))
    assert repr(a) == repr(b)


def test_numeric_translations_spot_check():
    params = EllipticParams(tau=0.2 + 0.9j)
    q4 = cmath.exp(0.5j * cmath.pi * params.tau)
    z = 0.17 + 0.06j
    f1 = phi_numeric(1, params, z)
    assert abs(phi_numeric(1, params, z + 1) + f1) < 1e-12 * abs(f1)
    assert abs(phi_numeric(1, params, z + params.tau) + f1) < 1e-10 * abs(f1)
    assert abs(phi_numeric(1, params, z + 0.5) - 1j * phi_numeric(2, params, z)) \
        < 1e-10 * abs(f1)
    lhs = phi_numeric(1, params, z + params.tau / 2)
    assert abs(lhs - q4 * phi_numeric(3, params, z)) < 1e-10 * abs(lhs)
    lhs = phi_numeric(1, params, z + 0.5 + params.tau / 2)
    assert abs(lhs - 1j * q4 * phi_numeric(4, params, z)) < 1e-10 * abs(lhs)


def test_numeric_translations_near_branch_wrap():
    # Re tau close to 1/2: half-powers of q must come from tau, not from a
    # principal-branch root of q
    params = EllipticParams(tau=0.49 + 0.8j)
    q4 = cmath.exp(0.5j * cmath.pi * params.tau)
    z = 0.19 + 0.03j
    lhs = phi_numeric(1, params, z + params.tau / 2)
    rhs = q4 * phi_numeric(3, params, z)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_cutoff_bounds_the_factor_count():
    """Near the real axis the products would need billions of factors: the
    cutoff raises instead of returning the count, while the tau that the
    identity suites draw need few."""
    with pytest.raises(OverflowError, match="product factors"):
        EllipticParams(tau=1e-9j).cutoff()
    assert EllipticParams(tau=1e-3j).cutoff() <= MAX_PRODUCT_FACTORS
    assert max(EllipticParams(tau=complex(0.45, y)).cutoff(50.0)
               for y in (0.5, 1.0, 2.0)) < 100


def test_params_validation():
    with pytest.raises(ValueError):
        EllipticParams(tau=1.0 - 0.5j)
    with pytest.raises(TypeError):
        EllipticParams()
