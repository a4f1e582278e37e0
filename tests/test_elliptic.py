import cmath
import math
import random

import pytest

from elliptica.elliptic import (
    HALF_PERIODS,
    NUMERIC_TAIL_TARGET,
    EllipticParams,
    PoleError,
    TRANSLATIONS,
    _lattice_offset,
    phi_exact,
    phi_numeric,
    phi_translate_check,
)
from elliptica.witten import witten_char
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


@pytest.mark.parametrize("half", list(HALF_PERIODS))
def test_half_period_rows_hold_numerically(half):
    """phi_1(z + (alpha + beta tau)/2) = i^unit p^p_pow phi_i(z) for each
    row of HALF_PERIODS, from the theta series at seeded random z and tau,
    with p = e^{i pi tau / 2} computed here."""
    i, unit, p_pow = HALF_PERIODS[half]
    alpha, beta = half
    rng = random.Random(f"half-periods|{half}")
    for _ in range(20):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.5, 2.0))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3) * tau.imag)
        params = EllipticParams(tau=tau)
        p = cmath.exp(0.5j * cmath.pi * tau)
        lhs = phi_numeric(1, params, z + (alpha + beta * tau) / 2)
        rhs = 1j**unit * p**p_pow * phi_numeric(i, params, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


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
    """Twice the series terms that the tail target asks for change no
    value of phi_i or W_i by more than 1e-15, at seeded tau and tau near
    the real axis, and points across the strip where the tail bound holds
    and beyond it."""
    rng = random.Random(17)
    # the last three are summed at a modular image of tau
    for tau in [complex(rng.uniform(-0.49, 0.49), rng.uniform(0.3, 2.0))
                for _ in range(40)] + [0.03j, 0.49 + 1e-3j, 1 / 3 + 2e-3j]:
        params = EllipticParams(tau=tau)
        doubled = EllipticParams(tau=tau, series_terms=2 * params.terms)
        for _ in range(5):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-3.0, 3.0) * tau.imag)
            e = cmath.exp(2j * cmath.pi * z)
            for i in (1, 2, 3, 4):
                for a, b in (
                    (phi_numeric(i, params, z), phi_numeric(i, doubled, z)),
                    (witten_char(i, [e], params), witten_char(i, [e], doubled)),
                ):
                    assert abs(a - b) <= 1e-15 * abs(b)


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


def test_kernel_pole_guard_is_the_lattice_offset():
    """theta_product measures the distance to a pole by the arithmetic of
    _lattice_offset, inlined: the distance a PoleError carries is the
    function's, bit for bit, near poles n + m tau + shift of each phi_i."""
    rng = random.Random(3)
    for _ in range(200):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.5, 2.0))
        params = EllipticParams(tau=tau)
        for i, shift in enumerate((0j, 0.5 + 0j, tau / 2.0, 0.5 + tau / 2.0), 1):
            n, m = rng.randint(-3, 3), rng.randint(-3, 3)
            near = complex(rng.uniform(-5e-9, 5e-9), rng.uniform(-5e-9, 5e-9))
            z = n + m * tau + shift + near
            with pytest.raises(PoleError) as err:
                phi_numeric(i, params, z)
            assert err.value.distance == _lattice_offset(z - shift, tau)[0]


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
    values and series coefficients do not enter them."""
    a, b = EllipticParams(tau=0.1 + 0.7j), EllipticParams(tau=0.1 + 0.7j)
    phi_numeric(1, a, 0.2 + 1.3j)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "EllipticParams(tau=(0.1+0.7j), series_terms=None)"
    longer = EllipticParams(tau=0.1 + 0.7j, series_terms=2 * a.terms)
    assert longer != a and longer.terms == 2 * a.terms


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


def test_modular_image_bounds_the_series():
    """Where |q| > 1/2 the series are summed at a modular image of tau
    whose |q| is at most 1/2, so no tau needs more than 11 terms, and the
    tau that the identity suites draw need at most 6.  Near Re tau = 0,
    below Im tau of about 0.0085, the image's q rounds to 0: refused."""
    for tau in (0.12j, 0.03j, 0.01j, 0.49 + 1e-3j, -0.49 + 1e-3j, 1 / 3 + 2e-3j):
        assert EllipticParams(tau=tau).terms <= 11
    for tau in (1e-3j, 1e-9j, 0.2 + 1e-6j):
        with pytest.raises(ValueError, match="too near the real axis"):
            EllipticParams(tau=tau)
    assert max(EllipticParams(tau=complex(re, y)).terms
               for re in (-0.45, 0, 0.45) for y in (0.5, 1.0, 2.0)) <= 6


def test_series_length_is_the_tail_bound():
    """``terms`` is the least n whose tail bound (2n + 5) |q|^{n(n+1)/2} /
    (1 - |q|) is at most NUMERIC_TAIL_TARGET, with the float power, on a
    grid of the tau that the identity suites draw: the series length decides
    the values, so it must not move with the way it is computed."""
    seen = set()
    for k in range(31):
        for m in range(61):
            tau = complex(-0.45 + 0.03 * k, 0.5 + 0.025 * m)
            qh = cmath.exp(1j * cmath.pi * tau)
            qa = abs(qh * qh)
            n = 1
            while (2 * n + 5) * qa ** (n * (n + 1) / 2) > NUMERIC_TAIL_TARGET * (1.0 - qa):
                n += 1
            assert EllipticParams(tau=tau).terms == n, tau
            seen.add(n)
    assert seen == {3, 4, 5}


def test_zero_series_terms_give_the_prefactors():
    """series_terms = 0 is the q -> 0 limit: phi_i is its prefactor at z
    itself, bit for bit and unreduced, and every W_i is 1."""
    params = EllipticParams(tau=0.3 + 0.4j, series_terms=0)
    for z in (0.21 + 0.03j, -0.4 + 0.9j, 0.1 + 2.5j):
        s = cmath.exp(1j * cmath.pi * z)
        prefactors = (1.0 / (1.0 / s - s), 1.0 / (s + 1.0 / s), s + 1.0 / s, s - 1.0 / s)
        for i, pref in enumerate(prefactors, 1):
            assert phi_numeric(i, params, z) == pref
            assert witten_char(i, [s * s, 40.0, -1.0], params) == 1


def test_series_terms_must_be_nonnegative():
    with pytest.raises(ValueError, match="series_terms"):
        EllipticParams(tau=1j, series_terms=-1)


def test_params_validation():
    with pytest.raises(ValueError):
        EllipticParams(tau=1.0 - 0.5j)
    with pytest.raises(TypeError):
        EllipticParams()
