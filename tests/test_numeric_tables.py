"""The per-tau factor tables of EllipticParams against the per-call loops of
tests/numeric_reference.py: equal values, not close ones, since the tables
keep every float operand and the order of every operation."""

import cmath
import random
from collections import Counter

import numeric_reference as ref
import pytest

from elliptica import witten, zem
from elliptica.elliptic import EllipticParams, PoleError, phi_numeric
from elliptica.witten import WittenDenominatorError, witten_char


def _draw_tau(rng):
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.3, 2.0))


def _outcome(fn, *args):
    """fn(*args), or the error it raises with what the caller can see."""
    try:
        return fn(*args)
    except (PoleError, WittenDenominatorError) as exc:
        return type(exc), str(exc), getattr(exc, "n", None)


def _t_abs(z):
    t = abs(cmath.exp(2j * cmath.pi * z))
    return max(t, 1.0 / t)


@pytest.mark.parametrize("product_cutoff", [None, 0, 5, 40])
def test_phi_numeric_equals_reference(product_cutoff):
    rng = random.Random(20261018)
    for _ in range(150):
        params = EllipticParams(tau=_draw_tau(rng), product_cutoff=product_cutoff)
        for _ in range(3):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6))
            for i in (1, 2, 3, 4):
                assert _outcome(phi_numeric, i, params, z) == _outcome(
                    ref.phi_numeric, i, params, z
                )


def test_table_extension_equals_reference():
    """One params object asked for a large cutoff after a small one, and
    another asked in the reverse order: extending a table and cutting one
    short both give the reference values."""
    tau = 0.13 + 0.6j
    near, far = 0.21 + 0.01j, 0.3 + 1.4j
    probe = EllipticParams(tau=tau)
    assert probe.cutoff(_t_abs(far)) > probe.cutoff(_t_abs(near))
    eigs = {near: [cmath.exp(2j * cmath.pi * near)], far: [3.0, 40.0 + 10j]}
    for order in ((near, far), (far, near)):
        params = EllipticParams(tau=tau)
        for z in order:
            for i in (1, 2, 3, 4):
                assert len(params.factors(i, _t_abs(z))) == ref.cutoff(
                    params, _t_abs(z)
                )
                assert phi_numeric(i, params, z) == ref.phi_numeric(i, params, z)
                assert witten_char(i, eigs[z], params) == ref.witten_numeric(
                    i, eigs[z], params
                )


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_witten_guard_paths_equal_reference(i):
    """Eigenvalues of modulus about 1 take the hoisted guard; one of modulus
    c / |b_1| with c > 1/2 forces the per-factor check, whose raises must
    match too."""
    rng = random.Random(i)
    paths = Counter()
    for _ in range(200):
        params = EllipticParams(tau=_draw_tau(rng))
        q = cmath.exp(2j * cmath.pi * params.tau)
        # b_1 is q^{1/2} or q, up to sign, as the denominators take
        # q^{n-1/2} or q^n
        b1_abs = abs(q / cmath.exp(1j * cmath.pi * params.tau)) if (
            witten.LAYOUT[i][3]) else abs(q)
        xs = [cmath.exp(2j * cmath.pi * complex(rng.uniform(0, 1),
                                                rng.uniform(-0.1, 0.1)))
              for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            phase = cmath.exp(2j * cmath.pi * rng.uniform(0, 1))
            xs.append(rng.uniform(0.6, 4.0) / b1_abs * phase)
        big = max(max(abs(x) for x in xs), 1.0)
        paths[big * b1_abs <= 0.5] += 1
        assert _outcome(witten_char, i, xs, params) == _outcome(
            ref.witten_numeric, i, xs, params
        )
    assert paths[True] and paths[False]


# K-transfer compares chi functions, which evaluate no product
WITHOUT_PRODUCTS = {"K-transfer"}


@pytest.mark.parametrize("suite", zem.SUITE_NAMES)
def test_suite_reports_equal_with_reference_products(suite, monkeypatch):
    def report():
        return zem.identity_check(suite, trials=200).to_json()

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    fast = report()
    monkeypatch.setattr(zem, "phi_numeric", counted("phi", ref.phi_numeric))
    monkeypatch.setattr(zem, "witten_char", counted("witten", ref.witten_numeric))
    assert report() == fast
    assert bool(calls) == (suite not in WITHOUT_PRODUCTS)
