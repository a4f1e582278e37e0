"""Reference evaluations of the numeric products, one factor at a time.

These are the per-call loops that ``elliptic.phi_numeric`` and
``witten.witten_char`` ran before the per-tau factor tables of
``EllipticParams``: every call recomputes q, q^{1/2}, the cutoff and the
powers q^n, and checks every Witten denominator.  The tables keep the
operands and the order of every float operation, so the two must agree
exactly, not to a tolerance (tests/test_numeric_tables.py).
"""

import cmath
import math

from elliptica.elliptic import NUMERIC_TAIL_TARGET, POLE_GUARD, PoleError
from elliptica.witten import LAYOUT, WittenDenominatorError


def cutoff(params, t_abs=1.0):
    if params.product_cutoff is not None:
        return params.product_cutoff
    qa = abs(cmath.exp(2j * cmath.pi * params.tau))
    scale = 2.0 * (t_abs + 1.0 / t_abs) / (1.0 - qa)
    n = math.log(NUMERIC_TAIL_TARGET / scale) / math.log(qa)
    return max(8, int(math.ceil(n)))


def _pole_shift(i, tau):
    if i == 1:
        return 0j
    if i == 2:
        return 0.5 + 0j
    if i == 3:
        return tau / 2.0
    return 0.5 + tau / 2.0


def _lattice_distance(w, tau):
    y = w.imag / tau.imag
    x = w.real - y * tau.real
    dx = x - round(x)
    dy = y - round(y)
    return abs(dx + dy * tau)


def phi_numeric(i, params, z):
    tau = params.tau
    z = complex(z)
    dist = _lattice_distance(z - _pole_shift(i, tau), tau)
    if dist < POLE_GUARD:
        raise PoleError(f"phi_{i} evaluated within {dist:.2e} of a pole", dist)
    s = cmath.exp(1j * cmath.pi * z)
    t = s * s
    if i == 1:
        pref = 1.0 / (1.0 / s - s)
    elif i == 2:
        pref = 1.0 / (s + 1.0 / s)
    elif i == 3:
        pref = s + 1.0 / s
    elif i == 4:
        pref = s - 1.0 / s
    else:
        raise ValueError("phi index must be 1..4")
    q = cmath.exp(2j * cmath.pi * tau)
    qh = cmath.exp(1j * cmath.pi * tau)
    nsign, noff, dsign, doff = LAYOUT[i]
    nmax = cutoff(params, max(abs(t), 1.0 / abs(t)))
    out = pref
    qn = 1.0 + 0j
    ti = 1.0 / t
    for n in range(1, nmax + 1):
        qn *= q
        qnum = qn / qh if noff else qn
        qden = qn / qh if doff else qn
        out *= (1.0 + nsign * qnum * t) * (1.0 + nsign * qnum * ti)
        den = (1.0 - dsign * qden * t) * (1.0 - dsign * qden * ti)
        out /= den
    return out


def witten_numeric(i, eigenvalues, params):
    xs = [complex(x) for x in eigenvalues]
    if not xs:
        return 1.0 + 0j
    q = cmath.exp(2j * cmath.pi * params.tau)
    nsign, noff, dsign, doff = LAYOUT[i]
    big = max(max(abs(x) for x in xs), 1.0)
    nmax = cutoff(params, big)
    qh = cmath.exp(1j * cmath.pi * params.tau)
    out = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, nmax + 1):
        qn *= q
        qnum = qn / qh if noff else qn
        qden = qn / qh if doff else qn
        for x in xs:
            out *= 1.0 + nsign * qnum * x
            den = 1.0 - dsign * qden * x
            if abs(den) < 1e-12:
                raise WittenDenominatorError(
                    f"denominator factor vanishes at n = {n} "
                    f"(|1 - ({dsign}) q^... x| = {abs(den):.2e})",
                    n,
                )
            out /= den
    return out
