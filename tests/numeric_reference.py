"""Reference evaluations of the numeric products, one factor at a time.

These are the truncated products that ``elliptic.phi_numeric`` and
``witten.witten_char`` evaluated before they summed two theta series:
every call recomputes q, q^{1/2}, the cutoff and the powers q^n, and
checks every Witten denominator.  The cutoff bounds the tail of the log of
the product by log(1 +- x) <= 2|x| for |x| <= 1/2, below 1e-18 relative;
a ``product_cutoff`` of 0 leaves the prefactor alone.  The series must
agree with them to a relative 1e-13 (tests/test_numeric_tables.py).

``j_factor`` and ``pfaffian`` are the independent side of the identity
j^{-1/2} det^{-1/2} = (-i)^{dim N/2} chi that the acceptance and spinchar
tests check against ``spinchar.chi``; no command of the package needs them.
``angle_os_sign`` is the orientation sign on real angles, the reference
for the integer ``spinchar.os_sign``.
"""

import cmath
import math

from elliptica.elliptic import NUMERIC_TAIL_TARGET, POLE_GUARD, PoleError
from elliptica.spinchar import AngleOnLatticeError, SpinCharError
from elliptica.witten import LAYOUT, WittenDenominatorError


class BranchPointError(SpinCharError):
    """An angle sits where the square-root branch is ambiguous."""


def cutoff(tau, t_abs=1.0, product_cutoff=None):
    if product_cutoff is not None:
        return product_cutoff
    qa = abs(cmath.exp(2j * cmath.pi * tau))
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


def phi_numeric(i, tau, z, product_cutoff=None):
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
    nmax = cutoff(tau, max(abs(t), 1.0 / abs(t)), product_cutoff)
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


def witten_numeric(i, eigenvalues, tau, product_cutoff=None):
    """W_i on the full list of eigenvalues (both of each plane)."""
    xs = [complex(x) for x in eigenvalues]
    if not xs:
        return 1.0 + 0j
    q = cmath.exp(2j * cmath.pi * tau)
    nsign, noff, dsign, doff = LAYOUT[i]
    big = max(max(abs(x) for x in xs), 1.0)
    nmax = cutoff(tau, big, product_cutoff)
    qh = cmath.exp(1j * cmath.pi * tau)
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


def j_factor(R):
    """j^{-1/2}(R) = prod_j phi_j / (2 sin(phi_j/2)), with the removable
    singularity at phi_j = 0 evaluating to 1."""
    out = 1.0 + 0j
    for a in R.entries:
        phi = complex(a)
        sn = cmath.sin(phi / 2.0)
        if abs(phi) < 1e-12:
            continue
        if abs(sn) < 1e-12:
            raise BranchPointError(
                f"angle {phi} is a nonzero multiple of 2 pi: square-root "
                "branch ambiguous"
            )
        out *= phi / (2.0 * sn)
    return out


def angle_os_sign(Y):
    """Ratio of the orientation induced by exp(Y) in Spin(N) to the stored
    one: sign * prod_j sign(sin(phi_j/2)) for real angles."""
    out = Y.orientation_sign
    for a in Y.entries:
        phi = complex(a)
        if abs(phi.imag) > 1e-12:
            raise SpinCharError("os_sign needs real angles")
        sn = math.sin(phi.real / 2.0)
        if abs(sn) < 1e-12:
            raise AngleOnLatticeError(
                f"angle {phi.real} lies in 2 pi Z: exp(Y) does not orient"
            )
        if sn < 0:
            out = -out
    return out


def pfaffian(R):
    """det^{1/2} with respect to the stored orientation: sign * prod phi_j."""
    out = complex(R.orientation_sign)
    for a in R.entries:
        out *= complex(a)
    return out
