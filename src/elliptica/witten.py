"""Characters of the four infinite tensor-product series W_{i,q}(V).

For g acting on V with multiplicative eigenvalues x the traces are

    i=1:  prod_n det(1+q^{n-1/2}g) / det(1-q^{n}g)
    i=2:  prod_n det(1-q^{n-1/2}g) / det(1+q^{n}g)
    i=3:  prod_n det(1+q^{n}g)     / det(1-q^{n-1/2}g)
    i=4:  prod_n det(1-q^{n}g)     / det(1+q^{n-1/2}g)

understood as Taylor series at q = 0.  Characters are computed from the
eigenvalue list, never from matrices.

Exact backend: eigenvalues are integers w standing for the monomials
s^{2w} = e^{2 i pi w z} (complexified rotation data), which keeps every
coefficient inside Q(i)(s); anything else belongs to the numeric backend.
``laurent_product`` is the workbench's one exact product engine: the theta
quotients, their bare numerator/denominator products and the exact
Z-series are all built through it.
"""

from __future__ import annotations

import cmath

from .ring import GaussianRational, RationalFunctionQi
from .qseries import PSeries

# (numerator sign, numerator offset, denominator sign, denominator offset);
# p-exponents run over 4n + offset, offset -2 marks the q^{n-1/2} family.
# The theta quotients of the elliptic module share this table: phi_i is
# its prefactor times the character on the weights (1, -1).
LAYOUT = {
    1: (+1, -2, +1, 0),
    2: (-1, -2, -1, 0),
    3: (+1, 0, +1, -2),
    4: (-1, 0, -1, -2),
}


class WittenDenominatorError(ValueError):
    """A denominator factor det(1 -+ q^n g) vanished."""

    def __init__(self, message, n):
        super().__init__(message)
        self.n = n


_GR_ONE = GaussianRational.one()


def _exponents(offset, order):
    """The p-exponents 4n + offset (n >= 1) up to ``order``."""
    return range(4 + offset, order + 1, 4)


def witten_factors(i, weights, order):
    """Numerator and denominator factors of W_i on integer weights below
    p-order ``order``: triples (e, d, c) standing for 1 + c p^e s^d."""
    nsign, noff, dsign, doff = LAYOUT[i]
    num = [(e, 2 * w, nsign) for e in _exponents(noff, order) for w in weights]
    den = [(e, 2 * w, -dsign) for e in _exponents(doff, order) for w in weights]
    return num, den


def laurent_product(order, numerator, denominator=()):
    """The PSeries over Q(i)(s), truncated at ``order``, of the product of
    the ``numerator`` factors divided by the product of the ``denominator``
    factors, each a triple (e, d, c) with e >= 1 standing for 1 + c p^e s^d.

    Coefficients stay Laurent dicts {s-exponent: Q(i)} while multiplying;
    a denominator factor is applied as its geometric series.
    """
    ls = [dict() for _ in range(order + 1)]
    ls[0][0] = _GR_ONE
    for e, d, c in numerator:
        for k in range(order, e - 1, -1):
            src = ls[k - e]
            if src:
                _accum(ls[k], src, d, c)
    for e, d, c in denominator:
        for k in range(e, order + 1):
            src = ls[k - e]
            if src:
                _accum(ls[k], src, d, -c)
    return PSeries([RationalFunctionQi.from_laurent(slot) for slot in ls], order)


def witten_char(i, eigenvalues, params, backend="numeric"):
    """Character of W_{i,q} on the representation with the given eigenvalue
    list; PSeries over Q(i)(s) in the exact backend, complex otherwise."""
    if i not in LAYOUT:
        raise ValueError("Witten series index must be 1..4")
    if backend == "exact":
        return _witten_exact(i, eigenvalues, params.require_order())
    if backend == "numeric":
        return _witten_numeric(i, eigenvalues, params)
    raise ValueError(f"unknown backend {backend!r}")


def _witten_exact(i, weights, order):
    for w in weights:
        if not isinstance(w, int):
            raise ValueError(
                "exact Witten characters need integer weights (eigenvalue "
                f"s^(2w)); got {w!r}"
            )
    return laurent_product(order, *witten_factors(i, weights, order))


def _accum(dst, src, d, sign):
    for e, c in src.items():
        key = e + d
        val = c if sign > 0 else -c
        old = dst.get(key)
        if old is None:
            dst[key] = val
        else:
            new = old + val
            if new:
                dst[key] = new
            else:
                del dst[key]


def _witten_numeric(i, eigenvalues, params):
    xs = [complex(x) for x in eigenvalues]
    if not xs:
        return 1.0 + 0j
    q = params.q
    nsign, noff, dsign, doff = LAYOUT[i]
    big = max(max(abs(x) for x in xs), 1.0)
    nmax = params.cutoff(big)
    # q^{1/2} taken as e^{i pi tau}, not a principal-branch power
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
