"""Characters of the four infinite tensor-product series W_{i,q}(V).

For g acting on V with multiplicative eigenvalues x the traces are

    i=1:  prod_n det(1+q^{n-1/2}g) / det(1-q^{n}g)
    i=2:  prod_n det(1-q^{n-1/2}g) / det(1+q^{n}g)
    i=3:  prod_n det(1+q^{n}g)     / det(1-q^{n-1/2}g)
    i=4:  prod_n det(1-q^{n}g)     / det(1+q^{n-1/2}g)

understood as Taylor series at q = 0.  Characters are computed from the
eigenvalue list, never from matrices.

``witten_exact`` takes integer weights w standing for the monomials
s^{2w} = e^{2 i pi w z} (complexified rotation data), which keeps every
coefficient inside Q(s), and an integer truncation order;
``witten_char`` takes complex eigenvalues and an ``EllipticParams``.
``laurent_rows`` is the workbench's one exact product engine: the theta
quotients, their bare numerator/denominator products, the exact Z-series
and the fixed-point sums of the indices are all built through it.  A term
is a monomial c p^k s^j times a product of factors 1 + c p^e s^d; terms
with the same factors are expanded once, from the sum of their monomials,
as packed integer rows: the coefficient of p^k, a Laurent polynomial in s
with integer coefficients, is the one int sum_j a_j 2^{B (j + off)}
(Kronecker substitution s = 2^B).  ``row_layout`` fixes the digit width B
and the offset off before any product is formed, from a coefficient bound
and a lowest s-exponent that run the product's loops on one small number
per row; every row that is added to or compared with another shares
them.  A factor then costs one shift and one add per row.
``laurent_fraction`` adds terms over one common denominator of the
factors with e = 0: packed rows over p-free factors 1 + c s^d, the form
in which every exact check is stated.  ``laurent_sum`` is the only place
where rows become rational functions: it decodes each row once
(``decode_row``) and reduces it once, an integer row over the integer
denominator, with a gcd over Z[s] (``RationalFunctionQi.from_integer_laurent``)
and no arithmetic over Q(i).  ``regrade_factors`` applies the lattice
translation s -> p^m s, and ``unit_substitute`` s -> -s and s -> i s, to
the factors themselves, before any product is formed;
``fraction_difference`` compares two sums by cross-multiplication, each
side's rows times the other side's denominator factors, as ints, so no
check decodes a row or reduces a coefficient.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import add, lshift, mul, rshift, sub
from typing import NamedTuple

from .ring import RationalFunctionQi
from .qseries import PSeries, SubstitutionError

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


def regrade_factors(factors, m, order, divided=False):
    """The substitution s -> p^m s on factors (e, d, c) = 1 + c p^e s^d.

    Each factor goes to 1 + c p^{e+md} s^d.  For c = +-1 a negative
    exponent e' = e + md is cleared by 1 + c x = c x (1 + c x^{-1}): the
    factor becomes the monomial c p^{e'} s^d times (-e', -d, c).  Returns
    ((p-power, s-power, sign), factors): the product of those monomials and
    the regraded factors with exponent <= ``order``, so the product is
    exact to ``order`` whenever the caller's input held every factor with
    e <= order + m * max|d|.  Factors to be ``divided`` must land at e' >= 1
    (``divide_factor``); one that would not, flipped or not, raises
    SubstitutionError.
    """
    p_pow = s_pow = 0
    sign = 1
    out = []
    for e, d, c in factors:
        e2 = e + m * d
        if divided and e2 < 1:
            raise SubstitutionError(
                f"divided factor (1 + {c} p^{e} s^{d}) lands at p^{e2} under "
                f"s -> p^{m} s"
            )
        if e2 < 0:
            if c not in (1, -1):
                raise SubstitutionError(
                    f"factor (1 + {c} p^{e} s^{d}) needs a flip, which holds "
                    "only for c = +-1"
                )
            p_pow, s_pow, sign = p_pow + e2, s_pow + d, sign * c
            e2, d = -e2, -d
        if e2 <= order:
            out.append((e2, d, c))
    return (p_pow, s_pow, sign), out


class RowLayout(NamedTuple):
    """Where packed rows keep their coefficients: the coefficient of s^j is
    the signed digit of ``width`` bits at position (j + offset) / s_step,
    and only the p-orders of one class mod ``p_step`` can be nonzero."""

    width: int
    offset: int
    s_step: int
    p_step: int


def row_layout(order, products):
    """The one ``RowLayout`` of the rows of ``products`` to ``order``: every
    row of every product, at every stage, and their sum fit it.

    The steps are the gcds of the factors' exponents of s and of p and of
    the differences of the monomials' ones: every exponent of every row
    lies in one class mod s_step, and only that class gets digits; every
    nonzero row lies in one class mod p_step, and only those rows are
    looped over.  The width holds the sum of the products' coefficient
    bounds, with a sign bit, so that two rows differ as integers exactly
    where they differ as Laurent polynomials; it is a whole number of
    bytes, which ``decode_row`` slices.  The offset lifts the lowest
    s-exponent of any row to position 0, so a shift towards lower exponents
    drops only zero digits.  An order below 0 raises ValueError: with no
    rows, a check built on them would compare nothing.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    p_first, s_first, _ = products[0][2][0] if products else (0, 0, 1)
    p_step = s_step = 0
    for numerator, denominator, monomials in products:
        factors = (*numerator, *denominator)
        p_step = math.gcd(p_step, *[f[0] for f in factors],
                          *[m[0] - p_first for m in monomials])
        s_step = math.gcd(s_step, *[f[1] for f in factors],
                          *[m[1] - s_first for m in monomials])
    p_step, s_step = p_step or 1, s_step or 1
    low, size = math.inf, 0
    for product in products:
        product_low, product_size = _bounds(order, product, p_step)
        low, size = min(low, product_low), size + product_size
    width = -(-(size.bit_length() + 1) // 8) * 8
    return RowLayout(width, 0 if low == math.inf else -low, s_step, p_step)


def _bounds(order, product, p_step):
    """(lowest s-exponent, coefficient bound) of the rows of ``product`` to
    ``order``, from the loops of ``laurent_rows`` on one number per row.

    The bound of row k is the coefficient of p^k in the product with each
    factor 1 + c p^e s^d replaced by 1 + |c| p^e and each monomial by 1: it
    bounds the sum of the absolute values of the row's coefficients at
    every stage.  The lowest exponent is the least sum of the d of a choice
    of factors, each numerator factor at most once, whose p-exponents fit
    between a monomial and the order, plus that monomial's s-exponent: the
    same loops with min and + in place of + and *, over the factors with
    d < 0 only, on the lowest exponent reachable within each p-exponent.
    It never rises from one stage to the next, so its last value holds at
    all of them.  Factors with e = 0 touch every row alike and are kept
    aside as a scale and a drop.
    """
    numerator, denominator, monomials = product
    for p_pow, _, _ in monomials:
        if p_pow < 0:
            raise SubstitutionError(f"p^{p_pow} would need rows below p^0")
    for e, d, c in denominator:
        if e < 1:
            raise SubstitutionError(
                f"divided factor (1 + {c} p^{e} s^{d}) has no geometric series "
                "in p: it needs e >= 1"
            )
    live = [m for m in monomials if m[0] <= order]
    if not live:
        return math.inf, 0
    base = min(p_pow for p_pow, _, _ in live)
    n = (order - base) // p_step + 1
    size = [0] * n
    for p_pow, _, _ in live:
        size[(p_pow - base) // p_step] += 1
    low = [0] * n
    scale, drop = 1, 0
    for e, d, c in numerator:
        a = abs(c)
        if not e:
            scale, drop = scale * (1 + a), drop + min(d, 0)
            continue
        e //= p_step
        size[e:] = map(add, size[e:], size if a == 1 else [a * y for y in size])
        if d < 0:
            low[e:] = [y + d if y + d < x else x for x, y in zip(low[e:], low)]
    for e, d, c in denominator:
        a, e = abs(c), e // p_step
        for k in range(e, n):
            size[k] += a * size[k - e]
        if d < 0:
            for k in range(e, n):
                y = low[k - e] + d
                if y < low[k]:
                    low[k] = y
    lowest = min(s_pow + low[(order - p_pow) // p_step] for p_pow, s_pow, _ in live)
    return lowest + drop, scale * max(size)


def laurent_rows(order, product, layout):
    """The packed rows of ``product`` = (numerator factors, denominator
    factors, monomials) to ``order``, one int per p-order 0..order, in a
    ``layout`` that ``row_layout`` gave for it.

    The product is the sum of the monomials (p-power, s-power, sign) times
    the product of the numerator factors divided by the product of the
    denominator factors; each factor is a triple (e, d, c) with c an
    integer, standing for 1 + c p^e s^d, e >= 0 in the numerator and e >= 1
    in the denominator, where it is applied as its geometric series.  Row k
    holds the coefficient of p^k, the Laurent polynomial sum_j a_j s^j, as
    the int sum_j a_j 2^{width (j + offset) / s_step}: multiplying by s^d
    is a shift by width * d / s_step bits, and a factor costs one shift and
    one add per row.
    """
    numerator, denominator, monomials = product
    width, offset, s_step, p_step = layout
    out = [0] * (order + 1)
    live = [m for m in monomials if m[0] <= order]
    if not live:
        return out
    base = min(p_pow for p_pow, _, _ in live)
    n = (order - base) // p_step + 1
    rows = [0] * n
    for p_pow, s_pow, sign in live:
        rows[(p_pow - base) // p_step] += sign << width * ((s_pow + offset) // s_step)
    for e, d, c in numerator:
        shift = width * (d // s_step)
        if e:
            e //= p_step
            rows[e:] = _added(rows[e:], rows[: n - e], shift, c)
        else:
            rows = list(_added(rows, rows, shift, c))
    for e, d, c in denominator:
        shift, e = width * (d // s_step), e // p_step
        for k in range(e, n):
            y = rows[k - e]
            if y:
                y = y << shift if shift >= 0 else y >> -shift
                if c == 1:
                    rows[k] -= y
                elif c == -1:
                    rows[k] += y
                else:
                    rows[k] -= c * y
    out[base::p_step] = rows
    return out


def _added(dst, src, shift, c):
    """Each row of ``dst`` plus c 2^shift times the row of ``src`` at its
    index: a product's step x += c s^d y on packed rows (shift = width d /
    s_step).  A negative shift drops zero digits only, as the layout's
    offset keeps every exponent of every row >= 0."""
    if shift >= 0:
        moved = map(lshift, src, repeat(shift))
    else:
        moved = map(rshift, src, repeat(-shift))
    if c == 1:
        return map(add, dst, moved)
    if c == -1:
        return map(sub, dst, moved)
    return map(add, dst, map(mul, repeat(c), moved))


def decode_row(row, layout):
    """The Laurent polynomial {s-exponent: int} of a packed row.

    Adding 2^(width-1) to every digit makes every digit nonnegative, so the
    bytes of the sum are the digits side by side: the conversion is linear
    in the size of the row (a decimal string would not be, and Python caps
    its length).
    """
    if not row:
        return {}
    width, offset, s_step, _ = layout
    size, half = width // 8, 1 << width - 1
    blank = half.to_bytes(size, "little")  # a zero digit, biased
    low = ((row & -row).bit_length() - 1) // width  # the digits below are 0
    row >>= width * low
    digits = abs(row).bit_length() // width + 2
    raw = (row + int.from_bytes(blank * digits, "little")).to_bytes(
        size * digits, "little"
    )
    chunks = (raw[i : i + size] for i in range(0, len(raw), size))
    return {
        (low + j) * s_step - offset: int.from_bytes(chunk, "little") - half
        for j, chunk in enumerate(chunks)
        if chunk != blank
    }


def _products(terms):
    """A sum of terms (numerator factors, denominator factors, monomial) as
    products over one common p-free denominator, as (products, den).

    Terms with the same factors form one product (numerator, denominator,
    monomials), expanded once.  The denominator factors with e = 0 form the
    Counter ``den`` {(d, c): multiplicity} of factors 1 + c s^d, in which
    each factor appears as often as in the product that has it most, and
    each product takes the part of ``den`` that it lacks as numerator
    factors.
    """
    grouped = {}
    for numerator, denominator, monomial in terms:
        grouped.setdefault((tuple(numerator), tuple(denominator)), []).append(monomial)
    owns = [Counter((d, c) for e, d, c in den if not e) for _, den in grouped]
    common = Counter()
    for own in owns:
        common |= own
    products = [
        (
            [*((0, d, c) for d, c in (common - own).elements()), *numerator],
            [f for f in denominator if f[0]],
            monomials,
        )
        for ((numerator, denominator), monomials), own in zip(grouped.items(), owns)
    ]
    return products, common


def _summed_rows(order, products, layout):
    """The sum of the packed rows of ``products``, one int per p-order."""
    total = [0] * (order + 1)
    for product in products:
        rows = laurent_rows(order, product, layout)
        total = [x + y if x else y for x, y in zip(total, rows)]
    return total


def laurent_fraction(order, terms):
    """A sum of terms (numerator factors, denominator factors, monomial) as
    (rows, den, layout): the packed rows of the sum to ``order``, in
    ``layout``, over one p-free denominator ``den``, a Counter
    {(d, c): multiplicity} of factors 1 + c s^d.

    Denominator factors with e = 0 are not expanded in p: they form the
    common denominator, and every term is multiplied by the part of it that
    the term lacks (``_products``).
    """
    products, den = _products(terms)
    layout = row_layout(order, products)
    return _summed_rows(order, products, layout), den, layout


def laurent_sum(order, terms):
    """The PSeries over Q(s), truncated at ``order``, of a sum of terms:
    ``laurent_fraction`` with each row decoded once and reduced once over
    Z[s] (``RationalFunctionQi.from_integer_laurent``)."""
    rows, den, layout = laurent_fraction(order, terms)
    den = ([(0, d, c) for d, c in den.elements()], (), [(0, 0, 1)])
    den_layout = row_layout(0, [den])
    den = decode_row(laurent_rows(0, den, den_layout)[0], den_layout)
    return PSeries(
        [
            RationalFunctionQi.from_integer_laurent(decode_row(row, layout), den)
            for row in rows
        ],
        order,
    )


def unit_substitute(term, k):
    """A term under s -> i^k s, as (j, term'): term(i^k s) equals
    i^j term'(s), with j in {0, 1} and term' a term with integer factors.

    Each factor 1 + c p^e s^d becomes 1 + c i^{kd} p^e s^d, which needs kd
    even (SubstitutionError otherwise), as it is for the factors of a theta
    quotient or a Z-series; the monomial's s^m picks up i^{km}, of which
    i^j, j = km mod 2, is factored out and the sign keeps the rest.
    """

    def substituted(factors):
        out = []
        for e, d, c in factors:
            if k * d % 2:
                raise SubstitutionError(
                    f"s -> i^{k} s on the factor (1 + {c} p^{e} s^{d}) needs "
                    "an odd power of i"
                )
            out.append((e, d, -c if k * d // 2 % 2 else c))
        return out

    numerator, denominator, (p_pow, s_pow, sign) = term
    j = k * s_pow % 2
    if (k * s_pow - j) // 2 % 2:
        sign = -sign
    return j, (substituted(numerator), substituted(denominator), (p_pow, s_pow, sign))


def fraction_difference(order, left, right, unit=0):
    """The first p-order through ``order`` at which i^unit times the sum of
    the terms ``left`` and the sum of the terms ``right`` differ, or None.

    Each side is its packed rows N over its common p-free denominator D, so
    the sides differ where N_L D_R and N_R D_L do.  Each side's products
    take the factors of the other side's denominator that its own lacks as
    numerator factors (1 + c s^d, one shift-add per row), both sides share
    one layout, and their rows are compared as ints: no row is decoded and no
    coefficient is reduced.  For odd ``unit`` integer rows agree only where
    both vanish.
    """
    left, den_l = _products(left)
    right, den_r = _products(right)
    left = _times_factors(left, den_r - den_l)
    right = _times_factors(right, den_l - den_r)
    layout = row_layout(order, left + right)
    sign = -1 if unit % 4 == 2 else 1
    rows = zip(_summed_rows(order, left, layout), _summed_rows(order, right, layout))
    for k, (x, y) in enumerate(rows):
        if (x or y) if unit % 2 else sign * x != y:
            return k
    return None


def _times_factors(products, factors):
    """Each product times the p-free factors 1 + c s^d of the Counter
    ``factors``, as numerator factors."""
    extra = [(0, d, c) for d, c in factors.elements()]
    return [([*extra, *num], den, monomials) for num, den, monomials in products]


def unit_difference(order, left, k, right, unit):
    """The first p-order at which the term ``left`` under s -> i^k s and
    i^unit times the term ``right`` differ, or None: ``fraction_difference``
    of the two terms, the left one through ``unit_substitute``."""
    j, left = unit_substitute(left, k)
    return fraction_difference(order, [left], [right], j - unit)


def witten_exact(i, weights, order):
    """Character of W_{i,q} on integer weights w (eigenvalues s^{2w}): a
    PSeries over Q(s) truncated at ``order``."""
    if i not in LAYOUT:
        raise ValueError("Witten series index must be 1..4")
    for w in weights:
        if not isinstance(w, int):
            raise ValueError(
                "exact Witten characters need integer weights (eigenvalue "
                f"s^(2w)); got {w!r}"
            )
    return laurent_sum(order, [(*witten_factors(i, weights, order), (0, 0, 1))])




def witten_char(i, eigenvalues, params):
    """Character of W_{i,q} on the representation with the given complex
    eigenvalue list, from the factor table of ``params``."""
    if i not in LAYOUT:
        raise ValueError("Witten series index must be 1..4")
    xs = [complex(x) for x in eigenvalues]
    if not xs:
        return 1.0 + 0j
    big = max(max(abs(x) for x in xs), 1.0)
    table = params.factors(i, big)
    out = 1.0 + 0j
    if not table or big * abs(table[0][1]) <= 0.5:
        # |b_n| <= |b_1| for every n, so no |1 - b_n x| is below 1/2
        for a, b in table:
            for x in xs:
                out *= 1.0 + a * x
                out /= 1.0 - b * x
        return out
    for n, (a, b) in enumerate(table, 1):
        for x in xs:
            out *= 1.0 + a * x
            den = 1.0 - b * x
            if abs(den) < 1e-12:
                raise WittenDenominatorError(
                    f"denominator factor vanishes at n = {n} "
                    f"(|1 - ({LAYOUT[i][2]}) q^... x| = {abs(den):.2e})",
                    n,
                )
            out /= den
    return out
