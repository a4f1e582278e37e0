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
coefficient inside Q(i)(s), and an integer truncation order;
``witten_char`` takes complex eigenvalues and an ``EllipticParams``.
``laurent_rows`` is the workbench's one exact product engine: the theta
quotients, their bare numerator/denominator products, the exact Z-series
and the fixed-point sums of the indices are all built through it.  A term
is a monomial c p^k s^j times a product of factors 1 + c p^e s^d, kept as
integer Laurent rows, one dict {s-exponent: int} per p-order.
``laurent_fraction`` adds terms over one common denominator of the
factors with e = 0: integer rows over one integer s-denominator row, the
form in which every exact check is stated.  ``laurent_sum`` is the only
place where rows become rational functions: it reduces each coefficient
of that fraction once, an integer row over the integer denominator, with
a gcd over Z[s] (``RationalFunctionQi.from_integer_laurent``) and no
arithmetic over Q(i).  ``regrade_factors`` applies the lattice
translation s -> p^m s to the factors themselves, before any product is
formed; ``unit_substitute`` applies s -> -s and s -> i s to rows, and
``fraction_difference`` compares two fractions by cross-multiplication,
so no check reduces a coefficient.
"""

from __future__ import annotations

from collections import Counter

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


def laurent_rows(order, numerator, denominator=(), monomial=(0, 0, 1)):
    """Integer Laurent rows of the ``monomial`` (p-power, s-power, sign)
    times the product of the ``numerator`` factors divided by the product
    of the ``denominator`` factors, truncated at ``order``: one dict
    {s-exponent: int} per p-order 0..order.

    Each factor is a triple (e, d, c) with c an integer, standing for
    1 + c p^e s^d, e >= 0 in the numerator and e >= 1 in the denominator,
    where a factor is applied as its geometric series (SubstitutionError
    for e <= 0).  The coefficient of
    p^k is the Laurent polynomial sum_d rows[k][d] s^d, exactly.  The rows
    start from the monomial, whose p-power must be >= 0 (SubstitutionError
    otherwise), since they hold nothing below p^0.  An order below 0 raises
    ValueError: with no rows, a check built on them would compare nothing.
    """
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    p_pow, s_pow, sign = monomial
    if p_pow < 0:
        raise SubstitutionError(f"p^{p_pow} would need rows below p^0")
    rows = [dict() for _ in range(order + 1)]
    if p_pow <= order:
        rows[p_pow][s_pow] = sign
    for factor in numerator:
        multiply_factor(rows, *factor)
    for factor in denominator:
        divide_factor(rows, *factor)
    return rows


def multiply_factor(rows, e, d, c):
    """Multiply Laurent rows in place by 1 + c p^e s^d (e >= 0)."""
    for k in range(len(rows) - 1, e - 1, -1):
        src = rows[k - e]
        if src:
            # e = 0 reads the row it writes, so it reads a copy
            _accum(rows[k], src if e else dict(src), d, c)


def divide_factor(rows, e, d, c):
    """Divide Laurent rows in place by 1 + c p^e s^d (e >= 1), that is,
    multiply by its geometric series."""
    if e < 1:
        raise SubstitutionError(
            f"divided factor (1 + {c} p^{e} s^{d}) has no geometric series "
            "in p: it needs e >= 1"
        )
    for k in range(e, len(rows)):
        src = rows[k - e]
        if src:
            _accum(rows[k], src, d, -c)


def laurent_fraction(order, terms):
    """A sum of terms (numerator factors, denominator factors, monomial),
    each standing for the monomial times ``laurent_rows`` of its factors,
    as (rows, den): integer Laurent rows to ``order`` over one p-free
    s-denominator, a single Laurent row.

    Denominator factors with e = 0 are not expanded in p: they form the
    common denominator, in which each factor appears as often as in the
    term that has it most, and every term's rows are multiplied by the part
    of it that the term lacks.
    """
    owns = [Counter((d, c) for e, d, c in den if not e) for _, den, _ in terms]
    common = Counter()
    for own in owns:
        common |= own
    total = [dict() for _ in range(order + 1)]
    for (numerator, denominator, monomial), own in zip(terms, owns):
        missing = [(0, d, c) for d, c in (common - own).elements()]
        denominator = [f for f in denominator if f[0]]
        rows = laurent_rows(order, [*numerator, *missing], denominator, monomial)
        for dst, src in zip(total, rows):
            _accum(dst, src, 0, 1)
    (den,) = laurent_rows(0, [(0, d, c) for d, c in common.elements()])
    return total, den


def laurent_sum(order, terms):
    """The PSeries over Q(i)(s), truncated at ``order``, of a sum of terms:
    ``laurent_fraction`` with each coefficient reduced once, over Z[s]."""
    rows, den = laurent_fraction(order, terms)
    return PSeries(
        [RationalFunctionQi.from_integer_laurent(row, den) for row in rows], order
    )


def unit_substitute(rows, k):
    """Laurent rows under s -> i^k s, as (j, rows'): rows(i^k s) equals
    i^j rows'(s) with rows' integer.

    Each s^d entry picks up i^{kd}.  For even k that is (-1)^{kd/2} and
    j = 0.  For odd k every s-exponent must have one parity r
    (SubstitutionError otherwise), as those of a theta quotient or a
    Z-series do: j = kr mod 4 and the entry keeps i^{k(d - r)} = +-1.
    """
    parities = {d % 2 for row in rows for d in row} if k % 2 else set()
    if len(parities) > 1:
        raise SubstitutionError(
            f"s -> i^{k} s on rows with s-exponents of both parities"
        )
    r = parities.pop() if parities else 0
    return k * r % 4, [
        {d: -v if k * (d - r) // 2 % 2 else v for d, v in row.items()}
        for row in rows
    ]


def fraction_difference(left, right, unit=0):
    """The first p-order at which i^unit N_L / D_L and N_R / D_R differ, or
    None, for fractions (rows, den) of ``laurent_fraction`` to one order.

    The denominators are free of p, so the p-orders at which the two sides
    differ are those at which N_L D_R and N_R D_L do, and no coefficient is
    reduced.  For odd ``unit`` integer rows agree only where both vanish.
    """
    (num_l, den_l), (num_r, den_r) = left, right
    sign = -1 if unit % 4 == 2 else 1
    for k, (a, b) in enumerate(zip(num_l, num_r)):
        x, y = _times(a, den_r, sign), _times(b, den_l, 1)
        if (x or y) if unit % 2 else x != y:
            return k
    return None


def unit_difference(order, left, k, right, unit):
    """The first p-order at which the term ``left`` under s -> i^k s and
    i^unit times the term ``right`` differ, or None: ``fraction_difference``
    of the two ``laurent_fraction``s, the left one through
    ``unit_substitute``.  A denominator is a product of factors 1 + c s^d,
    so its constant term is 1 and no power of i factors out of it."""
    rows, den = laurent_fraction(order, [left])
    j, rows = unit_substitute(rows, k)
    _, (den,) = unit_substitute([den], k)
    return fraction_difference(
        (rows, den), laurent_fraction(order, [right]), j - unit
    )


def _times(row, den, c):
    """c * row * den on Laurent dicts with integer coefficients."""
    out = {}
    for d, v in den.items():
        _accum(out, row, d, c * v)
    return out


def witten_exact(i, weights, order):
    """Character of W_{i,q} on integer weights w (eigenvalues s^{2w}): a
    PSeries over Q(i)(s) truncated at ``order``."""
    if i not in LAYOUT:
        raise ValueError("Witten series index must be 1..4")
    for w in weights:
        if not isinstance(w, int):
            raise ValueError(
                "exact Witten characters need integer weights (eigenvalue "
                f"s^(2w)); got {w!r}"
            )
    return laurent_sum(order, [(*witten_factors(i, weights, order), (0, 0, 1))])


def _accum(dst, src, d, c):
    """dst += c s^d src on Laurent dicts with integer coefficients."""
    for e, v in src.items():
        key = e + d
        new = dst.get(key, 0) + c * v
        if new:
            dst[key] = new
        else:
            del dst[key]


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
