"""The dict row engine that the packed integer rows of the witten module
replaced, kept as the tests' reference.

A term is a monomial c p^k s^j times a product of factors 1 + c p^e s^d,
as in the witten module.  Here its integer Laurent rows are one dict
{s-exponent: int} per p-order, built by ``_accum`` one entry at a time;
``laurent_fraction`` adds terms over the common p-free denominator,
``unit_substitute`` applies s -> -s and s -> i s to the rows, and
``fraction_difference`` compares two fractions by cross-multiplication.
``dense`` writes a dict row in the form that ``witten.decode_row`` gives
and ``RationalFunctionQi.from_integer_laurent`` takes.
"""

from collections import Counter

from elliptica.qseries import SubstitutionError


def laurent_rows(order, numerator, denominator=(), monomial=(0, 0, 1)):
    """Integer Laurent rows of the ``monomial`` (p-power, s-power, sign)
    times the product of the ``numerator`` factors divided by the product
    of the ``denominator`` factors, truncated at ``order``: one dict
    {s-exponent: int} per p-order 0..order."""
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
    """A sum of terms (numerator factors, denominator factors, monomial) as
    (rows, den): integer Laurent rows to ``order`` over one p-free
    s-denominator, a single Laurent row.  The denominator factors with
    e = 0 form the common denominator, in which each factor appears as
    often as in the term that has it most."""
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


def unit_substitute(rows, k):
    """Laurent rows under s -> i^k s, as (j, rows'): rows(i^k s) equals
    i^j rows'(s) with rows' integer.  For odd k every s-exponent must have
    one parity r (SubstitutionError otherwise): j = kr mod 4."""
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
    None, for fractions (rows, den) of ``laurent_fraction`` to one order."""
    (num_l, den_l), (num_r, den_r) = left, right
    sign = -1 if unit % 4 == 2 else 1
    for k, (a, b) in enumerate(zip(num_l, num_r)):
        x, y = _times(a, den_r, sign), _times(b, den_l, 1)
        if (x or y) if unit % 2 else x != y:
            return k
    return None


def unit_difference(order, left, k, right, unit):
    """The first p-order at which the term ``left`` under s -> i^k s and
    i^unit times the term ``right`` differ, or None."""
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


def _accum(dst, src, d, c):
    """dst += c s^d src on Laurent dicts with integer coefficients."""
    for e, v in src.items():
        key = e + d
        new = dst.get(key, 0) + c * v
        if new:
            dst[key] = new
        else:
            del dst[key]


def dense(row):
    """A Laurent dict {s-exponent: int} as (low, coeffs): s^low times the
    integer polynomial ``coeffs``, with no zero at either end; (0, []) for
    the zero row."""
    row = {e: v for e, v in row.items() if v}
    if not row:
        return 0, []
    low = min(row)
    coeffs = [0] * (max(row) - low + 1)
    for e, v in row.items():
        coeffs[e - low] = v
    return low, coeffs
