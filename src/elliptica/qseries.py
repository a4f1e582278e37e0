"""Truncated formal power series in p = q^(1/4) over Q(s).

A ``PSeries`` holds coefficients for p^0 .. p^M with M the explicit
truncation order.  It is a value type, like its coefficients: the
workbench builds every series at once from integer rows
(``witten.laurent_sum``, whose coefficients are ``RationalFunctionQi``),
then compares, evaluates and prints it; no series arithmetic is needed.
The truncated arithmetic and inversion are kept in
tests/series_reference.py as the reference for that path.

The p-grading is global for the whole workbench: q itself sits at p^4, the
half-period factor q^(1/4) at p^1, and series given in powers of q^(1/2)
occupy the even p-orders.

Lattice translations of z (s = e^{i pi z}) act on series over Q(s) as
substitutions in s: s -> -s, s -> i s and s -> p^m s.  The exact checks
never apply them to a series, whose truncation hides the tail that a
regrading would bring down; they act on the product factors of the
witten module (``unit_substitute``, ``regrade``) before any row is
formed, and raise ``SubstitutionError`` for what they cannot represent.
"""

from __future__ import annotations


class QSeriesError(ValueError):
    """Base class for series-layer errors."""


class SubstitutionError(QSeriesError):
    """A substitution would need negative p-exponents, a factor it cannot
    flip or divide, or a power of i it cannot factor out."""


class PSeries:
    """Truncated series sum_{k=0..M} c_k p^k with exact coefficients."""

    __slots__ = ("coeffs", "truncation_order")

    def __init__(self, coeffs, truncation_order=None):
        coeffs = tuple(coeffs)
        if truncation_order is None:
            truncation_order = len(coeffs) - 1
        if truncation_order < 0:
            raise QSeriesError("truncation order must be >= 0")
        if len(coeffs) != truncation_order + 1:
            raise QSeriesError(
                f"coefficient list has length {len(coeffs)}, "
                f"expected {truncation_order + 1}"
            )
        self.coeffs = coeffs
        self.truncation_order = truncation_order

    # -- structure -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return (
            self.truncation_order == other.truncation_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.truncation_order, self.coeffs))

    def evaluate(self, s0, p0):
        """Numeric value sum c_k(s0) p0^k (coefficients must be rational
        functions)."""
        out = 0j
        pw = 1.0 + 0j
        for c in self.coeffs:
            if c:
                out += c.evaluate(s0) * pw
            pw *= p0
        return out

    def to_json(self):
        return {
            "truncation_order": self.truncation_order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if k == 0:
                terms.append(cs)
            else:
                terms.append(f"({cs})*p^{k}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"<PSeries order {self.truncation_order}: {self}>"

