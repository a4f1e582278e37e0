"""Rotation data for torus elements of so(N): spinor traces, chi functions,
and every orientation sign the index formulas need.

A ``RotationData`` lists one scalar per 2-plane plus a single orientation
sign relative to the listed planes.  Two readings of the entries coexist:

* numeric operations read an entry as the SO(2)-angle phi of its plane
  (complex angles are allowed); the Spin-level half-angle phi/2 is what
  enters every trace formula, matching the two-dimensional model
  g = exp(theta e1 e2) whose supertrace is e^{-i theta} - e^{i theta};
* the exact functions of zem read integer entries a ("rotation numbers":
  the plane turns with speed a in the circle parameter z, angle 2 pi a z)
  as powers of s = e^{i pi z}; the exact 1/Str is the depth-0
  ``elliptic.theta_term`` of phi_1, whose prefactor per plane is one entry
  of ``elliptic.PREFACTORS``.  This module itself does no exact arithmetic.

Re-coding invariance: flipping the sign of one entry together with the
orientation sign describes the same oriented space, and every function
here is invariant under that move.  The empty list is N = {0}: traces,
chi and all signs degenerate to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass



class SpinCharError(ValueError):
    """Base class for rotation-data errors."""


class SupertraceZeroError(SpinCharError):
    """chi was requested where the supertrace vanishes."""


class AngleOnLatticeError(SpinCharError):
    """An orientation sign was requested for an angle in 2 pi Z."""


@dataclass(frozen=True, slots=True)
class RotationData:
    """A maximal-torus element of so(N) plus an orientation sign."""

    entries: tuple = ()
    orientation_sign: int = 1

    def __post_init__(self):
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        if self.orientation_sign not in (1, -1):
            raise SpinCharError("orientation_sign must be +1 or -1")
        if not self.entries and self.orientation_sign != 1:
            raise SpinCharError("the zero space carries only the + orientation")

    @property
    def planes(self):
        return len(self.entries)

    def is_integral(self):
        return all(isinstance(a, int) for a in self.entries)

    def scaled(self, factor):
        """Entry-wise scaling (e.g. rotation numbers -> angles 2 pi a / k)."""
        return RotationData(
            tuple(a * factor for a in self.entries), self.orientation_sign
        )


def _half_angles(R, shift):
    out = []
    for j, a in enumerate(R.entries):
        w = complex(a) / 2.0
        if shift is not None:
            w += complex(shift[j])
        out.append(w)
    return out


def spinor_trace(kind, R, shift=None):
    """Trace or supertrace of a Spin element over the spinor module.

    kind 'str': orientation_sign * prod_j (e^{-i w_j} - e^{i w_j}),
    kind 'tr' : prod_j (e^{-i w_j} + e^{i w_j}),
    where w_j = phi_j/2 + shift_j is the half-angle of plane j.
    """
    if kind not in ("str", "tr"):
        raise ValueError("kind must be 'str' or 'tr'")
    if shift is not None and len(shift) != R.planes:
        raise SpinCharError("shift must give one offset per plane")
    out = 1.0 + 0j
    for w in _half_angles(R, shift):
        e = cmath.exp(1j * w)
        if kind == "str":
            out *= 1.0 / e - e
        else:
            out *= 1.0 / e + e
    if kind == "str":
        out *= R.orientation_sign
    return out


def chi(g, R):
    """1/Str(g e^R): the reciprocal-supertrace invariant function.

    ``g`` is None (untwisted) or RotationData whose entries are Spin-level
    parameters theta_j (the supertrace factor of g alone is
    e^{-i theta_j} - e^{i theta_j}); R's entries are SO-angles on the same
    planes.  Orientation signs multiply.
    """
    if g is not None and g.planes != R.planes:
        raise SpinCharError("g and R must share the plane structure")
    shift = None
    sign = R.orientation_sign
    if g is not None:
        shift = [complex(t) for t in g.entries]
        sign *= g.orientation_sign
    st = spinor_trace("str", RotationData(R.entries, 1), shift=shift)
    st *= sign
    if abs(st) < 1e-12:
        raise SupertraceZeroError(
            f"supertrace vanishes (|Str| = {abs(st):.2e}); chi has a pole here"
        )
    return 1.0 / st


def epsilon_J(J):
    """(-1)^{sum of rotation numbers} for invertible integer data; the
    choice of signs in the entries does not matter mod 2."""
    if not J.is_integral():
        raise SpinCharError("epsilon needs integer rotation numbers")
    total = 0
    for a in J.entries:
        if a == 0:
            raise SpinCharError("epsilon needs invertible data (no zero entries)")
        total += a
    return -1 if total % 2 else 1


def os_sign(Y):
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


@dataclass(frozen=True)
class CyclicAction:
    """An order-k rotation given by its residues mod k, one per 2-plane."""

    k: int
    residues: tuple = ()

    def __post_init__(self):
        if self.k < 1:
            raise SpinCharError("k must be a positive integer")
        object.__setattr__(self, "residues", tuple(int(r) for r in self.residues))

    @property
    def planes(self):
        return len(self.residues)

    def has_eigenvalue_one(self):
        return any(r % self.k == 0 for r in self.residues)

    def normalized_residues(self):
        """Residues pulled into {1, .., k-1}; requires no eigenvalue 1."""
        out = []
        for r in self.residues:
            rr = r % self.k
            if rr == 0:
                raise SpinCharError("residue 0 mod k: the action fixes a plane")
            out.append(rr)
        return tuple(out)


def v_sign(zeta, orientation_sign=1):
    """Sign of the k-th power of the orientation-compatible Spin lift.

    With residues normalized to {1, .., k-1} on positively oriented planes
    the lift of one plane powers to (-1)^a; re-coding a plane to absorb a
    negative total orientation adds k to the exponent.
    """
    if orientation_sign not in (1, -1):
        raise SpinCharError("orientation_sign must be +1 or -1")
    total = sum(zeta.normalized_residues())
    if orientation_sign < 0:
        total += zeta.k
    return -1 if total % 2 else 1
